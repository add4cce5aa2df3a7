//! The in-memory virtual file system.
//!
//! This is the substrate the entire reproduction stands on: a POSIX-style
//! file system with inodes, directories, symlinks, hard links, unix
//! permissions + ACLs, extended attributes, open-file handles, rename
//! semantics, change notification and per-operation syscall accounting.
//! It replaces the Linux VFS + FUSE layer the paper's prototype used; see
//! DESIGN.md §1 for why the substitution preserves the behaviours yanc
//! relies on.
//!
//! Locking: the inode and open-handle tables are split across N lock
//! shards keyed by inode/fd number (see [`crate::shard`]). Path resolution
//! takes shard read-locks hop-by-hop; mutations resolve lock-free, then
//! write-lock the shards they touch in canonical (ascending) order, verify
//! the directory entries they resolved are still in place, and retry from
//! resolution when a concurrent mutation moved them. Notification events
//! and semantic-hook invocations are computed under the shard locks but
//! emitted/run after release, so hooks and watchers may freely re-enter
//! the filesystem. With `shards = 1` every operation serializes behind a
//! single lock — the deterministic mode the pinned experiment tables run
//! under (and the global-lock baseline the E20 bench compares against).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::{Mutex, RwLock};

use crate::acl::{check_access, Acl};
use crate::counter::{OpKind, SyscallCounters};
use crate::dcache::{CachedKind, Dcache, DcacheStats, Dentry, ParentPerm};
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::hooks::{HookDepth, SemanticHook};
use crate::journal::Record;
use crate::metrics::MetricsRegistry;
use crate::notify::{Event, EventKind, EventMask, NotifyHub, WatchId};
use crate::path::{valid_name, VPath, NAME_MAX, PATH_MAX};
use crate::poll::{PollRegistry, PollSet};
use crate::proc::{ProcDepth, ProcHook, ProcRegistry, ProcRender};
use crate::rctl::{AppLimits, RctlTable};
use crate::readpath::{AttrRead, HandleRead, ReadPath, ReadPathStats};
use crate::shard::{Inode, LockKey, NodeKind, OpenFile, ShardSet, Tables, DEFAULT_SHARDS};
use crate::types::{
    Access, Clock, Credentials, DirEntry, Fd, FileStat, FileType, Gid, Ino, Mode, OpenFlags, Uid,
    ROOT_INO,
};

/// Maximum symlink traversals in one lookup, mirroring Linux `SYMLOOP_MAX`.
/// Exposed at `<proc>/vfs/limits/max_symlink_hops`; resolution fails with
/// `ELOOP` on the hop *after* this many traversals.
pub const MAX_SYMLINK_HOPS: u32 = 40;
/// Hard-link ceiling, mirroring ext4's practical limit.
const LINK_MAX: u32 = 65_000;

/// Resource limits; defaults are generous but finite so `ENOSPC`/`EDQUOT`
/// paths are reachable in tests.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum size of a regular file in bytes.
    pub max_file_size: u64,
    /// Maximum number of entries in one directory.
    pub max_dir_entries: usize,
    /// Maximum number of simultaneously open handles.
    pub max_open_files: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_file_size: 64 << 20,
            max_dir_entries: 1 << 20,
            max_open_files: 1 << 16,
        }
    }
}

/// What [`Filesystem::reclaim`] tore down for a killed process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimReport {
    /// Open handles force-closed.
    pub handles_closed: usize,
    /// Notify watch descriptors removed.
    pub watches_removed: usize,
    /// Unlinked inodes that were only kept alive by the closed handles.
    pub inodes_dropped: usize,
    /// Poll sets killed (further waits return `EBADF`).
    pub pollsets_closed: usize,
}

/// One row of a uid's open-descriptor table (see [`Filesystem::fd_table`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdInfo {
    /// The descriptor number.
    pub fd: u64,
    /// Path the descriptor was opened under (open-time snapshot; renames
    /// of ancestors do not rewrite it, exactly as in `/proc/<pid>/fd`).
    pub path: String,
    /// Opened for reading.
    pub read: bool,
    /// Opened for writing.
    pub write: bool,
    /// Current file offset.
    pub offset: u64,
}

/// Snapshot produced by [`Filesystem::check_invariants`] when every
/// structural law holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCheckReport {
    /// Inodes present in the tables.
    pub inodes: usize,
    /// Directories reachable from the root.
    pub directories: usize,
    /// Regular files reachable from the root.
    pub files: usize,
    /// Symlinks reachable from the root.
    pub symlinks: usize,
    /// Unlinked inodes kept alive only by open handles.
    pub orphans_held_open: usize,
    /// Open handles across all shards.
    pub handles: usize,
}

/// Resolution of a path into its (canonical) parent directory and final
/// component.
struct Resolved {
    parent_ino: Ino,
    parent_path: VPath,
    name: String,
    /// Inode of the final component, if it exists (symlinks NOT followed;
    /// callers follow explicitly when they need to).
    target: Option<Ino>,
}

/// Pending notification gathered under the shard locks, emitted after
/// release as one batch.
type PendingEvent = (EventKind, VPath, Option<String>);

/// Whether an open may (or must) land on a directory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DirMode {
    /// Regular `open`: a directory target is `EISDIR`.
    Forbid,
    /// `O_DIRECTORY` open: a non-directory target is `ENOTDIR`.
    Require,
}

/// Pending hook invocation gathered under the shard locks.
enum PendingHook {
    Mkdir(VPath),
    Create(VPath),
    CloseWrite(VPath),
}

/// RAII reservation of one slot in the global open-handle table. Keeps the
/// `ENFILE` bound exact without a cross-shard pass: the slot is taken up
/// front and released on every error path, or committed when the handle is
/// actually inserted.
struct HandleSlot<'a> {
    tables: &'a Tables,
    committed: bool,
}

impl<'a> HandleSlot<'a> {
    fn reserve(tables: &'a Tables, cap: usize, path: &str) -> VfsResult<Self> {
        if !tables.try_reserve_handle(cap) {
            return err(Errno::ENFILE, path);
        }
        Ok(HandleSlot {
            tables,
            committed: false,
        })
    }

    fn commit(&mut self) {
        self.committed = true;
    }
}

impl Drop for HandleSlot<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.tables.release_handle_slot();
        }
    }
}

/// The virtual file system. Cheap to share: wrap in an [`Arc`].
pub struct Filesystem {
    pub(crate) tables: Arc<Tables>,
    pub(crate) clock: Clock,
    counters: Arc<SyscallCounters>,
    metrics: Arc<MetricsRegistry>,
    notify: Arc<NotifyHub>,
    pub(crate) proc: Arc<ProcRegistry>,
    hooks: RwLock<Vec<Arc<dyn SemanticHook>>>,
    limits: Limits,
    rctl: Arc<RctlTable>,
    polls: Arc<PollRegistry>,
    /// Sharded dentry cache memoising resolution hops; generation-validated
    /// against every directory mutation (see [`crate::dcache`]).
    dcache: Arc<Dcache>,
    /// Optimistic lock-free read path: seqlock-validated attribute blocks
    /// and immutable handle metadata (see [`crate::readpath`], DESIGN.md
    /// §12). Filled by the locked fallback paths, invalidated by shard
    /// seqlock bumps — warm `stat`/`fstat` take zero table locks.
    readpath: Arc<ReadPath>,
    /// Write-ahead journal: append-only op log + snapshots (see
    /// [`crate::journal`]). Disabled until [`Filesystem::enable_journal`].
    pub(crate) journal: Arc<crate::journal::Journal>,
    /// Serializes directory renames so concurrent cross-directory moves
    /// cannot form a cycle the per-rename checks miss — the in-process
    /// analogue of the kernel's `s_vfs_rename_mutex`. Always acquired
    /// before any shard lock, never while holding one.
    rename_lock: Mutex<()>,
}

impl Default for Filesystem {
    fn default() -> Self {
        Self::new()
    }
}

/// Construction-time configuration for a [`Filesystem`], built with
/// [`Filesystem::builder`]. Every feature switch is a named setter here,
/// so the next feature flag extends this struct instead of adding a
/// constructor. Defaults match
/// [`Filesystem::new`]: default limits, [`DEFAULT_SHARDS`] lock shards,
/// dentry cache on, optimistic read path on, journal off.
#[derive(Debug, Clone)]
pub struct FsBuilder {
    limits: Limits,
    shards: usize,
    dcache: bool,
    readpath: bool,
    journal: bool,
}

impl Default for FsBuilder {
    fn default() -> Self {
        FsBuilder {
            limits: Limits::default(),
            shards: DEFAULT_SHARDS,
            dcache: true,
            readpath: true,
            journal: false,
        }
    }
}

impl FsBuilder {
    /// Resource limits (max file size, directory entries, open files).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Lock-shard count. `1` gives the fully serialized (global-lock)
    /// deterministic mode the replay suites use as the reference.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Dentry cache on/off. Off: every resolution walks the inode table
    /// hop by hop, exactly as before the cache existed — the coherence
    /// suites' reference mode and the benches' cold baseline.
    pub fn dcache(mut self, enabled: bool) -> Self {
        self.dcache = enabled;
        self
    }

    /// Optimistic lock-free read path on/off. Off: every read takes its
    /// shard read locks, exactly as before the seqlock scheme existed —
    /// the linearizability suite's (Part 1d) reference mode and the E25
    /// bench's locked baseline.
    pub fn readpath(mut self, enabled: bool) -> Self {
        self.readpath = enabled;
        self
    }

    /// Start with the write-ahead journal enabled: the built filesystem
    /// has already captured its anchor snapshot (of the empty tree) and
    /// logs every mutation from the first one on — equivalent to calling
    /// [`Filesystem::enable_journal`] immediately after construction.
    pub fn journal(mut self, enabled: bool) -> Self {
        self.journal = enabled;
        self
    }

    /// Build the filesystem: an empty tree containing only the root
    /// directory (`0o755`, owned by root), with the configured features.
    pub fn build(self) -> Filesystem {
        let clock = Clock::new();
        let now = clock.tick();
        let tables = Tables::new(self.shards);
        {
            let mut set = tables.lock(&[LockKey::Ino(ROOT_INO)]);
            set.insert_inode(
                ROOT_INO,
                Inode {
                    kind: NodeKind::Dir {
                        entries: BTreeMap::new(),
                        parent: ROOT_INO,
                    },
                    mode: Mode::DIR_DEFAULT,
                    uid: Uid(0),
                    gid: Gid(0),
                    nlink: 2,
                    mtime: now,
                    ctime: now,
                    xattrs: BTreeMap::new(),
                    acl: None,
                    open_count: 0,
                },
            );
        }
        let fs = Filesystem {
            dcache: Arc::new(Dcache::new(tables.shard_count(), self.dcache)),
            readpath: Arc::new(ReadPath::new(self.readpath)),
            tables: Arc::new(tables),
            clock,
            counters: Arc::new(SyscallCounters::new()),
            metrics: Arc::new(MetricsRegistry::new()),
            notify: Arc::new(NotifyHub::new()),
            proc: Arc::new(ProcRegistry::new()),
            hooks: RwLock::new(Vec::new()),
            limits: self.limits,
            rctl: Arc::new(RctlTable::new()),
            polls: Arc::new(PollRegistry::new()),
            journal: Arc::new(crate::journal::Journal::new()),
            rename_lock: Mutex::new(()),
        };
        if self.journal {
            fs.enable_journal();
        }
        fs
    }
}

impl Filesystem {
    /// An empty filesystem containing only the root directory (`0o755`,
    /// owned by root).
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Start configuring a filesystem; see [`FsBuilder`].
    pub fn builder() -> FsBuilder {
        FsBuilder::default()
    }

    /// Dentry-cache counters (hits/misses/negative hits/invalidations/
    /// inserts/evictions); also exposed at `<proc>/vfs/dcache/*`.
    pub fn dcache_stats(&self) -> DcacheStats {
        self.dcache.stats()
    }

    /// Whether the dentry cache participates in path resolution.
    pub fn dcache_enabled(&self) -> bool {
        self.dcache.enabled()
    }

    /// Live dentry-cache entries (positive + negative) across all shards.
    pub fn dcache_entries(&self) -> usize {
        self.dcache.entries()
    }

    /// Inode-table read-lock acquisitions so far — the deterministic cost
    /// metric behind the E22 warm-vs-cold resolution claim (wall-clock is
    /// machine noise; lock acquisitions are not).
    pub fn inode_table_reads(&self) -> u64 {
        self.tables.inode_read_count()
    }

    /// Every shard-lock acquisition (read + write) on the inode/handle
    /// tables so far — the deterministic cost metric behind the E25
    /// lock-free read path claim ("0 locks per warm stat"). Dcache-internal
    /// stripe locks and rctl bucket locks are deliberately excluded: the
    /// contended scaling wall is the shard tables.
    pub fn lock_acquisitions(&self) -> u64 {
        self.tables.lock_acquisition_count()
    }

    /// Counters of the optimistic lock-free read path (hits/retries/
    /// fallbacks/fills plus the table lock-acquisition total); also exposed
    /// at `<proc>/vfs/readpath/*`.
    pub fn readpath_stats(&self) -> ReadPathStats {
        self.readpath.stats(&self.tables)
    }

    /// Whether the optimistic lock-free read path participates in hot
    /// reads (see [`FsBuilder::readpath`]).
    pub fn readpath_enabled(&self) -> bool {
        self.readpath.enabled()
    }

    /// Bump `ino`'s dcache generation. Mutators call this while still
    /// holding the shard write locks of the mutation so no fill that read
    /// pre-mutation state can ever validate. The invalidation *counter* is
    /// suppressed during internal proc maintenance (the bump itself never
    /// is) so `/net/.proc/vfs/dcache` reads do not disturb themselves.
    #[inline]
    pub(crate) fn bump_gen(&self, ino: Ino) {
        self.dcache.bump(ino, ProcDepth::active());
    }

    /// Number of lock shards the inode/handle tables are split across.
    pub fn shard_count(&self) -> usize {
        self.tables.shard_count()
    }

    /// The syscall tally (see [`SyscallCounters`]); drives experiment E14.
    pub fn counters(&self) -> &SyscallCounters {
        &self.counters
    }

    /// Latency histograms and per-mount counter scopes.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Register (or fetch) a named syscall-counter scope covering `prefix`.
    /// If a proc mount is active, the scope's figures are also exposed under
    /// `<mount>/scopes/<name>/`.
    pub fn add_metrics_scope(&self, name: &str, prefix: &str) -> Arc<SyscallCounters> {
        let counters = self.metrics.add_scope(name, prefix);
        for mount in self.proc.mounts() {
            let c = counters.clone();
            let _ = self.proc_file(&format!("{mount}/scopes/{name}/total"), move || {
                format!("{}\n", c.total())
            });
            let c = counters.clone();
            let _ = self.proc_file(&format!("{mount}/scopes/{name}/syscalls"), move || {
                format!("{}\n", c.snapshot().report())
            });
        }
        counters
    }

    /// The notification hub.
    pub fn notify(&self) -> &NotifyHub {
        &self.notify
    }

    /// The proc-mount registry (see [`crate::proc`]).
    pub fn proc(&self) -> &ProcRegistry {
        &self.proc
    }

    /// Register a semantic hook (consulted in registration order).
    pub fn add_hook(&self, hook: Arc<dyn SemanticHook>) {
        self.hooks.write().push(hook);
    }

    /// Start building a watch on `path`: `fs.watch(p).subtree().mask(m)
    /// .as_uid(u).register()`. The returned [`WatchGuard`] unwatches on
    /// drop, so a watch can no longer leak past its owner.
    pub fn watch(&self, path: &str) -> WatchBuilder<'_> {
        WatchBuilder {
            fs: self,
            path: VPath::new(path),
            subtree: false,
            mask: EventMask::ALL,
            creds: None,
        }
    }

    /// Cancel a watch.
    pub fn unwatch(&self, id: WatchId) -> bool {
        self.notify.unwatch(id)
    }

    fn check_watch_budget(&self, creds: &Credentials, path: &str) -> VfsResult<()> {
        if let Some(l) = self.rctl.limits(creds.uid.0) {
            if let Some(cap) = l.max_watches {
                if self.notify.watches_of(creds.uid.0) as u64 >= cap {
                    return err(Errno::EMFILE, path);
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Per-process resource control (cgroup-style, keyed by uid)
    // ----------------------------------------------------------------

    /// The resource-control table (see [`crate::rctl`]).
    pub fn rctl(&self) -> &Arc<RctlTable> {
        &self.rctl
    }

    /// Install limits for `uid`: syscall-rate tokens, handle/watch caps,
    /// notify-queue quota, flow quota. The supervisor calls this when it
    /// spawns a confined process.
    pub fn set_app_limits(&self, uid: Uid, limits: AppLimits) {
        self.notify
            .set_queue_quota(uid.0, limits.notify_queue_max.map(|v| v as usize));
        self.rctl.set_limits(uid.0, limits);
    }

    /// Remove the limits for `uid` (process exited / unconfined).
    pub fn clear_app_limits(&self, uid: Uid) {
        self.notify.set_queue_quota(uid.0, None);
        self.rctl.clear_limits(uid.0);
    }

    /// Handles currently open, across all owners (exact: maintained as an
    /// atomic at handle insert/remove, never recomputed by a table scan).
    pub fn open_handle_count(&self) -> usize {
        self.tables.handle_count()
    }

    /// Handles currently open and charged to `uid`.
    pub fn handles_of(&self, uid: Uid) -> usize {
        (0..self.tables.shard_count())
            .map(|i| {
                self.tables
                    .read_shard(i)
                    .handles
                    .values()
                    .filter(|h| h.owner == uid)
                    .count()
            })
            .sum()
    }

    /// Tear down every kernel-side resource charged to `uid`: open handles
    /// (dropping now-orphaned inodes) and notify watch descriptors. This is
    /// the `KILL` path — no `CloseWrite` fires, because a killed process
    /// never reaches its commit point; half-written updates are abandoned
    /// exactly as the paper's version-file protocol intends.
    pub fn reclaim(&self, uid: Uid) -> ReclaimReport {
        let mut handles_closed = 0usize;
        let mut inodes_dropped = 0usize;
        {
            let mut set = self.tables.lock_all();
            for fd in set.fds_of(uid) {
                if let Some(h) = set.remove_handle(fd) {
                    handles_closed += 1;
                    self.readpath.close_handle(fd);
                    self.rctl.release_open(uid.0);
                    if let Ok(node) = set.inode_mut(h.ino) {
                        node.open_count -= 1;
                        if node.nlink == 0 && node.open_count == 0 {
                            set.remove_inode(h.ino);
                            inodes_dropped += 1;
                        }
                    }
                }
            }
        }
        let watches_removed = self.notify.unwatch_owner(uid.0);
        let pollsets_closed = self.polls.reclaim(uid.0);
        ReclaimReport {
            handles_closed,
            watches_removed,
            inodes_dropped,
            pollsets_closed,
        }
    }

    // ----------------------------------------------------------------
    // yanc_poll
    // ----------------------------------------------------------------

    /// Create a [`PollSet`] charged to `creds.uid`: the epoll of this OS.
    /// The set appears in `<proc>/vfs/pollsets` and is torn down by
    /// [`Self::reclaim`] of its owner. Creation is free; each
    /// [`PollSet::wait`] charges one `poll` syscall.
    pub fn poll_create(&self, creds: &Credentials) -> PollSet {
        let set = PollSet::new(
            self.polls.alloc_id(),
            creds.uid,
            self.tables.clone(),
            self.counters.clone(),
            self.metrics.clone(),
            self.rctl.clone(),
        );
        self.polls.register(set.inner());
        set
    }

    /// The descriptor table of `uid`, sorted by fd — what
    /// `/net/.proc/apps/<pid>/fds` renders. A read-locked scan; does not
    /// count as a syscall (it is the kernel reading its own tables).
    pub fn fd_table(&self, uid: Uid) -> Vec<FdInfo> {
        let mut out: Vec<FdInfo> = Vec::new();
        for i in 0..self.tables.shard_count() {
            let shard = self.tables.read_shard(i);
            for (fd, h) in shard.handles.iter().filter(|(_, h)| h.owner == uid) {
                out.push(FdInfo {
                    fd: *fd,
                    path: h.path.as_str().to_owned(),
                    read: h.flags.read,
                    write: h.flags.write,
                    offset: h.offset,
                });
            }
        }
        out.sort_by_key(|f| f.fd);
        out
    }

    // ----------------------------------------------------------------
    // /proc-style introspection mounts
    // ----------------------------------------------------------------

    /// Mount a read-only introspection tree at `prefix` (idempotent).
    ///
    /// Creates the directory, installs the [`ProcHook`] enforcing lazy
    /// refresh + `EROFS`, and registers the vfs's own figures beneath it:
    /// `vfs/syscalls/<op>` and `vfs/syscalls/total`, `vfs/latency/<op>`
    /// (virtual-cost histogram summaries), and `vfs/notify/{watches,queued}`.
    /// Operations on paths under the mount are exempt from syscall
    /// accounting, so reading a counter does not disturb it.
    pub fn mount_proc(&self, prefix: &str) -> VfsResult<()> {
        let prefix = prefix.trim_end_matches('/');
        if self.proc.has_mount(prefix) {
            return Ok(());
        }
        let root = Credentials::root();
        {
            let _h = HookDepth::enter();
            let _p = ProcDepth::enter();
            self.mkdir_all(prefix, Mode::DIR_DEFAULT, &root)?;
        }
        let first = !self.proc.mounted();
        self.proc.add_mount(prefix);
        if first {
            self.add_hook(Arc::new(ProcHook::new(self.proc.clone())));
        }

        // The vfs's own instruments.
        let c = self.counters.clone();
        self.proc_file(&format!("{prefix}/vfs/syscalls/total"), move || {
            format!("{}\n", c.total())
        })?;
        for &op in OpKind::all() {
            let c = self.counters.clone();
            self.proc_file(&format!("{prefix}/vfs/syscalls/{}", op.name()), move || {
                format!("{}\n", c.get(op))
            })?;
            let m = self.metrics.clone();
            self.proc_file(&format!("{prefix}/vfs/latency/{}", op.name()), move || {
                format!("{}\n", m.histogram(op).summary())
            })?;
        }
        let pr = self.proc.clone();
        self.proc_file(&format!("{prefix}/vfs/mounts"), move || {
            pr.render_mount_tables()
        })?;
        let n = self.notify.clone();
        self.proc_file(&format!("{prefix}/vfs/notify/watches"), move || {
            format!("{}\n", n.watch_count())
        })?;
        let n = self.notify.clone();
        self.proc_file(&format!("{prefix}/vfs/notify/queued"), move || {
            format!("{}\n", n.queued_events())
        })?;
        let n = self.notify.clone();
        self.proc_file(&format!("{prefix}/vfs/notify/dropped"), move || {
            format!("{}\n", n.dropped_events())
        })?;
        let n = self.notify.clone();
        self.proc_file(&format!("{prefix}/vfs/notify/delivered"), move || {
            format!("{}\n", n.delivered_events())
        })?;
        let t = self.tables.clone();
        self.proc_file(&format!("{prefix}/vfs/handles"), move || {
            format!("{}\n", t.handle_count())
        })?;
        let p = self.polls.clone();
        self.proc_file(&format!("{prefix}/vfs/pollsets"), move || p.render())?;
        let shards = self.tables.shard_count();
        self.proc_file(&format!("{prefix}/vfs/shards"), move || {
            format!("{shards}\n")
        })?;
        let r = self.rctl.clone();
        self.proc_file(&format!("{prefix}/vfs/rctl/throttled"), move || {
            format!("{}\n", r.throttled_total())
        })?;
        let r = self.rctl.clone();
        self.proc_file(&format!("{prefix}/vfs/rctl/refills"), move || {
            format!("{}\n", r.refills())
        })?;

        // Dentry-cache counters. Resolution of proc-covered paths bypasses
        // the cache entirely, so reading these files never perturbs them.
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/hits"), move || {
            format!("{}\n", d.stats().hits)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/misses"), move || {
            format!("{}\n", d.stats().misses)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/negative"), move || {
            format!("{}\n", d.stats().negative_hits)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/invalidates"), move || {
            format!("{}\n", d.stats().invalidations)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/inserts"), move || {
            format!("{}\n", d.stats().inserts)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/evictions"), move || {
            format!("{}\n", d.stats().evictions)
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/entries"), move || {
            format!("{}\n", d.entries())
        })?;
        let d = self.dcache.clone();
        self.proc_file(&format!("{prefix}/vfs/dcache/enabled"), move || {
            format!("{}\n", u8::from(d.enabled()))
        })?;

        // Lock-free read-path counters (E25). Note that *rendering* these
        // files goes through the ordinary locked machinery, so a proc read
        // itself adds lock acquisitions after the value was formatted —
        // pinned tests therefore sample [`Filesystem::readpath_stats`] /
        // [`Filesystem::lock_acquisitions`] directly and use these files
        // only for existence + consistency checks.
        let rp = self.readpath.clone();
        self.proc_file(&format!("{prefix}/vfs/readpath/enabled"), move || {
            format!("{}\n", u8::from(rp.enabled()))
        })?;
        let (rp, t) = (self.readpath.clone(), self.tables.clone());
        self.proc_file(
            &format!("{prefix}/vfs/readpath/optimistic_hits"),
            move || format!("{}\n", rp.stats(&t).optimistic_hits),
        )?;
        let (rp, t) = (self.readpath.clone(), self.tables.clone());
        self.proc_file(
            &format!("{prefix}/vfs/readpath/optimistic_retries"),
            move || format!("{}\n", rp.stats(&t).optimistic_retries),
        )?;
        let (rp, t) = (self.readpath.clone(), self.tables.clone());
        self.proc_file(&format!("{prefix}/vfs/readpath/fallbacks"), move || {
            format!("{}\n", rp.stats(&t).fallbacks)
        })?;
        let (rp, t) = (self.readpath.clone(), self.tables.clone());
        self.proc_file(&format!("{prefix}/vfs/readpath/attr_fills"), move || {
            format!("{}\n", rp.stats(&t).attr_fills)
        })?;
        let (rp, t) = (self.readpath.clone(), self.tables.clone());
        self.proc_file(
            &format!("{prefix}/vfs/readpath/handle_publishes"),
            move || format!("{}\n", rp.stats(&t).handle_publishes),
        )?;
        let t = self.tables.clone();
        self.proc_file(
            &format!("{prefix}/vfs/readpath/lock_acquisitions"),
            move || format!("{}\n", t.lock_acquisition_count()),
        )?;
        self.proc_file(&format!("{prefix}/vfs/readpath/retry_limit"), move || {
            format!("{}\n", ReadPath::RETRY_LIMIT)
        })?;

        // Write-ahead journal figures (E23: the warm-restart cost is read
        // from these files, never from wall-clock).
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/enabled"), move || {
            format!("{}\n", u8::from(j.stats().enabled))
        })?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/records"), move || {
            format!("{}\n", j.stats().records)
        })?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/snapshots"), move || {
            format!("{}\n", j.stats().snapshots)
        })?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/bytes"), move || {
            format!("{}\n", j.stats().bytes)
        })?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/snapshot_bytes"), move || {
            format!("{}\n", j.stats().snapshot_bytes)
        })?;
        let j = self.journal.clone();
        self.proc_file(
            &format!("{prefix}/vfs/journal/compacted_bytes"),
            move || format!("{}\n", j.stats().compacted_bytes),
        )?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/replayed"), move || {
            format!("{}\n", j.stats().replayed)
        })?;
        let j = self.journal.clone();
        self.proc_file(&format!("{prefix}/vfs/journal/replay_skipped"), move || {
            format!("{}\n", j.stats().replay_skipped)
        })?;
        let j = self.journal.clone();
        self.proc_file(
            &format!("{prefix}/vfs/journal/replay_syscalls"),
            move || format!("{}\n", j.stats().replay_syscalls),
        )?;

        // Static resolution limits (satellite of the dcache work: the
        // symlink-hop bound used to be a buried literal).
        self.proc_file(
            &format!("{prefix}/vfs/limits/max_symlink_hops"),
            move || format!("{MAX_SYMLINK_HOPS}\n"),
        )?;
        self.proc_file(&format!("{prefix}/vfs/limits/path_max"), move || {
            format!("{PATH_MAX}\n")
        })?;
        self.proc_file(&format!("{prefix}/vfs/limits/name_max"), move || {
            format!("{NAME_MAX}\n")
        })?;
        self.proc_file(&format!("{prefix}/vfs/limits/link_max"), move || {
            format!("{LINK_MAX}\n")
        })?;
        let max_file_size = self.limits.max_file_size;
        self.proc_file(&format!("{prefix}/vfs/limits/max_file_size"), move || {
            format!("{max_file_size}\n")
        })?;
        let max_dir_entries = self.limits.max_dir_entries;
        self.proc_file(&format!("{prefix}/vfs/limits/max_dir_entries"), move || {
            format!("{max_dir_entries}\n")
        })?;
        let max_open_files = self.limits.max_open_files;
        self.proc_file(&format!("{prefix}/vfs/limits/max_open_files"), move || {
            format!("{max_open_files}\n")
        })?;

        // Scopes registered before the mount get their files now.
        for (name, _) in self.metrics.scope_names() {
            if let Some(counters) = self.metrics.scope(&name) {
                let c = counters.clone();
                self.proc_file(&format!("{prefix}/scopes/{name}/total"), move || {
                    format!("{}\n", c.total())
                })?;
                let c = counters;
                self.proc_file(&format!("{prefix}/scopes/{name}/syscalls"), move || {
                    format!("{}\n", c.snapshot().report())
                })?;
            }
        }
        Ok(())
    }

    /// Register a rendered file at `path` (which must lie under an existing
    /// proc mount; `EINVAL` otherwise). Parent directories are created as
    /// needed; the file is re-rendered on every observation.
    pub fn proc_file<F>(&self, path: &str, render: F) -> VfsResult<()>
    where
        F: Fn() -> String + Send + Sync + 'static,
    {
        if !self.proc.covers(path) {
            return err(Errno::EINVAL, path);
        }
        let root = Credentials::root();
        let vp = VPath::new(path);
        {
            let _h = HookDepth::enter();
            let _p = ProcDepth::enter();
            self.mkdir_all(vp.parent().as_str(), Mode::DIR_DEFAULT, &root)?;
            self.write_file(vp.as_str(), render().as_bytes(), &root)?;
        }
        let render: ProcRender = Arc::new(render);
        self.proc.register(vp.as_str(), render);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Internal helpers
    // ----------------------------------------------------------------

    /// Tally one operation on `path`. Proc-mount paths and internal proc
    /// maintenance are exempt: introspection must not disturb what it
    /// measures.
    #[inline]
    pub(crate) fn count(&self, op: OpKind, path: &str) {
        if ProcDepth::active() || self.proc.covers(path) {
            return;
        }
        self.counters.bump(op);
        self.metrics.record(op, path);
    }

    /// [`Self::count`], then consume one syscall-rate token for the calling
    /// uid (`EAGAIN` when its bucket is empty). Root and hook-initiated
    /// maintenance are exempt — throttling a semantic hook mid-mutation
    /// would leave the tree half-updated.
    #[inline]
    fn charge(&self, op: OpKind, path: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(op, path, creds.uid)
    }

    #[inline]
    fn charge_uid(&self, op: OpKind, path: &str, uid: Uid) -> VfsResult<()> {
        if ProcDepth::active() || self.proc.covers(path) {
            return Ok(());
        }
        self.counters.bump(op);
        self.metrics.record(op, path);
        if uid.0 != 0 && !HookDepth::active() {
            self.rctl.charge_syscall(uid.0, path)?;
        }
        Ok(())
    }

    /// Give hooks a chance to materialise `path` before it is observed.
    fn pre_access(&self, path: &str) {
        if HookDepth::active() || ProcDepth::active() {
            return;
        }
        let hooks: Vec<Arc<dyn SemanticHook>> = {
            let h = self.hooks.read();
            if h.is_empty() {
                return;
            }
            h.clone()
        };
        let vp = VPath::new(path);
        for h in &hooks {
            h.pre_access(self, &vp);
        }
    }

    /// Let hooks veto a mutation of `path` (proc mounts: `EROFS`).
    fn validate_mutation(&self, path: &VPath) -> VfsResult<()> {
        self.validate_with_hooks(|h| h.validate_mutate(self, path))
    }

    /// Permission check against a locked shard set.
    fn may_access_set(set: &ShardSet, ino: Ino, creds: &Credentials, access: Access) -> bool {
        set.inode(ino)
            .map(|n| check_access(creds, n.uid, n.gid, n.mode, n.acl.as_ref(), access))
            .unwrap_or(false)
    }

    /// Sticky-directory deletion check: in a sticky dir, only the entry's
    /// owner, the dir's owner, or root may remove/rename an entry.
    fn sticky_ok_set(set: &ShardSet, dir: Ino, entry_ino: Ino, creds: &Credentials) -> bool {
        if creds.is_root() {
            return true;
        }
        let (sticky, dir_uid) = match set.inode(dir) {
            Ok(n) => (n.mode.sticky(), n.uid),
            Err(_) => return true, // vanished: the entry verify already failed
        };
        if !sticky || creds.uid == dir_uid {
            return true;
        }
        set.inode(entry_ino)
            .map(|n| n.uid == creds.uid)
            .unwrap_or(false)
    }

    /// Walk `path`, resolving intermediate symlinks, checking Exec on every
    /// traversed directory. Returns the canonical parent plus final name.
    /// `follow_last`: also resolve the final component if it is a symlink.
    ///
    /// Hop-by-hop locking: each step takes exactly one shard read-lock,
    /// copies out what it needs, and releases before the next step. The
    /// result is therefore a *snapshot* under concurrency; mutating callers
    /// re-verify it under their shard write-locks.
    fn resolve_live(
        &self,
        path: &VPath,
        creds: &Credentials,
        follow_last: bool,
    ) -> VfsResult<Resolved> {
        if path.as_str().len() > PATH_MAX {
            return err(Errno::ENAMETOOLONG, path.as_str());
        }
        let work: VecDeque<String> = path.components().map(str::to_string).collect();
        self.resolve_from(
            ROOT_INO,
            VPath::root(),
            work,
            creds,
            follow_last,
            path.as_str(),
        )
    }

    /// The walk behind [`Self::resolve_live`], generalized to start at an
    /// arbitrary directory — the mechanism descriptor-relative syscalls use
    /// to pay resolution only for their relative components. `orig` is the
    /// original operand, used in error reporting.
    fn resolve_from(
        &self,
        start_ino: Ino,
        start_path: VPath,
        mut work: VecDeque<String>,
        creds: &Credentials,
        follow_last: bool,
        orig: &str,
    ) -> VfsResult<Resolved> {
        if work.is_empty() {
            return Ok(Resolved {
                parent_ino: start_ino,
                parent_path: start_path.clone(),
                name: String::new(),
                target: Some(start_ino),
            });
        }

        // The dcache never serves proc-covered paths (nor internal proc
        // maintenance): introspection must not disturb what it measures,
        // and the rendered tree is rewritten too often to be worth caching.
        let use_cache = self.dcache.enabled() && !ProcDepth::active() && !self.proc.covers(orig);

        let mut cur_ino = start_ino;
        let mut cur_path = start_path;
        let mut links = 0u32;

        loop {
            let comp = match work.pop_front() {
                Some(c) => c,
                None => {
                    // Path fully consumed by symlink expansion ending in a dir.
                    return Ok(Resolved {
                        parent_ino: cur_ino,
                        parent_path: cur_path.clone(),
                        name: String::new(),
                        target: Some(cur_ino),
                    });
                }
            };
            if comp.len() > NAME_MAX {
                return err(Errno::ENAMETOOLONG, orig);
            }

            if comp == ".." {
                // `..` always resolves live: parent pointers are rewritten
                // by rename and are not worth caching.
                let parent = match self.tables.with_inode(cur_ino, |node| {
                    if node.dir_entries().is_err() {
                        return Err(VfsError::new(Errno::ENOTDIR, cur_path.as_str()));
                    }
                    if !check_access(
                        creds,
                        node.uid,
                        node.gid,
                        node.mode,
                        node.acl.as_ref(),
                        Access::Exec,
                    ) {
                        return Err(VfsError::new(Errno::EACCES, cur_path.as_str()));
                    }
                    match &node.kind {
                        NodeKind::Dir { parent, .. } => Ok(*parent),
                        _ => unreachable!("dir_entries() above guarantees a directory"),
                    }
                }) {
                    Ok(r) => r?,
                    // A directory we were standing in vanished mid-walk
                    // (impossible with shards=1; a concurrent rmdir
                    // otherwise): linearize after the removal.
                    Err(_) => return err(Errno::ENOENT, cur_path.as_str()),
                };
                cur_ino = parent;
                cur_path = cur_path.parent();
                continue;
            }

            // One hash hit (warm) or one shard read-lock (cold) per hop.
            let key = (cur_ino.0, comp);
            let cached = if use_cache {
                self.dcache.lookup(cur_ino, &key)
            } else {
                None
            };
            let child: Option<(Ino, CachedKind)> = match cached {
                Some(d) => {
                    // Revalidate permissions against the *caller's*
                    // credentials on every hit — the cache can never widen
                    // access, only skip the inode-table read.
                    if !check_access(
                        creds,
                        d.perm.uid,
                        d.perm.gid,
                        d.perm.mode,
                        d.perm.acl.as_ref(),
                        Access::Exec,
                    ) {
                        return err(Errno::EACCES, cur_path.as_str());
                    }
                    d.child
                }
                None => {
                    // Seqlock-style fill: load the parent's generation
                    // BEFORE the live read. Any mutation committing in
                    // between bumps it, so the insert below is dropped and
                    // a pre-mutation snapshot can never be published.
                    let fill_gen = if use_cache {
                        Some(self.dcache.gen(cur_ino))
                    } else {
                        None
                    };
                    let (child_ino, perm) = match self.tables.with_inode(cur_ino, |node| {
                        let entries = match node.dir_entries() {
                            Ok(e) => e,
                            Err(_) => return Err(VfsError::new(Errno::ENOTDIR, cur_path.as_str())),
                        };
                        if !check_access(
                            creds,
                            node.uid,
                            node.gid,
                            node.mode,
                            node.acl.as_ref(),
                            Access::Exec,
                        ) {
                            return Err(VfsError::new(Errno::EACCES, cur_path.as_str()));
                        }
                        Ok((
                            entries.get(&key.1).copied(),
                            ParentPerm {
                                uid: node.uid,
                                gid: node.gid,
                                mode: node.mode,
                                acl: node.acl.clone(),
                            },
                        ))
                    }) {
                        Ok(r) => r?,
                        // A directory we were standing in vanished mid-walk
                        // (impossible with shards=1; a concurrent rmdir
                        // otherwise): linearize after the removal.
                        Err(_) => return err(Errno::ENOENT, cur_path.as_str()),
                    };
                    match child_ino {
                        None => {
                            if let Some(gen) = fill_gen {
                                // Negative entry: cache the ENOENT so
                                // repeat probes of absent paths are one
                                // hash hit.
                                self.dcache.insert(
                                    cur_ino,
                                    (key.0, key.1.clone()),
                                    Dentry {
                                        child: None,
                                        gen,
                                        perm,
                                    },
                                );
                            }
                            None
                        }
                        Some(ci) => {
                            if fill_gen.is_none() && work.is_empty() && !follow_last {
                                // Nothing needs the child's kind: return the
                                // snapshot without an extra probe, exactly
                                // as the pre-cache walk did.
                                return Ok(Resolved {
                                    parent_ino: cur_ino,
                                    parent_path: cur_path.clone(),
                                    name: key.1,
                                    target: Some(ci),
                                });
                            }
                            match self.tables.with_inode(ci, |n| match &n.kind {
                                NodeKind::Dir { .. } => CachedKind::Dir,
                                NodeKind::Symlink(t) => CachedKind::Symlink(t.clone()),
                                NodeKind::File(_) => CachedKind::File,
                            }) {
                                Ok(kind) => {
                                    if let Some(gen) = fill_gen {
                                        // An inode's kind is immutable for
                                        // the lifetime of its number, so
                                        // caching it is safe while the
                                        // entry validates.
                                        self.dcache.insert(
                                            cur_ino,
                                            (key.0, key.1.clone()),
                                            Dentry {
                                                child: Some((ci, kind.clone())),
                                                gen,
                                                perm,
                                            },
                                        );
                                    }
                                    Some((ci, kind))
                                }
                                Err(_) => {
                                    // Child vanished between the two reads;
                                    // never cached.
                                    if work.is_empty() {
                                        // Return the snapshot; mutating
                                        // callers re-verify under their
                                        // shard write-locks.
                                        return Ok(Resolved {
                                            parent_ino: cur_ino,
                                            parent_path: cur_path.clone(),
                                            name: key.1,
                                            target: Some(ci),
                                        });
                                    }
                                    return err(Errno::ENOENT, cur_path.join(&key.1).as_str());
                                }
                            }
                        }
                    }
                }
            };

            let is_last = work.is_empty();
            if is_last {
                // Follow a final symlink only when asked.
                if follow_last {
                    if let Some((_, CachedKind::Symlink(target))) = &child {
                        links += 1;
                        if links > MAX_SYMLINK_HOPS {
                            return err(Errno::ELOOP, orig);
                        }
                        let target = target.clone();
                        Self::expand_symlink(&mut work, &mut cur_ino, &mut cur_path, &target);
                        continue;
                    }
                }
                return Ok(Resolved {
                    parent_ino: cur_ino,
                    parent_path: cur_path.clone(),
                    name: key.1,
                    target: child.map(|(i, _)| i),
                });
            }

            // Intermediate component must exist and be traversable.
            match child {
                None => return err(Errno::ENOENT, cur_path.join(&key.1).as_str()),
                Some((ci, CachedKind::Dir)) => {
                    cur_path = cur_path.join(&key.1);
                    cur_ino = ci;
                }
                Some((_, CachedKind::Symlink(target))) => {
                    links += 1;
                    if links > MAX_SYMLINK_HOPS {
                        return err(Errno::ELOOP, orig);
                    }
                    Self::expand_symlink(&mut work, &mut cur_ino, &mut cur_path, &target);
                }
                Some((_, CachedKind::File)) => {
                    return err(Errno::ENOTDIR, cur_path.join(&key.1).as_str());
                }
            }
        }
    }

    fn expand_symlink(
        work: &mut VecDeque<String>,
        cur_ino: &mut Ino,
        cur_path: &mut VPath,
        target: &str,
    ) {
        let tpath = if target.starts_with('/') {
            *cur_ino = ROOT_INO;
            *cur_path = VPath::root();
            VPath::new(target)
        } else {
            // Relative target: resolved against the current directory; the
            // components are queued raw so `..` handling stays lookup-time.
            VPath::new(&format!("/{target}"))
        };
        let comps: Vec<&str> = tpath.components().collect();
        for c in comps.into_iter().rev() {
            work.push_front(c.to_string());
        }
    }

    /// Resolve and require the final target to exist. Follows final symlink
    /// when `follow` is set.
    fn lookup_live(&self, path: &VPath, creds: &Credentials, follow: bool) -> VfsResult<Ino> {
        let r = self.resolve_live(path, creds, follow)?;
        r.target
            .ok_or_else(|| VfsError::new(Errno::ENOENT, path.as_str()))
    }

    /// Resolve `rel` (relative; `EINVAL` if absolute) against an open
    /// directory descriptor. Only the relative components pay resolution
    /// hops. `EBADF` for a closed descriptor, `ENOENT` if its directory
    /// was removed, `ENOTDIR` if it is not a directory. Paths in the
    /// result are built from the descriptor's open-time path; like
    /// inotify, events for descriptor-relative mutations therefore fire
    /// under the name the directory had when it was opened.
    fn resolve_at(
        &self,
        dir: Fd,
        rel: &str,
        creds: &Credentials,
        follow_last: bool,
    ) -> VfsResult<Resolved> {
        if rel.starts_with('/') {
            return err(Errno::EINVAL, rel);
        }
        if rel.len() > PATH_MAX {
            return err(Errno::ENAMETOOLONG, rel);
        }
        let (dino, dpath) = match self.tables.with_handle(dir.0, |h| (h.ino, h.path.clone())) {
            Some(v) => v,
            None => return err(Errno::EBADF, rel),
        };
        let is_dir = self
            .tables
            .with_inode(dino, |n| matches!(n.kind, NodeKind::Dir { .. }))
            .map_err(|_| VfsError::new(Errno::ENOENT, dpath.as_str()))?;
        if !is_dir {
            return err(Errno::ENOTDIR, dpath.as_str());
        }
        let work: VecDeque<String> = VPath::new(&format!("/{rel}"))
            .components()
            .map(str::to_string)
            .collect();
        self.resolve_from(dino, dpath, work, creds, follow_last, rel)
    }

    fn run_hooks(&self, pending: Vec<PendingHook>, creds: &Credentials) {
        if pending.is_empty() || HookDepth::active() {
            return;
        }
        let hooks: Vec<Arc<dyn SemanticHook>> = self.hooks.read().clone();
        if hooks.is_empty() {
            return;
        }
        let _guard = HookDepth::enter();
        for p in pending {
            for h in &hooks {
                match &p {
                    PendingHook::Mkdir(path) => h.post_mkdir(self, path, creds),
                    PendingHook::Create(path) => h.post_create(self, path, creds),
                    PendingHook::CloseWrite(path) => h.post_close_write(self, path, creds),
                }
            }
        }
    }

    /// Emit every event gathered by one operation as a single batch: each
    /// watch's queue gate is taken once per batch, outside any shard lock.
    fn emit_all(&self, events: Vec<PendingEvent>) {
        self.notify.emit_batch(&events);
    }

    /// Validate a create/symlink against hooks (outside the lock).
    fn validate_with_hooks(&self, f: impl Fn(&dyn SemanticHook) -> VfsResult<()>) -> VfsResult<()> {
        if HookDepth::active() {
            return Ok(());
        }
        let hooks: Vec<Arc<dyn SemanticHook>> = self.hooks.read().clone();
        for h in &hooks {
            f(h.as_ref())?;
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Metadata operations
    // ----------------------------------------------------------------

    /// `stat(2)`: follow symlinks.
    pub fn stat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
        self.pre_access(path);
        self.charge(OpKind::Stat, path, creds)?;
        self.stat_common(path, creds, true)
    }

    /// `lstat(2)`: do not follow a final symlink.
    pub fn lstat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
        self.pre_access(path);
        self.charge(OpKind::Stat, path, creds)?;
        self.stat_common(path, creds, false)
    }

    /// The attribute snapshot a `stat` returns, copied under a shard lock.
    fn stat_of(node: &Inode, ino: Ino) -> FileStat {
        FileStat {
            ino,
            file_type: node.file_type(),
            mode: node.mode,
            uid: node.uid,
            gid: node.gid,
            size: node.size(),
            nlink: node.nlink,
            mtime: node.mtime,
            ctime: node.ctime,
        }
    }

    /// Locked attribute read that doubles as the optimistic path's fill:
    /// the snapshot is published to `ino`'s attribute block under the
    /// shard seq sampled inside the read lock, so the *next* read of an
    /// unchanged shard is lock-free. `EIO` when the inode is gone.
    fn stat_locked_and_fill(&self, ino: Ino) -> VfsResult<FileStat> {
        self.tables.with_inode_at(ino, |node, seq| {
            let st = Self::stat_of(node, ino);
            self.readpath.publish_attr(seq, &st, node.acl.is_some());
            st
        })
    }

    fn stat_common(&self, path: &str, creds: &Credentials, follow: bool) -> VfsResult<FileStat> {
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, follow)?;
            // Optimistic: a validated attribute block answers with zero
            // table locks. stat(2) needs no permission on the target
            // itself — ancestor exec was checked during resolution (dcache
            // hits revalidate it against the caller's credentials) — so
            // even an ACL-bearing inode may be served.
            if let AttrRead::Hit(st) = self.readpath.read_attr(&self.tables, ino) {
                return Ok(st);
            }
            match self.stat_locked_and_fill(ino) {
                Ok(st) => return Ok(st),
                Err(_) => continue, // inode vanished between lookup and read
            }
        }
    }

    /// Whether `path` resolves to an existing object (symlinks followed).
    /// Does not count as a syscall on failure paths in callers' accounting —
    /// it is a `stat` and is tallied as one.
    pub fn exists(&self, path: &str, creds: &Credentials) -> bool {
        self.stat(path, creds).is_ok()
    }

    /// Resolve `path` to its canonical form (all symlinks resolved).
    pub fn canonicalize(&self, path: &str, creds: &Credentials) -> VfsResult<VPath> {
        self.charge(OpKind::Stat, path, creds)?;
        let vp = VPath::new(path);
        let r = self.resolve_live(&vp, creds, true)?;
        if r.target.is_none() {
            return err(Errno::ENOENT, vp.as_str());
        }
        Ok(if r.name.is_empty() {
            r.parent_path
        } else {
            r.parent_path.join(&r.name)
        })
    }

    /// `chmod(2)`.
    pub fn chmod(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Setattr, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            if !creds.is_root() && creds.uid != node.uid {
                return err(Errno::EPERM, vp.as_str());
            }
            node.mode = Mode(mode.0 & 0o7777);
            node.ctime = now;
            let new_mode = node.mode;
            self.jrnl(vp.as_str(), || Record::SetMode {
                ino,
                mode: new_mode,
                tick: now,
            });
            // Dentries snapshot this inode's permission bits; retire them
            // while the shard locks are still held.
            self.bump_gen(ino);
            break;
        }
        self.notify.emit(EventKind::Attrib, &vp, None);
        Ok(())
    }

    /// `chown(2)`. Only root may change the owner; the owner may change the
    /// group to one they belong to.
    pub fn chown(
        &self,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
        creds: &Credentials,
    ) -> VfsResult<()> {
        self.charge(OpKind::Setattr, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            if let Some(u) = uid {
                if !creds.is_root() && u != node.uid {
                    return err(Errno::EPERM, vp.as_str());
                }
                node.uid = u;
            }
            if let Some(g) = gid {
                #[allow(clippy::nonminimal_bool)] // the spelled-out form mirrors POSIX wording
                if !creds.is_root() && !(creds.uid == node.uid && creds.in_group(g)) {
                    return err(Errno::EPERM, vp.as_str());
                }
                node.gid = g;
            }
            node.ctime = now;
            let (new_uid, new_gid) = (node.uid, node.gid);
            self.jrnl(vp.as_str(), || Record::SetOwner {
                ino,
                uid: new_uid,
                gid: new_gid,
                tick: now,
            });
            self.bump_gen(ino);
            break;
        }
        self.notify.emit(EventKind::Attrib, &vp, None);
        Ok(())
    }

    /// Replace the ACL on `path` (owner or root only). `None` clears it.
    pub fn set_acl(&self, path: &str, acl: Option<Acl>, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Xattr, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            if !creds.is_root() && creds.uid != node.uid {
                return err(Errno::EPERM, vp.as_str());
            }
            node.acl = acl.filter(|a| !a.is_empty());
            node.ctime = now;
            let new_acl = node.acl.clone();
            self.jrnl(vp.as_str(), || Record::SetAcl {
                ino,
                acl: new_acl,
                tick: now,
            });
            self.bump_gen(ino);
            break;
        }
        self.notify.emit(EventKind::Attrib, &vp, None);
        Ok(())
    }

    /// Read the ACL on `path` (requires Read access).
    pub fn get_acl(&self, path: &str, creds: &Credentials) -> VfsResult<Option<Acl>> {
        self.charge(OpKind::Xattr, path, creds)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            match self.tables.with_inode(ino, |node| {
                if !check_access(
                    creds,
                    node.uid,
                    node.gid,
                    node.mode,
                    node.acl.as_ref(),
                    Access::Read,
                ) {
                    return Err(VfsError::new(Errno::EACCES, vp.as_str()));
                }
                Ok(node.acl.clone())
            }) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    // ----------------------------------------------------------------
    // Extended attributes (paper §5.1: arbitrary developer metadata; yanc
    // uses them to declare consistency requirements consumed by the DFS).
    // ----------------------------------------------------------------

    /// `setxattr(2)`-alike. Requires Write access to the object.
    pub fn set_xattr(
        &self,
        path: &str,
        name: &str,
        value: &[u8],
        creds: &Credentials,
    ) -> VfsResult<()> {
        self.charge(OpKind::Xattr, path, creds)?;
        if name.is_empty() || name.len() > NAME_MAX {
            return err(Errno::EINVAL, name);
        }
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, ino, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            node.xattrs.insert(name.to_string(), value.to_vec());
            node.ctime = now;
            self.jrnl(vp.as_str(), || Record::SetXattr {
                ino,
                name: name.to_string(),
                value: value.to_vec(),
                tick: now,
            });
            break;
        }
        self.notify.emit(EventKind::Attrib, &vp, None);
        Ok(())
    }

    /// `getxattr(2)`-alike; `ENODATA` when absent.
    pub fn get_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        self.charge(OpKind::Xattr, path, creds)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            match self.tables.with_inode(ino, |node| {
                if !check_access(
                    creds,
                    node.uid,
                    node.gid,
                    node.mode,
                    node.acl.as_ref(),
                    Access::Read,
                ) {
                    return Err(VfsError::new(Errno::EACCES, vp.as_str()));
                }
                node.xattrs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| VfsError::new(Errno::ENODATA, format!("{path}#{name}")))
            }) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// `listxattr(2)`-alike.
    pub fn list_xattr(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<String>> {
        self.charge(OpKind::Xattr, path, creds)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            match self.tables.with_inode(ino, |node| {
                if !check_access(
                    creds,
                    node.uid,
                    node.gid,
                    node.mode,
                    node.acl.as_ref(),
                    Access::Read,
                ) {
                    return Err(VfsError::new(Errno::EACCES, vp.as_str()));
                }
                Ok(node.xattrs.keys().cloned().collect::<Vec<String>>())
            }) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// `removexattr(2)`-alike; `ENODATA` when absent.
    pub fn remove_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Xattr, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, ino, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            if node.xattrs.remove(name).is_none() {
                return err(Errno::ENODATA, format!("{path}#{name}"));
            }
            node.ctime = now;
            self.jrnl(vp.as_str(), || Record::RemoveXattr {
                ino,
                name: name.to_string(),
                tick: now,
            });
            break;
        }
        self.notify.emit(EventKind::Attrib, &vp, None);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Directory operations
    // ----------------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Mkdir, path, creds)?;
        self.mkdir_common(None, path, mode, creds)
    }

    /// `mkdirat(2)`: create `rel` (relative; `EINVAL` if absolute) under
    /// the directory descriptor `dir`, paying resolution only for the
    /// relative components. Counted as one `mkdir` syscall.
    pub fn mkdirat(&self, dir: Fd, rel: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let dpath = match self.tables.with_handle(dir.0, |h| h.path.clone()) {
            Some(p) => p,
            None => return err(Errno::EBADF, rel),
        };
        self.charge(OpKind::Mkdir, dpath.join_path(rel).as_str(), creds)?;
        self.mkdir_common(Some(dir), rel, mode, creds)
    }

    /// Shared body of [`Self::mkdir`]/[`Self::mkdirat`]; the caller has
    /// charged the syscall.
    fn mkdir_common(
        &self,
        at: Option<Fd>,
        path: &str,
        mode: Mode,
        creds: &Credentials,
    ) -> VfsResult<()> {
        let vp = match at {
            None => VPath::new(path),
            Some(d) => {
                if path.starts_with('/') {
                    return err(Errno::EINVAL, path);
                }
                match self.tables.with_handle(d.0, |h| h.path.clone()) {
                    Some(dp) => dp.join_path(path),
                    None => return err(Errno::EBADF, path),
                }
            }
        };
        self.validate_mutation(&vp)?;
        let full = loop {
            let r = match at {
                None => self.resolve_live(&vp, creds, false)?,
                Some(d) => self.resolve_at(d, path, creds, false)?,
            };
            if r.name.is_empty() {
                return err(Errno::EEXIST, vp.as_str());
            }
            if !valid_name(&r.name) {
                return err(Errno::EINVAL, vp.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp.as_str());
            }
            let ino = self.tables.alloc_ino();
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)]);
            if !set.entry_is(r.parent_ino, &r.name, None) {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            if set.inode(r.parent_ino)?.dir_entries()?.len() >= self.limits.max_dir_entries {
                return err(Errno::EDQUOT, r.parent_path.as_str());
            }
            let now = self.clock.tick();
            set.insert_inode(
                ino,
                Inode {
                    kind: NodeKind::Dir {
                        entries: BTreeMap::new(),
                        parent: r.parent_ino,
                    },
                    mode: Mode(mode.0 & 0o7777),
                    uid: creds.uid,
                    gid: creds.gid,
                    nlink: 2,
                    mtime: now,
                    ctime: now,
                    xattrs: BTreeMap::new(),
                    acl: None,
                    open_count: 0,
                },
            );
            let parent = set.inode_mut(r.parent_ino)?;
            parent.dir_entries_mut()?.insert(r.name.clone(), ino);
            parent.nlink += 1;
            parent.mtime = now;
            let full = r.parent_path.join(&r.name);
            self.jrnl(full.as_str(), || Record::Mkdir {
                parent: r.parent_ino,
                name: r.name.clone(),
                ino,
                mode: Mode(mode.0 & 0o7777),
                uid: creds.uid,
                gid: creds.gid,
                tick: now,
            });
            self.bump_gen(r.parent_ino);
            break full;
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        self.run_hooks(vec![PendingHook::Mkdir(full)], creds);
        Ok(())
    }

    /// `mkdir -p`: create every missing ancestor; existing directories are
    /// fine, an existing non-directory is `ENOTDIR`/`EEXIST`.
    pub fn mkdir_all(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let vp = VPath::new(path);
        let mut cur = VPath::root();
        for comp in vp.components() {
            cur = cur.join(comp);
            match self.mkdir(cur.as_str(), mode, creds) {
                Ok(()) => {}
                Err(e) if e.errno == Errno::EEXIST => {
                    let st = self.stat(cur.as_str(), creds)?;
                    if !st.is_dir() {
                        return err(Errno::ENOTDIR, cur.as_str());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `rmdir(2)`. If a registered hook declares `path` recursively
    /// removable (paper: switch directories), the whole subtree is removed.
    pub fn rmdir(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Rmdir, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        let recursive =
            !HookDepth::active() && self.hooks.read().iter().any(|h| h.rmdir_recursive(&vp));
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let r = self.resolve_live(&vp, creds, false)?;
            if r.name.is_empty() {
                return err(Errno::EINVAL, vp.as_str()); // refusing to rmdir /
            }
            let ino = r
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vp.as_str()))?;
            // A recursive removal can touch inodes in any shard; take them
            // all. The common (non-recursive) case stays two shards wide.
            let mut set = if recursive {
                self.tables.lock_all()
            } else {
                self.tables
                    .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)])
            };
            if !set.entry_is(r.parent_ino, &r.name, Some(ino)) {
                drop(set);
                continue;
            }
            if set.inode(ino)?.file_type() != FileType::Directory {
                return err(Errno::ENOTDIR, vp.as_str());
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, r.parent_ino, ino, creds) {
                return err(Errno::EPERM, vp.as_str());
            }
            let empty = set.inode(ino)?.dir_entries()?.is_empty();
            if !empty && !recursive {
                return err(Errno::ENOTEMPTY, vp.as_str());
            }
            let full = r.parent_path.join(&r.name);
            if !empty {
                self.remove_tree(&mut set, ino, &full, &mut events)?;
            }
            let parent = set.inode_mut(r.parent_ino)?;
            parent.dir_entries_mut()?.remove(&r.name);
            parent.nlink -= 1;
            let now = self.clock.tick();
            parent.mtime = now;
            set.remove_inode(ino);
            self.jrnl(full.as_str(), || {
                if empty {
                    Record::Rmdir {
                        parent: r.parent_ino,
                        name: r.name.clone(),
                        tick: now,
                    }
                } else {
                    Record::RmTree {
                        parent: r.parent_ino,
                        name: r.name.clone(),
                        tick: now,
                    }
                }
            });
            // Retire the removed directory's (negative) dentries as well as
            // its entry under the parent.
            self.bump_gen(r.parent_ino);
            self.bump_gen(ino);
            events.push((EventKind::DeleteSelf, full.clone(), None));
            events.push((EventKind::Delete, full.clone(), Some(r.name.clone())));
            break events;
        };
        self.emit_all(events);
        Ok(())
    }

    /// Remove everything under `ino` (which stays in place), bottom-up,
    /// accumulating Delete events. Requires a lock-all [`ShardSet`].
    fn remove_tree(
        &self,
        set: &mut ShardSet,
        ino: Ino,
        path: &VPath,
        events: &mut Vec<PendingEvent>,
    ) -> VfsResult<()> {
        // Every dentry keyed under this directory dies with its contents.
        self.bump_gen(ino);
        let children: Vec<(String, Ino)> = set
            .inode(ino)?
            .dir_entries()?
            .iter()
            .map(|(n, i)| (n.clone(), *i))
            .collect();
        for (name, child) in children {
            let cpath = path.join(&name);
            let is_dir = matches!(set.inode(child)?.kind, NodeKind::Dir { .. });
            if is_dir {
                self.remove_tree(set, child, &cpath, events)?;
                set.remove_inode(child);
                let node = set.inode_mut(ino)?;
                node.nlink -= 1;
                node.dir_entries_mut()?.remove(&name);
            } else {
                let open = {
                    let cn = set.inode_mut(child)?;
                    cn.nlink = cn.nlink.saturating_sub(1);
                    cn.nlink > 0 || cn.open_count > 0
                };
                if !open {
                    set.remove_inode(child);
                }
                set.inode_mut(ino)?.dir_entries_mut()?.remove(&name);
            }
            events.push((EventKind::Delete, cpath, Some(name)));
        }
        Ok(())
    }

    /// `readdir(3)`: list a directory (requires Read access).
    pub fn readdir(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<DirEntry>> {
        self.pre_access(path);
        self.charge(OpKind::Readdir, path, creds)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let entries: Vec<(String, Ino)> = match self.tables.with_inode(ino, |node| {
                if !check_access(
                    creds,
                    node.uid,
                    node.gid,
                    node.mode,
                    node.acl.as_ref(),
                    Access::Read,
                ) {
                    return Err(VfsError::new(Errno::EACCES, vp.as_str()));
                }
                match node.dir_entries() {
                    Ok(e) => Ok(e.iter().map(|(n, i)| (n.clone(), *i)).collect()),
                    Err(_) => Err(VfsError::new(Errno::ENOTDIR, path)),
                }
            }) {
                Ok(r) => r?,
                Err(_) => continue,
            };
            // File types are a snapshot per entry; an entry whose inode
            // vanished mid-listing reports as a regular file, matching the
            // unlocked readdir/stat gap real applications live with.
            return Ok(entries
                .into_iter()
                .map(|(name, i)| {
                    let ft = self
                        .tables
                        .with_inode(i, |n| n.file_type())
                        .unwrap_or(FileType::Regular);
                    DirEntry {
                        name,
                        ino: i,
                        file_type: ft,
                    }
                })
                .collect());
        }
    }

    // ----------------------------------------------------------------
    // Symlinks & hard links
    // ----------------------------------------------------------------

    /// `symlink(2)`: create `linkpath` pointing at `target` (not required to
    /// exist). Registered hooks may veto schema-invalid links.
    pub fn symlink(&self, target: &str, linkpath: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Symlink, linkpath, creds)?;
        let vp = VPath::new(linkpath);
        self.validate_mutation(&vp)?;
        self.validate_with_hooks(|h| h.validate_symlink(self, &vp, target))?;
        let full = loop {
            let r = self.resolve_live(&vp, creds, false)?;
            if r.name.is_empty() || !valid_name(&r.name) {
                return err(Errno::EINVAL, vp.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp.as_str());
            }
            let ino = self.tables.alloc_ino();
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)]);
            if !set.entry_is(r.parent_ino, &r.name, None) {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            let now = self.clock.tick();
            set.insert_inode(
                ino,
                Inode {
                    kind: NodeKind::Symlink(target.to_string()),
                    mode: Mode::SYMLINK,
                    uid: creds.uid,
                    gid: creds.gid,
                    nlink: 1,
                    mtime: now,
                    ctime: now,
                    xattrs: BTreeMap::new(),
                    acl: None,
                    open_count: 0,
                },
            );
            let parent = set.inode_mut(r.parent_ino)?;
            parent.dir_entries_mut()?.insert(r.name.clone(), ino);
            parent.mtime = now;
            let full = r.parent_path.join(&r.name);
            self.jrnl(full.as_str(), || Record::Symlink {
                parent: r.parent_ino,
                name: r.name.clone(),
                ino,
                target: target.to_string(),
                uid: creds.uid,
                gid: creds.gid,
                tick: now,
            });
            self.bump_gen(r.parent_ino);
            break full;
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        Ok(())
    }

    /// `readlink(2)`.
    pub fn readlink(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        self.charge(OpKind::Readlink, path, creds)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, false)?;
            match self.tables.with_inode(ino, |node| match &node.kind {
                NodeKind::Symlink(t) => Ok(t.clone()),
                _ => Err(VfsError::new(Errno::EINVAL, path)),
            }) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// `link(2)`: hard link (regular files only, as on Linux).
    pub fn link(&self, existing: &str, newpath: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Link, newpath, creds)?;
        let vp_old = VPath::new(existing);
        let vp_new = VPath::new(newpath);
        self.validate_mutation(&vp_new)?;
        let full = loop {
            let src = self.lookup_live(&vp_old, creds, true)?;
            // Source-kind checks precede resolution of the new path (error
            // priority: linking a directory reports EPERM even when the new
            // path is bad).
            let probe = self
                .tables
                .with_inode(src, |n| (matches!(n.kind, NodeKind::File(_)), n.nlink));
            let (is_file, nlink) = match probe {
                Ok(v) => v,
                Err(_) => continue,
            };
            if !is_file {
                return err(Errno::EPERM, existing);
            }
            if nlink >= LINK_MAX {
                return err(Errno::EMLINK, existing);
            }
            let r = self.resolve_live(&vp_new, creds, false)?;
            if r.name.is_empty() || !valid_name(&r.name) {
                return err(Errno::EINVAL, vp_new.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp_new.as_str());
            }
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(src), LockKey::Ino(r.parent_ino)]);
            if !set.entry_is(r.parent_ino, &r.name, None) {
                drop(set);
                continue;
            }
            let src_ok = match set.inode(src) {
                Ok(node) => {
                    if !matches!(node.kind, NodeKind::File(_)) {
                        return err(Errno::EPERM, existing);
                    }
                    if node.nlink >= LINK_MAX {
                        return err(Errno::EMLINK, existing);
                    }
                    true
                }
                Err(_) => false, // source vanished: retry (may now be ENOENT)
            };
            if !src_ok {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            let now = self.clock.tick();
            {
                let node = set.inode_mut(src)?;
                node.nlink += 1;
                node.ctime = now;
            }
            let parent = set.inode_mut(r.parent_ino)?;
            parent.dir_entries_mut()?.insert(r.name.clone(), src);
            parent.mtime = now;
            let full = r.parent_path.join(&r.name);
            self.jrnl(full.as_str(), || Record::Link {
                parent: r.parent_ino,
                name: r.name.clone(),
                ino: src,
                tick: now,
            });
            self.bump_gen(r.parent_ino);
            break full;
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        Ok(())
    }

    // ----------------------------------------------------------------
    // File create / unlink / rename
    // ----------------------------------------------------------------

    /// `unlink(2)`.
    pub fn unlink(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Unlink, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let r = self.resolve_live(&vp, creds, false)?;
            let ino = r
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vp.as_str()))?;
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)]);
            if !set.entry_is(r.parent_ino, &r.name, Some(ino)) {
                drop(set);
                continue;
            }
            if matches!(set.inode(ino)?.kind, NodeKind::Dir { .. }) {
                return err(Errno::EISDIR, vp.as_str());
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, r.parent_ino, ino, creds) {
                return err(Errno::EPERM, vp.as_str());
            }
            let now = self.clock.tick();
            let parent = set.inode_mut(r.parent_ino)?;
            parent.dir_entries_mut()?.remove(&r.name);
            parent.mtime = now;
            let full = r.parent_path.join(&r.name);
            let node = set.inode_mut(ino)?;
            node.nlink -= 1;
            node.ctime = now;
            let gone = node.nlink == 0 && node.open_count == 0;
            if gone {
                set.remove_inode(ino);
                events.push((EventKind::DeleteSelf, full.clone(), None));
            }
            self.jrnl(full.as_str(), || Record::Unlink {
                parent: r.parent_ino,
                name: r.name.clone(),
                tick: now,
            });
            self.bump_gen(r.parent_ino);
            events.push((EventKind::Delete, full.clone(), Some(r.name.clone())));
            break events;
        };
        self.emit_all(events);
        Ok(())
    }

    /// `rename(2)`, with POSIX replace semantics: an existing target is
    /// atomically replaced when types are compatible (file→file,
    /// dir→empty dir); a directory cannot be moved into its own subtree.
    pub fn rename(&self, from: &str, to: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Rename, from, creds)?;
        let vf = VPath::new(from);
        let vt = VPath::new(to);
        self.validate_mutation(&vf)?;
        self.validate_mutation(&vt)?;
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let rf = self.resolve_live(&vf, creds, false)?;
            let src = rf
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vf.as_str()))?;
            if rf.name.is_empty() {
                return err(Errno::EINVAL, vf.as_str());
            }
            let rt = self.resolve_live(&vt, creds, false)?;
            if rt.name.is_empty() || !valid_name(&rt.name) {
                return err(Errno::EINVAL, vt.as_str());
            }
            let src_is_dir = match self
                .tables
                .with_inode(src, |n| matches!(n.kind, NodeKind::Dir { .. }))
            {
                Ok(b) => b,
                Err(_) => continue, // source vanished; retry resolves ENOENT
            };
            // Directory renames serialize on a dedicated mutex (the
            // in-process `s_vfs_rename_mutex`): the path-prefix cycle check
            // below is computed from two independent resolutions, and two
            // concurrent cross-directory renames could each pass it while
            // jointly detaching a cycle. Under the mutex, an inode-based
            // ancestry walk is race-free: no other directory can be
            // reparented while we hold it.
            let _rename_guard = if src_is_dir {
                Some(self.rename_lock.lock())
            } else {
                None
            };
            let mut cycle = false;
            if src_is_dir {
                let mut anc = rt.parent_ino;
                let mut hops = 0usize;
                loop {
                    if anc == src {
                        cycle = true;
                        break;
                    }
                    if anc == ROOT_INO || hops > PATH_MAX {
                        break;
                    }
                    anc = match self.tables.with_inode(anc, |n| match &n.kind {
                        NodeKind::Dir { parent, .. } => Some(*parent),
                        _ => None,
                    }) {
                        Ok(Some(p)) => p,
                        _ => break, // vanished: the entry verify below retries
                    };
                    hops += 1;
                }
            }
            let mut keys = vec![
                LockKey::Ino(rf.parent_ino),
                LockKey::Ino(rt.parent_ino),
                LockKey::Ino(src),
            ];
            if let Some(dst) = rt.target {
                keys.push(LockKey::Ino(dst));
            }
            let mut set = self.tables.lock(&keys);
            if !set.entry_is(rf.parent_ino, &rf.name, Some(src))
                || !set.entry_is(rt.parent_ino, &rt.name, rt.target)
            {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, rf.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, rf.parent_path.as_str());
            }
            if !Self::may_access_set(&set, rt.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, rt.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, rf.parent_ino, src, creds) {
                return err(Errno::EPERM, vf.as_str());
            }
            let src_full = rf.parent_path.join(&rf.name);
            let dst_full = rt.parent_path.join(&rt.name);
            if src_full == dst_full {
                return Ok(()); // no-op rename to self
            }
            if src_is_dir && (dst_full.starts_with(&src_full) || cycle) {
                return err(Errno::EINVAL, vt.as_str());
            }

            // Handle an existing destination.
            if let Some(dst) = rt.target {
                if dst == src {
                    return Ok(()); // hard links to the same inode: no-op
                }
                let dst_is_dir = matches!(set.inode(dst)?.kind, NodeKind::Dir { .. });
                match (src_is_dir, dst_is_dir) {
                    (true, false) => return err(Errno::ENOTDIR, vt.as_str()),
                    (false, true) => return err(Errno::EISDIR, vt.as_str()),
                    (true, true) => {
                        if !set.inode(dst)?.dir_entries()?.is_empty() {
                            return err(Errno::ENOTEMPTY, vt.as_str());
                        }
                        set.inode_mut(rt.parent_ino)?.nlink -= 1;
                        set.remove_inode(dst);
                    }
                    (false, false) => {
                        let node = set.inode_mut(dst)?;
                        node.nlink -= 1;
                        if node.nlink == 0 && node.open_count == 0 {
                            set.remove_inode(dst);
                        }
                    }
                }
                events.push((EventKind::Delete, dst_full.clone(), Some(rt.name.clone())));
            }

            let now = self.clock.tick();
            {
                let pf = set.inode_mut(rf.parent_ino)?;
                pf.dir_entries_mut()?.remove(&rf.name);
                pf.mtime = now;
            }
            {
                let pt = set.inode_mut(rt.parent_ino)?;
                pt.dir_entries_mut()?.insert(rt.name.clone(), src);
                pt.mtime = now;
            }
            if src_is_dir && rf.parent_ino != rt.parent_ino {
                // Fix `..` and parent link counts.
                set.inode_mut(rf.parent_ino)?.nlink -= 1;
                set.inode_mut(rt.parent_ino)?.nlink += 1;
                if let NodeKind::Dir { parent, .. } = &mut set.inode_mut(src)?.kind {
                    *parent = rt.parent_ino;
                }
            }
            set.inode_mut(src)?.ctime = now;
            self.jrnl(src_full.as_str(), || Record::Rename {
                from_parent: rf.parent_ino,
                from_name: rf.name.clone(),
                to_parent: rt.parent_ino,
                to_name: rt.name.clone(),
                tick: now,
            });
            // Both parents changed their entry sets; a replaced directory
            // additionally loses its own (negative) dentries. Entries keyed
            // under the *moved* inode stay warm on purpose — its
            // `(ino, component)` mappings are unaffected by the move.
            self.bump_gen(rf.parent_ino);
            self.bump_gen(rt.parent_ino);
            if let Some(dst) = rt.target {
                self.bump_gen(dst);
            }
            events.push((EventKind::MovedFrom, src_full, Some(rf.name.clone())));
            events.push((EventKind::MovedTo, dst_full, Some(rt.name.clone())));
            break events;
        };
        self.emit_all(events);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Open-file I/O
    // ----------------------------------------------------------------

    /// `open(2)`.
    pub fn open(&self, path: &str, flags: OpenFlags, creds: &Credentials) -> VfsResult<Fd> {
        self.pre_access(path);
        self.charge(OpKind::Open, path, creds)?;
        self.open_common(None, path, flags, creds, DirMode::Forbid)
    }

    /// Open a *directory* descriptor (`O_DIRECTORY`): the anchor for the
    /// descriptor-relative calls ([`Self::openat`], [`Self::mkdirat`],
    /// [`Self::readdir_fd`], [`Self::write_batch_at`]). Requires read
    /// permission on the directory; `ENOTDIR` if `path` is not one. The
    /// descriptor tracks the *inode*: renaming the directory does not
    /// invalidate it.
    pub fn open_dir(&self, path: &str, creds: &Credentials) -> VfsResult<Fd> {
        self.pre_access(path);
        self.charge(OpKind::Open, path, creds)?;
        self.open_common(None, path, OpenFlags::read_only(), creds, DirMode::Require)
    }

    /// `openat(2)`: open `rel` (a relative path; `EINVAL` if absolute)
    /// resolved from the directory descriptor `dir`. Only the relative
    /// components pay resolution hops — the prefix was resolved once at
    /// [`Self::open_dir`]. Flags behave exactly as in [`Self::open`].
    pub fn openat(
        &self,
        dir: Fd,
        rel: &str,
        flags: OpenFlags,
        creds: &Credentials,
    ) -> VfsResult<Fd> {
        let dpath = match self.tables.with_handle(dir.0, |h| h.path.clone()) {
            Some(p) => p,
            None => return err(Errno::EBADF, rel),
        };
        let full = dpath.join_path(rel);
        self.pre_access(full.as_str());
        self.charge(OpKind::Openat, full.as_str(), creds)?;
        self.open_common(Some(dir), rel, flags, creds, DirMode::Forbid)
    }

    /// [`Self::openat`] for a subdirectory: returns a new directory
    /// descriptor (`ENOTDIR` if `rel` is not a directory).
    pub fn openat_dir(&self, dir: Fd, rel: &str, creds: &Credentials) -> VfsResult<Fd> {
        let dpath = match self.tables.with_handle(dir.0, |h| h.path.clone()) {
            Some(p) => p,
            None => return err(Errno::EBADF, rel),
        };
        let full = dpath.join_path(rel);
        self.pre_access(full.as_str());
        self.charge(OpKind::Openat, full.as_str(), creds)?;
        self.open_common(
            Some(dir),
            rel,
            OpenFlags::read_only(),
            creds,
            DirMode::Require,
        )
    }

    /// Shared body of the path- and descriptor-relative opens. `at` set:
    /// `path` is relative and resolution starts at that descriptor's
    /// inode. The caller has already charged the syscall.
    fn open_common(
        &self,
        at: Option<Fd>,
        path: &str,
        flags: OpenFlags,
        creds: &Credentials,
        dir_mode: DirMode,
    ) -> VfsResult<Fd> {
        let vp = match at {
            None => VPath::new(path),
            Some(d) => {
                if path.starts_with('/') {
                    return err(Errno::EINVAL, path);
                }
                match self.tables.with_handle(d.0, |h| h.path.clone()) {
                    Some(dp) => dp.join_path(path),
                    None => return err(Errno::EBADF, path),
                }
            }
        };
        if flags.write || flags.create || flags.truncate || flags.append {
            self.validate_mutation(&vp)?;
        }
        // One slot in the global handle table, reserved up front (`ENFILE`)
        // and released by Drop on every error path below.
        let mut slot = HandleSlot::reserve(&self.tables, self.limits.max_open_files, vp.as_str())?;
        let (fd, created_path, modified) = 'attempt: loop {
            let r = match at {
                None => self.resolve_live(&vp, creds, true)?,
                Some(d) => self.resolve_at(d, path, creds, true)?,
            };
            let full = if r.name.is_empty() {
                r.parent_path.clone()
            } else {
                r.parent_path.join(&r.name)
            };
            let id = self.tables.alloc_fd();

            enum Plan {
                Existing {
                    ino: Ino,
                    /// The create path re-resolves after running hooks; a
                    /// target that raced into existence there is opened
                    /// without truncation (mirroring the original re-resolve
                    /// branch, which never truncated).
                    truncate_ok: bool,
                },
                Create {
                    parent: Ino,
                    parent_path: VPath,
                    name: String,
                    full: VPath,
                },
            }
            let plan = match r.target {
                Some(i) => {
                    if flags.create && flags.excl {
                        return err(Errno::EEXIST, vp.as_str());
                    }
                    Plan::Existing {
                        ino: i,
                        truncate_ok: true,
                    }
                }
                None => {
                    if !flags.create {
                        return err(Errno::ENOENT, vp.as_str());
                    }
                    if !valid_name(&r.name) {
                        return err(Errno::EINVAL, vp.as_str());
                    }
                    // validate_create hooks may read (or create!) the file;
                    // no locks are held here, so they may re-enter freely.
                    self.validate_with_hooks(|h| h.validate_create(self, &full))?;
                    let r2 = match at {
                        None => self.resolve_live(&vp, creds, true)?,
                        Some(d) => self.resolve_at(d, path, creds, true)?,
                    };
                    match r2.target {
                        Some(i) => {
                            if flags.excl {
                                return err(Errno::EEXIST, vp.as_str());
                            }
                            Plan::Existing {
                                ino: i,
                                truncate_ok: false,
                            }
                        }
                        None => Plan::Create {
                            parent: r2.parent_ino,
                            parent_path: r2.parent_path.clone(),
                            name: r2.name.clone(),
                            full: r2.parent_path.join(&r2.name),
                        },
                    }
                }
            };

            match plan {
                Plan::Existing { ino, truncate_ok } => {
                    let mut modified = false;
                    let mut set = self.tables.lock(&[LockKey::Ino(ino), LockKey::Fd(id)]);
                    let is_dir = match set.inode(ino) {
                        Ok(n) => matches!(n.kind, NodeKind::Dir { .. }),
                        Err(_) => {
                            drop(set);
                            continue 'attempt;
                        }
                    };
                    match (is_dir, dir_mode) {
                        (true, DirMode::Forbid) => return err(Errno::EISDIR, vp.as_str()),
                        (false, DirMode::Require) => return err(Errno::ENOTDIR, vp.as_str()),
                        _ => {}
                    }
                    if flags.read && !Self::may_access_set(&set, ino, creds, Access::Read) {
                        return err(Errno::EACCES, vp.as_str());
                    }
                    if flags.write && !Self::may_access_set(&set, ino, creds, Access::Write) {
                        return err(Errno::EACCES, vp.as_str());
                    }
                    if flags.truncate && flags.write && truncate_ok {
                        let now = self.clock.tick();
                        let node = set.inode_mut(ino)?;
                        if let NodeKind::File(d) = &mut node.kind {
                            if !d.is_empty() {
                                d.clear();
                                node.mtime = now;
                                modified = true;
                            }
                        }
                        if modified {
                            self.jrnl(vp.as_str(), || Record::Truncate {
                                ino,
                                len: 0,
                                tick: now,
                            });
                        }
                    }
                    // Per-uid handle budget, charged at the last fallible
                    // point so a failed open never leaks a slot.
                    self.rctl.charge_open(creds.uid.0, vp.as_str())?;
                    set.inode_mut(ino)?.open_count += 1;
                    let hpath = full.as_str().to_owned();
                    set.insert_handle_reserved(
                        id,
                        OpenFile {
                            ino,
                            flags,
                            offset: 0,
                            path: full,
                            wrote: false,
                            owner: creds.uid,
                        },
                    );
                    self.readpath
                        .publish_handle(id, ino, creds.uid, flags, hpath);
                    slot.commit();
                    break (Fd(id), None, modified);
                }
                Plan::Create {
                    parent,
                    parent_path,
                    name,
                    full: created,
                } => {
                    let ino = self.tables.alloc_ino();
                    let mut set = self.tables.lock(&[
                        LockKey::Ino(parent),
                        LockKey::Ino(ino),
                        LockKey::Fd(id),
                    ]);
                    if !set.entry_is(parent, &name, None) {
                        drop(set);
                        continue 'attempt;
                    }
                    if !Self::may_access_set(&set, parent, creds, Access::Write) {
                        return err(Errno::EACCES, parent_path.as_str());
                    }
                    if set.inode(parent)?.dir_entries()?.len() >= self.limits.max_dir_entries {
                        return err(Errno::EDQUOT, parent_path.as_str());
                    }
                    let now = self.clock.tick();
                    set.insert_inode(
                        ino,
                        Inode {
                            kind: NodeKind::File(Vec::new()),
                            mode: Mode::FILE_DEFAULT,
                            uid: creds.uid,
                            gid: creds.gid,
                            nlink: 1,
                            mtime: now,
                            ctime: now,
                            xattrs: BTreeMap::new(),
                            acl: None,
                            open_count: 0,
                        },
                    );
                    {
                        let p = set.inode_mut(parent)?;
                        p.dir_entries_mut()?.insert(name.clone(), ino);
                        p.mtime = now;
                    }
                    self.jrnl(created.as_str(), || Record::Create {
                        parent,
                        name: name.clone(),
                        ino,
                        uid: creds.uid,
                        gid: creds.gid,
                        data: Vec::new(),
                        tick: now,
                    });
                    self.bump_gen(parent);
                    self.rctl.charge_open(creds.uid.0, vp.as_str())?;
                    set.inode_mut(ino)?.open_count += 1;
                    let hpath = full.as_str().to_owned();
                    set.insert_handle_reserved(
                        id,
                        OpenFile {
                            ino,
                            flags,
                            offset: 0,
                            path: full,
                            wrote: false,
                            owner: creds.uid,
                        },
                    );
                    self.readpath
                        .publish_handle(id, ino, creds.uid, flags, hpath);
                    slot.commit();
                    break (Fd(id), Some(created), false);
                }
            }
        };
        if let Some(p) = &created_path {
            self.notify.emit(EventKind::Create, p, p.file_name());
            self.run_hooks(vec![PendingHook::Create(p.clone())], creds);
        }
        if modified {
            self.notify.emit(EventKind::Modify, &vp, None);
        }
        Ok(fd)
    }

    /// `read(2)`: up to `len` bytes from the handle's offset.
    pub fn read(&self, fd: Fd, len: usize) -> VfsResult<Vec<u8>> {
        // Warm path: one lock-free handle-block read replaces both
        // with_handle snapshots; the offset-advancing copy below keeps its
        // write locks (it mutates).
        let meta = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some(m),
            HandleRead::Fallback => None,
        };
        let (howner, hpath) = match &meta {
            Some(m) => (m.owner, m.path.clone()),
            None => self
                .tables
                .with_handle(fd.0, |h| (h.owner, h.path.as_str().to_owned()))
                .unwrap_or((Uid(0), String::new())),
        };
        self.charge_uid(OpKind::Read, &hpath, howner)?;
        let (ino, readable) = match &meta {
            Some(m) => (m.ino, m.flags.read),
            None => match self.tables.with_handle(fd.0, |h| (h.ino, h.flags.read)) {
                Some(v) => v,
                None => return err(Errno::EBADF, "fd"),
            },
        };
        if !readable {
            return err(Errno::EBADF, hpath);
        }
        // A handle's target inode never changes, so the fd→ino snapshot
        // above stays valid; only offset/data need the locks.
        let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
        let off = match set.handle(fd.0) {
            Some(h) => h.offset,
            None => return err(Errno::EBADF, "fd"), // closed concurrently
        };
        let data = match &set.inode(ino)?.kind {
            NodeKind::File(d) => {
                let start = (off as usize).min(d.len());
                let end = (start + len).min(d.len());
                d[start..end].to_vec()
            }
            _ => return err(Errno::EINVAL, "fd"),
        };
        let n = data.len() as u64;
        if let Some(h) = set.handle_mut(fd.0) {
            h.offset += n;
        }
        Ok(data)
    }

    /// `write(2)` at the handle's offset (end of file with `append`).
    pub fn write(&self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        let meta = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some(m),
            HandleRead::Fallback => None,
        };
        let (howner, hpath) = match &meta {
            Some(m) => (m.owner, m.path.clone()),
            None => self
                .tables
                .with_handle(fd.0, |h| (h.owner, h.path.as_str().to_owned()))
                .unwrap_or((Uid(0), String::new())),
        };
        self.charge_uid(OpKind::Write, &hpath, howner)?;
        let (ino, writable, append) = match &meta {
            Some(m) => (m.ino, m.flags.write, m.flags.append),
            None => match self
                .tables
                .with_handle(fd.0, |h| (h.ino, h.flags.write, h.flags.append))
            {
                Some(v) => v,
                None => return err(Errno::EBADF, "fd"),
            },
        };
        if !writable {
            return err(Errno::EBADF, hpath);
        }
        let path;
        {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            let h_off = match set.handle(fd.0) {
                Some(h) => h.offset,
                None => return err(Errno::EBADF, "fd"),
            };
            let off = if append {
                match &set.inode(ino)?.kind {
                    NodeKind::File(d) => d.len() as u64,
                    _ => return err(Errno::EINVAL, "fd"),
                }
            } else {
                h_off
            };
            let end = off as usize + data.len();
            if end as u64 > self.limits.max_file_size {
                return err(Errno::ENOSPC, "fd");
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            match &mut node.kind {
                NodeKind::File(d) => {
                    if d.len() < end {
                        d.resize(end, 0);
                    }
                    d[off as usize..end].copy_from_slice(data);
                    node.mtime = now;
                }
                _ => return err(Errno::EINVAL, "fd"),
            }
            let h = set.handle_mut(fd.0).expect("handle verified above");
            h.offset = end as u64;
            h.wrote = true;
            path = h.path.clone();
            self.jrnl(path.as_str(), || Record::Write {
                ino,
                offset: off,
                data: data.to_vec(),
                tick: now,
            });
        }
        self.notify.emit(EventKind::Modify, &path, None);
        Ok(data.len())
    }

    /// `lseek(2)` (absolute positioning only; returns the new offset).
    pub fn seek(&self, fd: Fd, offset: u64) -> VfsResult<u64> {
        let mut set = self.tables.lock(&[LockKey::Fd(fd.0)]);
        let h = set
            .handle_mut(fd.0)
            .ok_or_else(|| VfsError::new(Errno::EBADF, "fd"))?;
        h.offset = offset;
        Ok(offset)
    }

    /// `close(2)`. Emits `CloseWrite` (and fires `post_close_write` hooks)
    /// when the handle performed writes.
    pub fn close(&self, fd: Fd, creds: &Credentials) -> VfsResult<()> {
        let hpath = self
            .tables
            .with_handle(fd.0, |h| h.path.as_str().to_owned());
        self.count(OpKind::Close, hpath.as_deref().unwrap_or(""));
        let ino = match self.tables.with_handle(fd.0, |h| h.ino) {
            Some(i) => i,
            None => return err(Errno::EBADF, "fd"),
        };
        let (wrote, path);
        {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            let h = match set.remove_handle(fd.0) {
                Some(h) => h,
                None => return err(Errno::EBADF, "fd"), // double close race
            };
            self.readpath.close_handle(fd.0);
            self.rctl.release_open(h.owner.0);
            wrote = h.wrote;
            path = h.path.clone();
            // The inode may already be gone: rmdir removes an open
            // directory's inode outright (directories have no orphan
            // keep-alive). Closing such a descriptor is not an error.
            if let Ok(node) = set.inode_mut(h.ino) {
                node.open_count -= 1;
                if node.nlink == 0 && node.open_count == 0 {
                    set.remove_inode(h.ino);
                }
            }
        }
        if wrote {
            self.notify
                .emit(EventKind::CloseWrite, &path, path.file_name());
            self.run_hooks(vec![PendingHook::CloseWrite(path)], creds);
        }
        Ok(())
    }

    // ----------------------------------------------------------------
    // Descriptor-relative I/O (the fd fast path)
    // ----------------------------------------------------------------

    /// `pread(2)`: up to `len` bytes at `offset`, without moving the
    /// handle's offset. One charged `read` syscall.
    pub fn pread(&self, fd: Fd, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        // The fd→identity hop is lock-free when the handle block is warm;
        // only the data copy below still takes its shard read lock.
        let info = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some((m.owner, m.path, m.ino, m.flags.read)),
            HandleRead::Fallback => self.tables.with_handle(fd.0, |h| {
                (h.owner, h.path.as_str().to_owned(), h.ino, h.flags.read)
            }),
        };
        let (howner, hpath, ino, readable) = match info {
            Some(v) => v,
            None => return err(Errno::EBADF, "fd"),
        };
        self.charge_uid(OpKind::Read, &hpath, howner)?;
        if !readable {
            return err(Errno::EBADF, hpath);
        }
        match self.tables.with_inode(ino, |node| match &node.kind {
            NodeKind::File(d) => {
                let start = (offset as usize).min(d.len());
                let end = (start + len).min(d.len());
                Ok(d[start..end].to_vec())
            }
            _ => Err(VfsError::new(Errno::EISDIR, hpath.clone())),
        }) {
            Ok(r) => r,
            Err(_) => err(Errno::EBADF, "fd"),
        }
    }

    /// `pwrite(2)`: write `data` at `offset`, without moving the handle's
    /// offset. One charged `write` syscall.
    pub fn pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> VfsResult<usize> {
        let info = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some((m.owner, m.path, m.ino, m.flags.write)),
            HandleRead::Fallback => self.tables.with_handle(fd.0, |h| {
                (h.owner, h.path.as_str().to_owned(), h.ino, h.flags.write)
            }),
        };
        let (howner, hpath, ino, writable) = match info {
            Some(v) => v,
            None => return err(Errno::EBADF, "fd"),
        };
        self.charge_uid(OpKind::Write, &hpath, howner)?;
        if !writable {
            return err(Errno::EBADF, hpath);
        }
        let end = offset as usize + data.len();
        if end as u64 > self.limits.max_file_size {
            return err(Errno::ENOSPC, "fd");
        }
        let path;
        {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            if set.handle(fd.0).is_none() {
                return err(Errno::EBADF, "fd");
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            match &mut node.kind {
                NodeKind::File(d) => {
                    if d.len() < end {
                        d.resize(end, 0);
                    }
                    d[offset as usize..end].copy_from_slice(data);
                    node.mtime = now;
                }
                _ => return err(Errno::EISDIR, "fd"),
            }
            let h = set.handle_mut(fd.0).expect("handle verified above");
            h.wrote = true;
            path = h.path.clone();
            self.jrnl(path.as_str(), || Record::Write {
                ino,
                offset,
                data: data.to_vec(),
                tick: now,
            });
        }
        self.notify.emit(EventKind::Modify, &path, None);
        Ok(data.len())
    }

    /// `readv(2)`: scatter a sequential read from the handle's offset into
    /// segments of the requested sizes. One charged `read` syscall however
    /// many segments; the offset advances by the total bytes read. Short
    /// reads truncate the tail segments.
    pub fn readv(&self, fd: Fd, lens: &[usize]) -> VfsResult<Vec<Vec<u8>>> {
        let total: usize = lens.iter().sum();
        let data = self.read(fd, total)?;
        // read() charged one OpKind::Read; undo nothing — one syscall total.
        let mut out = Vec::with_capacity(lens.len());
        let mut at = 0usize;
        for &l in lens {
            let end = (at + l).min(data.len());
            out.push(data[at.min(data.len())..end].to_vec());
            at = end;
        }
        Ok(out)
    }

    /// `writev(2)`: gather-write the buffers at the handle's offset. One
    /// charged `write` syscall however many buffers.
    pub fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> VfsResult<usize> {
        let flat: Vec<u8> = bufs.concat();
        self.write(fd, &flat)
    }

    /// `fstat(2)`: stat through a descriptor — no path resolution at all.
    /// One charged `fstat` syscall.
    pub fn fstat(&self, fd: Fd) -> VfsResult<FileStat> {
        // A descriptor's identity (ino/owner/path) is immutable, so a warm
        // fstat is fully lock-free: handle block + attribute block.
        let (howner, hpath, ino) = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => (m.owner, m.path, m.ino),
            HandleRead::Fallback => {
                match self
                    .tables
                    .with_handle(fd.0, |h| (h.owner, h.path.as_str().to_owned(), h.ino))
                {
                    Some(v) => v,
                    None => return err(Errno::EBADF, "fd"),
                }
            }
        };
        self.charge_uid(OpKind::Fstat, &hpath, howner)?;
        if let AttrRead::Hit(st) = self.readpath.read_attr(&self.tables, ino) {
            return Ok(st);
        }
        self.stat_locked_and_fill(ino)
            .map_err(|_| VfsError::new(Errno::EBADF, hpath))
    }

    /// `fsync(2)` as yanc's *commit without close*: if the handle has
    /// written since open (or since the last fsync), fire the `CloseWrite`
    /// event and `post_close_write` hooks now, keeping the descriptor open
    /// for further writes. This is what lets a long-lived flow descriptor
    /// commit many updates without re-paying open/close.
    pub fn fsync(&self, fd: Fd, creds: &Credentials) -> VfsResult<()> {
        let info = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some((m.owner, m.path, m.ino)),
            HandleRead::Fallback => self
                .tables
                .with_handle(fd.0, |h| (h.owner, h.path.as_str().to_owned(), h.ino)),
        };
        let (howner, hpath, ino) = match info {
            Some(v) => v,
            None => return err(Errno::EBADF, "fd"),
        };
        self.charge_uid(OpKind::Fsync, &hpath, howner)?;
        let (wrote, path);
        {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            let h = match set.handle_mut(fd.0) {
                Some(h) => h,
                None => return err(Errno::EBADF, "fd"),
            };
            wrote = h.wrote;
            h.wrote = false;
            path = h.path.clone();
        }
        if wrote {
            self.notify
                .emit(EventKind::CloseWrite, &path, path.file_name());
            self.run_hooks(vec![PendingHook::CloseWrite(path)], creds);
        }
        Ok(())
    }

    /// `readdir` through a directory descriptor: no path resolution. One
    /// charged `readdir` syscall. Listing permission was checked when the
    /// descriptor was opened, as POSIX does.
    pub fn readdir_fd(&self, fd: Fd) -> VfsResult<Vec<DirEntry>> {
        let info = match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some((m.owner, m.path, m.ino)),
            HandleRead::Fallback => self
                .tables
                .with_handle(fd.0, |h| (h.owner, h.path.as_str().to_owned(), h.ino)),
        };
        let (howner, hpath, ino) = match info {
            Some(v) => v,
            None => return err(Errno::EBADF, "fd"),
        };
        self.charge_uid(OpKind::Readdir, &hpath, howner)?;
        let entries: Vec<(String, Ino)> = match self.tables.with_inode(ino, |node| {
            node.dir_entries()
                .map(|e| e.iter().map(|(n, i)| (n.clone(), *i)).collect())
                .map_err(|_| VfsError::new(Errno::ENOTDIR, hpath.clone()))
        }) {
            Ok(r) => r?,
            Err(_) => return err(Errno::ENOENT, hpath),
        };
        Ok(entries
            .into_iter()
            .map(|(name, i)| {
                // An inode's kind is immutable for the lifetime of its
                // number, so any completed attribute fill answers it even
                // when the block's stamp is stale — a warm listing costs
                // one lock for the entries snapshot and zero per entry.
                // A miss pays the locked read and fills the block.
                let ft = self.readpath.kind_of(i).unwrap_or_else(|| {
                    self.tables
                        .with_inode_at(i, |n, seq| {
                            let st = Self::stat_of(n, i);
                            self.readpath.publish_attr(seq, &st, n.acl.is_some());
                            st.file_type
                        })
                        .unwrap_or(FileType::Regular)
                });
                DirEntry {
                    name,
                    ino: i,
                    file_type: ft,
                }
            })
            .collect())
    }

    /// Vectored descriptor-relative write: **one** charged `write` syscall
    /// submits a whole batch of file writes relative to an open directory
    /// descriptor — the vectored-I/O principle applied at directory
    /// granularity (cf. io_uring submission batching). Each entry is
    /// created or replaced wholesale and committed, as if written by
    /// `open(write_create)` + `write` + `close`, emitting `Create` (for
    /// new files) and `CloseWrite`; entry names may be relative
    /// multi-component paths. Entries apply *in order* and the batch is
    /// not transactional: on error, earlier entries remain applied (their
    /// events already fired) and the error names the failing entry.
    ///
    /// This is the syscall-count lever of experiment E21: a flow install
    /// that costs ~28 path-addressed syscalls costs `mkdirat` +
    /// `write_batch_at` = 2 through a flows-directory descriptor, while
    /// staying fully introspectable as files (unlike the libyanc ring,
    /// which bypasses the fs entirely).
    pub fn write_batch_at(
        &self,
        dir: Fd,
        entries: &[(&str, &[u8])],
        creds: &Credentials,
    ) -> VfsResult<usize> {
        let dpath = match self.tables.with_handle(dir.0, |h| h.path.clone()) {
            Some(p) => p,
            None => return err(Errno::EBADF, "fd"),
        };
        self.charge(OpKind::Write, dpath.as_str(), creds)?;
        let mut events: Vec<PendingEvent> = Vec::new();
        let mut hooks: Vec<PendingHook> = Vec::new();
        let mut res = Ok(());
        let mut done = 0usize;
        for (rel, data) in entries {
            if let Err(e) = self.batch_write_one(dir, rel, data, creds, &mut events, &mut hooks) {
                res = Err(e);
                break;
            }
            done += 1;
        }
        self.emit_all(events);
        self.run_hooks(hooks, creds);
        res.map(|()| done)
    }

    /// One entry of [`Self::write_batch_at`]; gathers events/hooks for the
    /// caller to emit as a batch. Not charged.
    fn batch_write_one(
        &self,
        dir: Fd,
        rel: &str,
        data: &[u8],
        creds: &Credentials,
        events: &mut Vec<PendingEvent>,
        hooks: &mut Vec<PendingHook>,
    ) -> VfsResult<()> {
        if data.len() as u64 > self.limits.max_file_size {
            return err(Errno::ENOSPC, rel);
        }
        loop {
            let r = self.resolve_at(dir, rel, creds, true)?;
            if r.name.is_empty() {
                return err(Errno::EISDIR, rel);
            }
            let full = r.parent_path.join(&r.name);
            self.validate_mutation(&full)?;
            match r.target {
                Some(ino) => {
                    let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
                    match set.inode(ino) {
                        Err(_) => {
                            drop(set);
                            continue; // vanished: re-resolve
                        }
                        Ok(n) if !matches!(n.kind, NodeKind::File(_)) => {
                            return err(Errno::EISDIR, full.as_str());
                        }
                        Ok(_) => {}
                    }
                    if !Self::may_access_set(&set, ino, creds, Access::Write) {
                        return err(Errno::EACCES, full.as_str());
                    }
                    let now = self.clock.tick();
                    let node = set.inode_mut(ino)?;
                    if let NodeKind::File(d) = &mut node.kind {
                        *d = data.to_vec();
                        node.mtime = now;
                    }
                    self.jrnl(full.as_str(), || Record::SetContent {
                        ino,
                        data: data.to_vec(),
                        tick: now,
                    });
                    drop(set);
                    events.push((EventKind::Modify, full.clone(), None));
                    events.push((
                        EventKind::CloseWrite,
                        full.clone(),
                        full.file_name().map(str::to_string),
                    ));
                    hooks.push(PendingHook::CloseWrite(full));
                    return Ok(());
                }
                None => {
                    if !valid_name(&r.name) {
                        return err(Errno::EINVAL, rel);
                    }
                    self.validate_with_hooks(|h| h.validate_create(self, &full))?;
                    let ino = self.tables.alloc_ino();
                    let mut set = self
                        .tables
                        .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)]);
                    if !set.entry_is(r.parent_ino, &r.name, None) {
                        drop(set);
                        continue;
                    }
                    if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                        return err(Errno::EACCES, r.parent_path.as_str());
                    }
                    if set.inode(r.parent_ino)?.dir_entries()?.len() >= self.limits.max_dir_entries
                    {
                        return err(Errno::EDQUOT, r.parent_path.as_str());
                    }
                    let now = self.clock.tick();
                    set.insert_inode(
                        ino,
                        Inode {
                            kind: NodeKind::File(data.to_vec()),
                            mode: Mode::FILE_DEFAULT,
                            uid: creds.uid,
                            gid: creds.gid,
                            nlink: 1,
                            mtime: now,
                            ctime: now,
                            xattrs: BTreeMap::new(),
                            acl: None,
                            open_count: 0,
                        },
                    );
                    let p = set.inode_mut(r.parent_ino)?;
                    p.dir_entries_mut()?.insert(r.name.clone(), ino);
                    p.mtime = now;
                    self.jrnl(full.as_str(), || Record::Create {
                        parent: r.parent_ino,
                        name: r.name.clone(),
                        ino,
                        uid: creds.uid,
                        gid: creds.gid,
                        data: data.to_vec(),
                        tick: now,
                    });
                    self.bump_gen(r.parent_ino);
                    drop(set);
                    let name = full.file_name().map(str::to_string);
                    events.push((EventKind::Create, full.clone(), name.clone()));
                    events.push((EventKind::CloseWrite, full.clone(), name));
                    hooks.push(PendingHook::Create(full.clone()));
                    hooks.push(PendingHook::CloseWrite(full));
                    return Ok(());
                }
            }
        }
    }

    /// `truncate(2)` by path.
    pub fn truncate(&self, path: &str, len: u64, creds: &Credentials) -> VfsResult<()> {
        self.charge(OpKind::Truncate, path, creds)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        loop {
            let ino = self.lookup_live(&vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            if set.inode(ino).is_err() {
                drop(set);
                continue;
            }
            if !Self::may_access_set(&set, ino, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            if len > self.limits.max_file_size {
                return err(Errno::ENOSPC, vp.as_str());
            }
            let now = self.clock.tick();
            let node = set.inode_mut(ino)?;
            match &mut node.kind {
                NodeKind::File(d) => {
                    d.resize(len as usize, 0);
                    node.mtime = now;
                }
                NodeKind::Dir { .. } => return err(Errno::EISDIR, vp.as_str()),
                NodeKind::Symlink(_) => return err(Errno::EINVAL, vp.as_str()),
            }
            self.jrnl(vp.as_str(), || Record::Truncate {
                ino,
                len,
                tick: now,
            });
            break;
        }
        self.notify.emit(EventKind::Modify, &vp, None);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Whole-file convenience (each layer counts its constituent syscalls,
    // like a real open/write/close sequence would)
    // ----------------------------------------------------------------

    /// Read a whole file. The read is sized by a preceding `stat`, so
    /// bytes appended concurrently between the two calls are not observed
    /// (matching the common `stat`+`read` user-space pattern).
    pub fn read_file(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read_only(), creds)?;
        let size = {
            // One read sized by stat, one close: 3 "syscalls" total with the
            // open — the realistic small-file sequence.
            let st = self.stat(path, creds)?;
            st.size as usize
        };
        let out = self.read(fd, size.max(1));
        let _ = self.close(fd, creds);
        out
    }

    /// Read a whole file as UTF-8 (lossy).
    pub fn read_to_string(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        Ok(String::from_utf8_lossy(&self.read_file(path, creds)?).into_owned())
    }

    /// Create/truncate `path` and write `data` — the `echo x > file` shape.
    pub fn write_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        let fd = self.open(path, OpenFlags::write_create(), creds)?;
        let r = self.write(fd, data);
        let c = self.close(fd, creds);
        r?;
        c
    }

    /// Append `data` to `path`, creating it if needed (`echo x >> file`).
    pub fn append_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        let fd = self.open(path, OpenFlags::append_create(), creds)?;
        let r = self.write(fd, data);
        let c = self.close(fd, creds);
        r?;
        c
    }

    // ----------------------------------------------------------------
    // Structural audit
    // ----------------------------------------------------------------

    /// Audit the whole tree under a global lock: link counts, reachability,
    /// `..` parent pointers, and open-handle accounting. Returns a summary
    /// when every law holds, or a description of the first violation. The
    /// concurrency suites call this after racing mutations to assert that no
    /// interleaving can corrupt the tree.
    pub fn check_invariants(&self) -> Result<FsCheckReport, String> {
        let set = self.tables.lock_all();
        let all = set.all_inos();

        // Walk the tree from the root, counting directory-entry references
        // and subdirectories, and checking `..` pointers.
        let mut entry_refs: HashMap<u64, u32> = HashMap::new();
        let mut subdirs: HashMap<u64, u32> = HashMap::new();
        let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
        seen.insert(ROOT_INO.0);
        let mut stack = vec![ROOT_INO];
        while let Some(d) = stack.pop() {
            let entries: Vec<(String, Ino)> = match set.inode(d) {
                Ok(node) => match node.dir_entries() {
                    Ok(e) => e.iter().map(|(n, i)| (n.clone(), *i)).collect(),
                    Err(_) => return Err(format!("non-directory inode {} on the dir walk", d.0)),
                },
                Err(_) => return Err(format!("directory inode {} vanished mid-walk", d.0)),
            };
            for (name, child) in entries {
                *entry_refs.entry(child.0).or_insert(0) += 1;
                let cnode = set.inode(child).map_err(|_| {
                    format!(
                        "entry '{name}' in dir {} points at missing inode {}",
                        d.0, child.0
                    )
                })?;
                if let NodeKind::Dir { parent, .. } = &cnode.kind {
                    *subdirs.entry(d.0).or_insert(0) += 1;
                    if parent.0 != d.0 {
                        return Err(format!(
                            "dir {} has parent pointer {} but lives in {}",
                            child.0, parent.0, d.0
                        ));
                    }
                    if !seen.insert(child.0) {
                        return Err(format!("dir {} reachable via two paths", child.0));
                    }
                    stack.push(child);
                } else {
                    seen.insert(child.0);
                }
            }
        }

        // Per-inode open-handle tallies from the handle table.
        let mut open_by_ino: HashMap<u64, u32> = HashMap::new();
        for ino in set.handle_targets() {
            *open_by_ino.entry(ino.0).or_insert(0) += 1;
        }

        let (mut dirs, mut files, mut symlinks, mut orphans) = (0usize, 0usize, 0usize, 0usize);
        for raw in &all {
            let ino = Ino(*raw);
            let node = set
                .inode(ino)
                .map_err(|_| format!("inode {raw} vanished mid-audit"))?;
            let refs = entry_refs.get(raw).copied().unwrap_or(0);
            let opens = open_by_ino.get(raw).copied().unwrap_or(0);
            if node.open_count != opens {
                return Err(format!(
                    "inode {raw}: open_count {} but {} live handles target it",
                    node.open_count, opens
                ));
            }
            match &node.kind {
                NodeKind::Dir { .. } => {
                    dirs += 1;
                    if !seen.contains(raw) {
                        return Err(format!("directory {raw} unreachable from the root"));
                    }
                    let expect = 2 + subdirs.get(raw).copied().unwrap_or(0);
                    if node.nlink != expect {
                        return Err(format!(
                            "dir {raw}: nlink {} but expected {} (2 + subdirs)",
                            node.nlink, expect
                        ));
                    }
                    if *raw != ROOT_INO.0 && refs != 1 {
                        return Err(format!("dir {raw} referenced by {refs} entries"));
                    }
                }
                NodeKind::File(_) => {
                    if refs == 0 {
                        if node.nlink != 0 || node.open_count == 0 {
                            return Err(format!(
                                "file {raw} unreachable with nlink {} open_count {}",
                                node.nlink, node.open_count
                            ));
                        }
                        orphans += 1;
                    } else {
                        files += 1;
                        if node.nlink != refs {
                            return Err(format!(
                                "file {raw}: nlink {} but {refs} directory entries",
                                node.nlink
                            ));
                        }
                    }
                }
                NodeKind::Symlink(_) => {
                    symlinks += 1;
                    if refs != 1 || node.nlink != 1 {
                        return Err(format!(
                            "symlink {raw}: {refs} entry refs, nlink {}",
                            node.nlink
                        ));
                    }
                }
            }
        }
        let handles = set.total_handles();
        if handles != self.tables.handle_count() {
            return Err(format!(
                "handle table holds {handles} entries but the counter says {}",
                self.tables.handle_count()
            ));
        }
        Ok(FsCheckReport {
            inodes: all.len(),
            directories: dirs,
            files,
            symlinks,
            orphans_held_open: orphans,
            handles,
        })
    }
}

/// Fluent construction of a notify watch; see [`Filesystem::watch`].
///
/// Defaults: direct-children scope, [`EventMask::ALL`], unowned (no budget
/// check, not reclaimed with any uid). `.as_creds`/`.as_uid` charge the
/// watch to a uid, enforcing its `max_watches` budget on `register`.
pub struct WatchBuilder<'fs> {
    fs: &'fs Filesystem,
    path: VPath,
    subtree: bool,
    mask: EventMask,
    creds: Option<Credentials>,
}

impl WatchBuilder<'_> {
    /// Watch the whole subtree (fanotify-style) instead of the path and
    /// its direct children.
    pub fn subtree(mut self) -> Self {
        self.subtree = true;
        self
    }

    /// Restrict the event kinds delivered.
    pub fn mask(mut self, mask: EventMask) -> Self {
        self.mask = mask;
        self
    }

    /// Charge the watch descriptor to `creds.uid` (budgeted, reclaimable).
    pub fn as_creds(mut self, creds: &Credentials) -> Self {
        self.creds = Some(creds.clone());
        self
    }

    /// Charge the watch descriptor to `uid` (budgeted, reclaimable).
    pub fn as_uid(self, uid: u32) -> Self {
        self.as_creds(&Credentials::user(uid, uid))
    }

    /// Register the watch. `EMFILE` when an owning uid is at its
    /// `max_watches` budget. The returned guard unwatches on drop.
    pub fn register(self) -> VfsResult<WatchGuard> {
        let (id, rx) = match &self.creds {
            Some(creds) => {
                self.fs.check_watch_budget(creds, self.path.as_str())?;
                if self.subtree {
                    self.fs
                        .notify
                        .watch_subtree_owned(&self.path, self.mask, creds.uid.0)
                } else {
                    self.fs
                        .notify
                        .watch_path_owned(&self.path, self.mask, creds.uid.0)
                }
            }
            None => {
                if self.subtree {
                    self.fs.notify.watch_subtree(&self.path, self.mask)
                } else {
                    self.fs.notify.watch_path(&self.path, self.mask)
                }
            }
        };
        Ok(WatchGuard {
            hub: self.fs.notify.clone(),
            id,
            rx,
            armed: true,
        })
    }
}

/// A registered watch that unwatches itself on drop.
///
/// Obtained from [`WatchBuilder::register`]. The receiver is borrowed with
/// [`WatchGuard::receiver`] (clone it to feed a
/// [`PollSet`](crate::poll::PollSet)); [`WatchGuard::forget`] detaches the
/// raw `(WatchId, Receiver)` pair for code that manages lifetime manually.
pub struct WatchGuard {
    hub: Arc<NotifyHub>,
    id: WatchId,
    rx: Receiver<Event>,
    /// Cleared by [`WatchGuard::forget`]: drop no longer unwatches.
    armed: bool,
}

impl WatchGuard {
    /// The watch descriptor.
    pub fn id(&self) -> WatchId {
        self.id
    }

    /// The event channel. Clone it to register with a poll set; the watch
    /// itself stays tied to this guard's lifetime.
    pub fn receiver(&self) -> &Receiver<Event> {
        &self.rx
    }

    /// Whether events are queued (level-triggered readiness).
    pub fn ready(&self) -> bool {
        !self.rx.is_empty()
    }

    /// Detach: cancel the drop-unwatch and hand back the raw parts.
    pub fn forget(self) -> (WatchId, Receiver<Event>) {
        let mut this = self;
        this.armed = false;
        (this.id, this.rx.clone())
    }
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        if self.armed {
            self.hub.unwatch(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Filesystem {
        Filesystem::new()
    }

    fn root() -> Credentials {
        Credentials::root()
    }

    #[test]
    fn root_exists_and_stats() {
        let f = fs();
        let st = f.stat("/", &root()).unwrap();
        assert!(st.is_dir());
        assert_eq!(st.ino, ROOT_INO);
        assert_eq!(st.nlink, 2);
    }

    #[test]
    fn mkdir_and_readdir() {
        let f = fs();
        f.mkdir("/net", Mode::DIR_DEFAULT, &root()).unwrap();
        f.mkdir("/net/switches", Mode::DIR_DEFAULT, &root())
            .unwrap();
        let names: Vec<String> = f
            .readdir("/net", &root())
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["switches"]);
        assert!(f.stat("/net/switches", &root()).unwrap().is_dir());
    }

    #[test]
    fn mkdir_errors() {
        let f = fs();
        f.mkdir("/a", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(
            f.mkdir("/a", Mode::DIR_DEFAULT, &root()).unwrap_err().errno,
            Errno::EEXIST
        );
        assert_eq!(
            f.mkdir("/missing/x", Mode::DIR_DEFAULT, &root())
                .unwrap_err()
                .errno,
            Errno::ENOENT
        );
        f.write_file("/a/f", b"x", &root()).unwrap();
        assert_eq!(
            f.mkdir("/a/f/sub", Mode::DIR_DEFAULT, &root())
                .unwrap_err()
                .errno,
            Errno::ENOTDIR
        );
    }

    #[test]
    fn mkdir_all_idempotent() {
        let f = fs();
        f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
            .unwrap();
        assert!(f.stat("/net/switches/sw1/flows", &root()).unwrap().is_dir());
        f.write_file("/net/file", b"", &root()).unwrap();
        assert!(f
            .mkdir_all("/net/file/x", Mode::DIR_DEFAULT, &root())
            .is_err());
    }

    #[test]
    fn file_write_read_roundtrip() {
        let f = fs();
        f.write_file("/hello", b"world", &root()).unwrap();
        assert_eq!(f.read_file("/hello", &root()).unwrap(), b"world");
        assert_eq!(f.read_to_string("/hello", &root()).unwrap(), "world");
        let st = f.stat("/hello", &root()).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 5);
    }

    #[test]
    fn append_and_truncate() {
        let f = fs();
        f.write_file("/log", b"a", &root()).unwrap();
        f.append_file("/log", b"b", &root()).unwrap();
        assert_eq!(f.read_file("/log", &root()).unwrap(), b"ab");
        f.truncate("/log", 1, &root()).unwrap();
        assert_eq!(f.read_file("/log", &root()).unwrap(), b"a");
        f.truncate("/log", 3, &root()).unwrap();
        assert_eq!(f.read_file("/log", &root()).unwrap(), b"a\0\0");
    }

    #[test]
    fn open_flags_semantics() {
        let f = fs();
        f.write_file("/f", b"data", &root()).unwrap();
        // excl on existing file
        let mut fl = OpenFlags::write_create();
        fl.excl = true;
        assert_eq!(f.open("/f", fl, &root()).unwrap_err().errno, Errno::EEXIST);
        // read on missing file
        assert_eq!(
            f.open("/missing", OpenFlags::read_only(), &root())
                .unwrap_err()
                .errno,
            Errno::ENOENT
        );
        // writing via read-only handle
        let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
        assert_eq!(f.write(fd, b"x").unwrap_err().errno, Errno::EBADF);
        f.close(fd, &root()).unwrap();
        // reading via write-only handle
        let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
        assert_eq!(f.read(fd, 1).unwrap_err().errno, Errno::EBADF);
        f.close(fd, &root()).unwrap();
        // double close
        assert_eq!(f.close(fd, &root()).unwrap_err().errno, Errno::EBADF);
    }

    #[test]
    fn partial_reads_and_seek() {
        let f = fs();
        f.write_file("/f", b"abcdef", &root()).unwrap();
        let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
        assert_eq!(f.read(fd, 2).unwrap(), b"ab");
        assert_eq!(f.read(fd, 2).unwrap(), b"cd");
        f.seek(fd, 1).unwrap();
        assert_eq!(f.read(fd, 100).unwrap(), b"bcdef");
        assert_eq!(f.read(fd, 10).unwrap(), b"");
        f.close(fd, &root()).unwrap();
    }

    #[test]
    fn unlink_semantics() {
        let f = fs();
        f.write_file("/f", b"x", &root()).unwrap();
        f.unlink("/f", &root()).unwrap();
        assert!(!f.exists("/f", &root()));
        assert_eq!(f.unlink("/f", &root()).unwrap_err().errno, Errno::ENOENT);
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(f.unlink("/d", &root()).unwrap_err().errno, Errno::EISDIR);
    }

    #[test]
    fn unlink_while_open_keeps_content_until_close() {
        let f = fs();
        f.write_file("/f", b"keep", &root()).unwrap();
        let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
        f.unlink("/f", &root()).unwrap();
        assert!(!f.exists("/f", &root()));
        assert_eq!(f.read(fd, 10).unwrap(), b"keep");
        f.close(fd, &root()).unwrap();
    }

    #[test]
    fn rmdir_requires_empty_without_hook() {
        let f = fs();
        f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(f.rmdir("/d", &root()).unwrap_err().errno, Errno::ENOTEMPTY);
        f.rmdir("/d/sub", &root()).unwrap();
        f.rmdir("/d", &root()).unwrap();
        assert!(!f.exists("/d", &root()));
        assert_eq!(f.rmdir("/", &root()).unwrap_err().errno, Errno::EINVAL);
    }

    struct RecursiveSwitches;
    impl SemanticHook for RecursiveSwitches {
        fn rmdir_recursive(&self, path: &VPath) -> bool {
            path.as_str().starts_with("/switches/")
        }
    }

    #[test]
    fn hook_makes_rmdir_recursive() {
        let f = fs();
        f.add_hook(Arc::new(RecursiveSwitches));
        f.mkdir_all("/switches/sw1/flows/f1", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.write_file("/switches/sw1/flows/f1/version", b"1", &root())
            .unwrap();
        f.rmdir("/switches/sw1", &root()).unwrap();
        assert!(!f.exists("/switches/sw1", &root()));
        // Non-hooked dirs keep POSIX semantics.
        f.mkdir_all("/other/sub", Mode::DIR_DEFAULT, &root())
            .unwrap();
        assert_eq!(
            f.rmdir("/other", &root()).unwrap_err().errno,
            Errno::ENOTEMPTY
        );
    }

    #[test]
    fn symlink_readlink_and_follow() {
        let f = fs();
        f.mkdir_all("/a/b", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/a/b/file", b"via-link", &root()).unwrap();
        f.symlink("/a/b", "/lnk", &root()).unwrap();
        assert_eq!(f.readlink("/lnk", &root()).unwrap(), "/a/b");
        assert_eq!(f.read_file("/lnk/file", &root()).unwrap(), b"via-link");
        let st = f.lstat("/lnk", &root()).unwrap();
        assert!(st.is_symlink());
        let st2 = f.stat("/lnk", &root()).unwrap();
        assert!(st2.is_dir());
        assert_eq!(
            f.readlink("/a/b/file", &root()).unwrap_err().errno,
            Errno::EINVAL
        );
    }

    #[test]
    fn dangling_symlink_and_loop() {
        let f = fs();
        f.symlink("/nowhere", "/dangling", &root()).unwrap();
        assert_eq!(
            f.stat("/dangling", &root()).unwrap_err().errno,
            Errno::ENOENT
        );
        assert!(f.lstat("/dangling", &root()).is_ok());
        f.symlink("/loop2", "/loop1", &root()).unwrap();
        f.symlink("/loop1", "/loop2", &root()).unwrap();
        assert_eq!(f.stat("/loop1", &root()).unwrap_err().errno, Errno::ELOOP);
    }

    #[test]
    fn symlink_chain_resolves_at_exactly_max_hops_and_eloops_one_past() {
        let f = fs();
        f.write_file("/target", b"end", &root()).unwrap();
        f.symlink("/target", "/s1", &root()).unwrap();
        for i in 2..=(MAX_SYMLINK_HOPS + 1) {
            f.symlink(&format!("/s{}", i - 1), &format!("/s{i}"), &root())
                .unwrap();
        }
        // Resolving /sN traverses exactly N links: the bound is inclusive.
        assert_eq!(
            f.read_file(&format!("/s{MAX_SYMLINK_HOPS}"), &root())
                .unwrap(),
            b"end"
        );
        assert_eq!(
            f.stat(&format!("/s{}", MAX_SYMLINK_HOPS + 1), &root())
                .unwrap_err()
                .errno,
            Errno::ELOOP
        );
    }

    #[test]
    fn relative_symlink_resolution() {
        let f = fs();
        f.mkdir_all("/net/switches/sw1/ports/p1", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.mkdir_all("/net/switches/sw2/ports/p2", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.write_file("/net/switches/sw2/ports/p2/status", b"up", &root())
            .unwrap();
        // peer -> ../../../sw2/ports/p2, relative to p1 (the dir holding the
        // link): p1 -> ports -> sw1 -> switches, then down into sw2.
        f.symlink(
            "../../../sw2/ports/p2",
            "/net/switches/sw1/ports/p1/peer",
            &root(),
        )
        .unwrap();
        assert_eq!(
            f.read_file("/net/switches/sw1/ports/p1/peer/status", &root())
                .unwrap(),
            b"up"
        );
        assert_eq!(
            f.canonicalize("/net/switches/sw1/ports/p1/peer", &root())
                .unwrap()
                .as_str(),
            "/net/switches/sw2/ports/p2"
        );
    }

    struct PortsOnly;
    impl SemanticHook for PortsOnly {
        fn validate_symlink(&self, _fs: &Filesystem, path: &VPath, target: &str) -> VfsResult<()> {
            if path.file_name() == Some("peer") && !target.contains("/ports/") {
                return err(Errno::EINVAL, path.as_str());
            }
            Ok(())
        }
    }

    #[test]
    fn hook_vetoes_bad_symlink() {
        let f = fs();
        f.add_hook(Arc::new(PortsOnly));
        f.mkdir_all("/sw/ports/p1", Mode::DIR_DEFAULT, &root())
            .unwrap();
        assert_eq!(
            f.symlink("/sw", "/sw/ports/p1/peer", &root())
                .unwrap_err()
                .errno,
            Errno::EINVAL
        );
        f.symlink("/sw/ports/p2", "/sw/ports/p1/peer", &root())
            .unwrap();
    }

    #[test]
    fn hard_links_share_content() {
        let f = fs();
        f.write_file("/f", b"one", &root()).unwrap();
        f.link("/f", "/g", &root()).unwrap();
        assert_eq!(f.stat("/f", &root()).unwrap().nlink, 2);
        f.write_file("/g", b"two", &root()).unwrap();
        assert_eq!(f.read_file("/f", &root()).unwrap(), b"two");
        f.unlink("/f", &root()).unwrap();
        assert_eq!(f.read_file("/g", &root()).unwrap(), b"two");
        assert_eq!(f.stat("/g", &root()).unwrap().nlink, 1);
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(
            f.link("/d", "/d2", &root()).unwrap_err().errno,
            Errno::EPERM
        );
    }

    #[test]
    fn rename_file_basic_and_replace() {
        let f = fs();
        f.write_file("/a", b"a", &root()).unwrap();
        f.rename("/a", "/b", &root()).unwrap();
        assert!(!f.exists("/a", &root()));
        assert_eq!(f.read_file("/b", &root()).unwrap(), b"a");
        f.write_file("/c", b"c", &root()).unwrap();
        f.rename("/c", "/b", &root()).unwrap();
        assert_eq!(f.read_file("/b", &root()).unwrap(), b"c");
    }

    #[test]
    fn rename_dir_rules() {
        let f = fs();
        f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
        // Cannot move a directory into its own subtree.
        assert_eq!(
            f.rename("/d", "/d/sub/d2", &root()).unwrap_err().errno,
            Errno::EINVAL
        );
        // dir onto non-empty dir fails
        f.mkdir_all("/e/x", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(
            f.rename("/d", "/e", &root()).unwrap_err().errno,
            Errno::ENOTEMPTY
        );
        // dir onto empty dir replaces
        f.mkdir("/empty", Mode::DIR_DEFAULT, &root()).unwrap();
        f.rename("/d", "/empty", &root()).unwrap();
        assert!(f.exists("/empty/sub", &root()));
        // file onto dir / dir onto file mismatches
        f.write_file("/file", b"", &root()).unwrap();
        assert_eq!(
            f.rename("/file", "/empty", &root()).unwrap_err().errno,
            Errno::EISDIR
        );
        assert_eq!(
            f.rename("/empty", "/file", &root()).unwrap_err().errno,
            Errno::ENOTDIR
        );
    }

    #[test]
    fn rename_dir_across_parents_fixes_dotdot() {
        let f = fs();
        f.mkdir_all("/p1/d/inner", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.mkdir("/p2", Mode::DIR_DEFAULT, &root()).unwrap();
        f.rename("/p1/d", "/p2/d", &root()).unwrap();
        f.write_file("/p2/marker", b"m", &root()).unwrap();
        // `..` from the moved directory must now reach /p2.
        assert_eq!(f.read_file("/p2/d/../marker", &root()).unwrap(), b"m");
    }

    #[test]
    fn permissions_enforced_for_non_root() {
        let f = fs();
        let alice = Credentials::user(1000, 1000);
        let bob = Credentials::user(1001, 1001);
        f.mkdir("/shared", Mode(0o777), &root()).unwrap();
        f.write_file("/shared/secret", b"s", &root()).unwrap();
        f.chown("/shared/secret", Some(Uid(1000)), Some(Gid(1000)), &root())
            .unwrap();
        f.chmod("/shared/secret", Mode(0o600), &root()).unwrap();
        assert_eq!(f.read_file("/shared/secret", &alice).unwrap(), b"s");
        assert_eq!(
            f.read_file("/shared/secret", &bob).unwrap_err().errno,
            Errno::EACCES
        );
        assert_eq!(
            f.write_file("/shared/secret", b"x", &bob)
                .unwrap_err()
                .errno,
            Errno::EACCES
        );
        // Directory exec required for traversal.
        f.mkdir("/locked", Mode(0o700), &root()).unwrap();
        f.write_file("/locked/f", b"", &root()).unwrap();
        assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
        // Directory write required for create.
        f.mkdir("/ro", Mode(0o755), &root()).unwrap();
        assert_eq!(
            f.write_file("/ro/new", b"", &bob).unwrap_err().errno,
            Errno::EACCES
        );
    }

    #[test]
    fn chmod_chown_authorization() {
        let f = fs();
        let alice = Credentials::user(1000, 1000);
        let bob = Credentials::user(1001, 1001);
        f.write_file("/f", b"", &root()).unwrap();
        f.chown("/f", Some(Uid(1000)), Some(Gid(1000)), &root())
            .unwrap();
        f.chmod("/f", Mode(0o644), &alice).unwrap(); // owner may chmod
        assert_eq!(
            f.chmod("/f", Mode(0o777), &bob).unwrap_err().errno,
            Errno::EPERM
        );
        assert_eq!(
            f.chown("/f", Some(Uid(1001)), None, &bob)
                .unwrap_err()
                .errno,
            Errno::EPERM
        );
        // Owner may change group only to a group they belong to.
        let mut alice2 = alice.clone();
        alice2.groups.push(Gid(50));
        f.chown("/f", None, Some(Gid(50)), &alice2).unwrap();
        assert_eq!(
            f.chown("/f", None, Some(Gid(51)), &alice2)
                .unwrap_err()
                .errno,
            Errno::EPERM
        );
    }

    #[test]
    fn acl_grants_beyond_mode() {
        let f = fs();
        let app = Credentials::user(2000, 2000);
        f.write_file("/flow", b"v", &root()).unwrap();
        f.chmod("/flow", Mode(0o600), &root()).unwrap();
        assert_eq!(f.read_file("/flow", &app).unwrap_err().errno, Errno::EACCES);
        let mut acl = Acl::new();
        acl.set_user(Uid(2000), 0o4);
        f.set_acl("/flow", Some(acl), &root()).unwrap();
        assert_eq!(f.read_file("/flow", &app).unwrap(), b"v");
        assert_eq!(
            f.write_file("/flow", b"w", &app).unwrap_err().errno,
            Errno::EACCES
        );
        assert!(f.get_acl("/flow", &root()).unwrap().is_some());
        f.set_acl("/flow", None, &root()).unwrap();
        assert_eq!(f.read_file("/flow", &app).unwrap_err().errno, Errno::EACCES);
    }

    #[test]
    fn sticky_directory_restricts_deletion() {
        let f = fs();
        let alice = Credentials::user(1000, 1000);
        let bob = Credentials::user(1001, 1001);
        f.mkdir("/tmp", Mode(0o1777), &root()).unwrap();
        f.write_file("/tmp/af", b"", &alice).unwrap();
        assert_eq!(f.unlink("/tmp/af", &bob).unwrap_err().errno, Errno::EPERM);
        f.unlink("/tmp/af", &alice).unwrap();
    }

    #[test]
    fn xattr_roundtrip() {
        let f = fs();
        f.write_file("/f", b"", &root()).unwrap();
        f.set_xattr("/f", "user.consistency", b"eventual", &root())
            .unwrap();
        assert_eq!(
            f.get_xattr("/f", "user.consistency", &root()).unwrap(),
            b"eventual"
        );
        assert_eq!(
            f.list_xattr("/f", &root()).unwrap(),
            vec!["user.consistency"]
        );
        f.remove_xattr("/f", "user.consistency", &root()).unwrap();
        assert_eq!(
            f.get_xattr("/f", "user.consistency", &root())
                .unwrap_err()
                .errno,
            Errno::ENODATA
        );
        assert_eq!(
            f.remove_xattr("/f", "user.consistency", &root())
                .unwrap_err()
                .errno,
            Errno::ENODATA
        );
    }

    #[test]
    fn notify_create_modify_closewrite_delete() {
        let f = fs();
        f.mkdir_all("/net/flows", Mode::DIR_DEFAULT, &root())
            .unwrap();
        let w = f.watch("/net/flows").register().unwrap();
        f.write_file("/net/flows/f1", b"v", &root()).unwrap();
        f.unlink("/net/flows/f1", &root()).unwrap();
        let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Create));
        assert!(kinds.contains(&EventKind::Modify));
        assert!(kinds.contains(&EventKind::CloseWrite));
        assert!(kinds.contains(&EventKind::Delete));
    }

    #[test]
    fn notify_rename_events() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/d/a", b"", &root()).unwrap();
        let w = f.watch("/d").register().unwrap();
        f.rename("/d/a", "/d/b", &root()).unwrap();
        let kinds: Vec<(EventKind, Option<String>)> =
            w.receiver().try_iter().map(|e| (e.kind, e.name)).collect();
        assert!(kinds.contains(&(EventKind::MovedFrom, Some("a".into()))));
        assert!(kinds.contains(&(EventKind::MovedTo, Some("b".into()))));
    }

    #[test]
    fn syscall_counting() {
        let f = fs();
        let before = f.counters().snapshot();
        f.write_file("/f", b"x", &root()).unwrap(); // open+write+close
        let d = f.counters().snapshot().since(&before);
        assert_eq!(d.get(OpKind::Open), 1);
        assert_eq!(d.get(OpKind::Write), 1);
        assert_eq!(d.get(OpKind::Close), 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn limits_enforced() {
        let f = Filesystem::builder()
            .limits(Limits {
                max_file_size: 4,
                max_dir_entries: 2,
                max_open_files: 1,
            })
            .build();
        let r = root();
        assert_eq!(
            f.write_file("/big", b"12345", &r).unwrap_err().errno,
            Errno::ENOSPC
        );
        // The failed write still created the (empty) file — POSIX O_CREAT
        // succeeded before the write hit the size limit. Remove it so the
        // directory-entry quota test starts clean.
        f.unlink("/big", &r).unwrap();
        f.write_file("/a", b"1", &r).unwrap();
        f.write_file("/b", b"1", &r).unwrap();
        assert_eq!(
            f.write_file("/c", b"1", &r).unwrap_err().errno,
            Errno::EDQUOT
        );
        let fd = f.open("/a", OpenFlags::read_only(), &r).unwrap();
        assert_eq!(
            f.open("/b", OpenFlags::read_only(), &r).unwrap_err().errno,
            Errno::ENFILE
        );
        f.close(fd, &r).unwrap();
    }

    struct AutoPopulate;
    impl SemanticHook for AutoPopulate {
        fn post_mkdir(&self, fs: &Filesystem, path: &VPath, creds: &Credentials) {
            if path.parent().as_str() == "/views" {
                for sub in ["hosts", "switches", "views"] {
                    let _ = fs.mkdir(path.join(sub).as_str(), Mode::DIR_DEFAULT, creds);
                }
            }
        }
    }

    #[test]
    fn post_mkdir_hook_autopopulates_without_recursing() {
        let f = fs();
        f.add_hook(Arc::new(AutoPopulate));
        f.mkdir("/views", Mode::DIR_DEFAULT, &root()).unwrap();
        f.mkdir("/views/v1", Mode::DIR_DEFAULT, &root()).unwrap();
        assert!(f.stat("/views/v1/hosts", &root()).unwrap().is_dir());
        assert!(f.stat("/views/v1/switches", &root()).unwrap().is_dir());
        assert!(f.stat("/views/v1/views", &root()).unwrap().is_dir());
        // The hook's own mkdirs didn't re-trigger (no /views/v1/views/hosts).
        assert!(!f.exists("/views/v1/views/hosts", &root()));
    }

    #[test]
    fn dotdot_resolution() {
        let f = fs();
        f.mkdir_all("/a/b/c", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/a/marker", b"m", &root()).unwrap();
        assert_eq!(f.read_file("/a/b/c/../../marker", &root()).unwrap(), b"m");
        assert_eq!(f.read_file("/../../a/marker", &root()).unwrap(), b"m");
    }

    #[test]
    fn canonicalize_resolves_chains() {
        let f = fs();
        f.mkdir_all("/real/dir", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.symlink("/real", "/l1", &root()).unwrap();
        f.symlink("/l1/dir", "/l2", &root()).unwrap();
        assert_eq!(
            f.canonicalize("/l2", &root()).unwrap().as_str(),
            "/real/dir"
        );
        assert!(f.canonicalize("/nope", &root()).is_err());
    }

    #[test]
    fn proc_total_matches_counters_exactly() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        f.mkdir_all("/net/switches/sw1", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.write_file("/net/switches/sw1/hello", b"x", &root())
            .unwrap();
        let expect = f.counters().total();
        assert!(expect > 0);
        let got = f
            .read_to_string("/net/.proc/vfs/syscalls/total", &root())
            .unwrap();
        assert_eq!(got.trim().parse::<u64>().unwrap(), expect);
        // Reading the counter did not disturb it.
        assert_eq!(f.counters().total(), expect);
        // And re-reading reflects new activity but never the reads themselves.
        f.write_file("/net/switches/sw1/hello", b"y", &root())
            .unwrap();
        let expect2 = f.counters().total();
        assert!(expect2 > expect);
        let got2 = f
            .read_to_string("/net/.proc/vfs/syscalls/total", &root())
            .unwrap();
        assert_eq!(got2.trim().parse::<u64>().unwrap(), expect2);
    }

    #[test]
    fn dcache_counters_pin_exactly_via_proc() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        f.mkdir_all("/d1/d2", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/d1/d2/f", b"x", &root()).unwrap();
        let read = |name: &str| {
            f.read_to_string(&format!("/net/.proc/vfs/dcache/{name}"), &root())
                .unwrap()
                .trim()
                .parse::<u64>()
                .unwrap()
        };
        // Warm every hop of the path once.
        f.stat("/d1/d2/f", &root()).unwrap();
        let (h0, m0, i0) = (read("hits"), read("misses"), read("invalidates"));
        // Ten fully-warm stats: three hits each (d1, d2, f), zero misses.
        for _ in 0..10 {
            f.stat("/d1/d2/f", &root()).unwrap();
        }
        assert_eq!(read("hits"), h0 + 30);
        assert_eq!(read("misses"), m0);
        // Reading the proc files themselves never disturbs the counters:
        // proc-covered resolution bypasses the cache.
        assert_eq!(read("hits"), h0 + 30);
        // An unlink bumps the parent's generation exactly once…
        f.unlink("/d1/d2/f", &root()).unwrap();
        assert_eq!(read("invalidates"), i0 + 1);
        // …so the next probe hits on d1/d2 but misses on the final
        // component and caches the ENOENT…
        let (m1, n0) = (read("misses"), read("negative"));
        assert_eq!(
            f.stat("/d1/d2/f", &root()).unwrap_err().errno,
            Errno::ENOENT
        );
        assert_eq!(read("misses"), m1 + 1);
        // …and the repeat probe is answered by the negative entry.
        assert_eq!(
            f.stat("/d1/d2/f", &root()).unwrap_err().errno,
            Errno::ENOENT
        );
        assert_eq!(read("negative"), n0 + 1);
        assert!(read("entries") > 0);
        assert_eq!(read("enabled"), 1);
    }

    #[test]
    fn dcache_hits_revalidate_permissions_per_caller() {
        let f = fs();
        let bob = Credentials::user(1001, 1001);
        f.mkdir("/locked", Mode(0o700), &root()).unwrap();
        f.write_file("/locked/f", b"secret", &root()).unwrap();
        // Root's walk warms the (locked, f) entry…
        f.stat("/locked/f", &root()).unwrap();
        // …but a hit can never widen access: bob is re-checked and denied.
        assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
        // chmod bumps the generation, so the relaxed bits are seen at once…
        f.chmod("/locked", Mode(0o755), &root()).unwrap();
        f.stat("/locked/f", &bob).unwrap();
        f.stat("/locked/f", &root()).unwrap();
        // …and re-tightening is honoured on still-warm entries too.
        f.chmod("/locked", Mode(0o700), &root()).unwrap();
        assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
        assert!(f.stat("/locked/f", &root()).is_ok());
    }

    #[test]
    fn dcache_disabled_filesystem_resolves_identically() {
        let on = Filesystem::new();
        let off = Filesystem::builder().dcache(false).build();
        assert!(on.dcache_enabled());
        assert!(!off.dcache_enabled());
        for f in [&on, &off] {
            f.mkdir_all("/a/b", Mode::DIR_DEFAULT, &root()).unwrap();
            f.write_file("/a/b/f", b"v", &root()).unwrap();
            f.stat("/a/b/f", &root()).unwrap();
            f.stat("/a/b/f", &root()).unwrap();
            assert_eq!(
                f.stat("/a/b/nope", &root()).unwrap_err().errno,
                Errno::ENOENT
            );
            f.rename("/a/b/f", "/a/b/g", &root()).unwrap();
            assert_eq!(f.stat("/a/b/f", &root()).unwrap_err().errno, Errno::ENOENT);
            assert_eq!(f.read_file("/a/b/g", &root()).unwrap(), b"v");
        }
        // The disabled cache stayed completely inert.
        assert_eq!(off.dcache_stats(), DcacheStats::default());
        assert_eq!(off.dcache_entries(), 0);
        assert!(on.dcache_stats().hits > 0);
    }

    #[test]
    fn dcache_rename_keeps_moved_subtree_warm_but_retires_old_entry() {
        let f = fs();
        f.mkdir_all("/top/sub", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/top/sub/f", b"v", &root()).unwrap();
        f.stat("/top/sub/f", &root()).unwrap(); // warm
        f.rename("/top", "/newtop", &root()).unwrap();
        assert_eq!(
            f.stat("/top/sub/f", &root()).unwrap_err().errno,
            Errno::ENOENT
        );
        let before = f.dcache_stats();
        // The (top→sub) and (sub→f) hops are keyed by inode, not path:
        // they survive the rename of their ancestor.
        assert_eq!(f.read_file("/newtop/sub/f", &root()).unwrap(), b"v");
        let after = f.dcache_stats();
        assert!(after.hits >= before.hits + 2, "moved subtree went cold");
    }

    #[test]
    fn proc_limits_expose_resolution_bounds() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        let read = |name: &str| {
            f.read_to_string(&format!("/net/.proc/vfs/limits/{name}"), &root())
                .unwrap()
                .trim()
                .parse::<u64>()
                .unwrap()
        };
        assert_eq!(read("max_symlink_hops"), u64::from(MAX_SYMLINK_HOPS));
        assert_eq!(read("path_max"), PATH_MAX as u64);
        assert_eq!(read("name_max"), NAME_MAX as u64);
        assert_eq!(read("link_max"), u64::from(LINK_MAX));
        assert_eq!(
            read("max_open_files"),
            Limits::default().max_open_files as u64
        );
    }

    #[test]
    fn proc_mount_is_read_only() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        for e in [
            f.write_file("/net/.proc/vfs/syscalls/total", b"0", &root())
                .unwrap_err(),
            f.mkdir("/net/.proc/mine", Mode::DIR_DEFAULT, &root())
                .unwrap_err(),
            f.unlink("/net/.proc/vfs/syscalls/total", &root())
                .unwrap_err(),
            f.truncate("/net/.proc/vfs/syscalls/total", 0, &root())
                .unwrap_err(),
            f.rename("/net/.proc/vfs", "/net/.proc/ufs", &root())
                .unwrap_err(),
        ] {
            assert_eq!(e.errno, Errno::EROFS);
        }
        // Reads still work.
        assert!(f
            .read_to_string("/net/.proc/vfs/syscalls/total", &root())
            .is_ok());
    }

    #[test]
    fn proc_refresh_is_silent_for_watchers() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        let w = f.watch("/net").subtree().register().unwrap();
        let _ = f
            .read_to_string("/net/.proc/vfs/syscalls/total", &root())
            .unwrap();
        assert_eq!(w.receiver().try_iter().count(), 0);
    }

    #[test]
    fn proc_latency_files_summarise_histograms() {
        let f = fs();
        f.mount_proc("/net/.proc").unwrap();
        f.write_file("/data", b"x", &root()).unwrap();
        let s = f
            .read_to_string("/net/.proc/vfs/latency/write", &root())
            .unwrap();
        assert!(s.contains("count=1"), "got: {s}");
        assert!(s.contains("p50="), "got: {s}");
    }

    #[test]
    fn metrics_scope_appears_in_proc() {
        let f = fs();
        let scope = f.add_metrics_scope("net", "/net");
        f.mount_proc("/net/.proc").unwrap();
        f.mkdir_all("/net/switches", Mode::DIR_DEFAULT, &root())
            .unwrap();
        f.mkdir_all("/other", Mode::DIR_DEFAULT, &root()).unwrap();
        assert_eq!(scope.get(OpKind::Mkdir), 2); // /net/switches only
        let s = f
            .read_to_string("/net/.proc/scopes/net/total", &root())
            .unwrap();
        assert_eq!(s.trim().parse::<u64>().unwrap(), scope.total());
    }

    // ---- descriptor-relative I/O ----

    #[test]
    fn openat_resolves_relative_to_dir_descriptor() {
        let f = fs();
        f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
            .unwrap();
        let d = f.open_dir("/net/switches/sw1/flows", &root()).unwrap();
        let fd = f
            .openat(d, "f1", OpenFlags::write_create(), &root())
            .unwrap();
        f.write(fd, b"match=*").unwrap();
        f.close(fd, &root()).unwrap();
        assert_eq!(
            f.read_to_string("/net/switches/sw1/flows/f1", &root())
                .unwrap(),
            "match=*"
        );
        // Multi-component relative paths work too.
        f.mkdirat(d, "sub", Mode::DIR_DEFAULT, &root()).unwrap();
        let fd2 = f
            .openat(d, "sub/f2", OpenFlags::write_create(), &root())
            .unwrap();
        f.close(fd2, &root()).unwrap();
        assert!(f
            .stat("/net/switches/sw1/flows/sub/f2", &root())
            .unwrap()
            .is_file());
        f.close(d, &root()).unwrap();
    }

    #[test]
    fn openat_rejects_absolute_rel_and_bad_fd() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        let d = f.open_dir("/d", &root()).unwrap();
        assert_eq!(
            f.openat(d, "/abs", OpenFlags::read_only(), &root())
                .unwrap_err()
                .errno,
            Errno::EINVAL
        );
        assert_eq!(
            f.openat(Fd(999_999), "x", OpenFlags::read_only(), &root())
                .unwrap_err()
                .errno,
            Errno::EBADF
        );
        // open_dir on a file / open on a dir keep their errnos.
        f.write_file("/d/f", b"x", &root()).unwrap();
        assert_eq!(
            f.open_dir("/d/f", &root()).unwrap_err().errno,
            Errno::ENOTDIR
        );
        assert_eq!(
            f.open("/d", OpenFlags::read_only(), &root())
                .unwrap_err()
                .errno,
            Errno::EISDIR
        );
    }

    #[test]
    fn pread_pwrite_leave_offset_alone() {
        let f = fs();
        f.write_file("/f", b"abcdef", &root()).unwrap();
        let fd = f
            .open(
                "/f",
                OpenFlags {
                    read: true,
                    write: true,
                    ..OpenFlags::read_only()
                },
                &root(),
            )
            .unwrap();
        assert_eq!(f.pread(fd, 2, 3).unwrap(), b"cde");
        f.pwrite(fd, 4, b"XY").unwrap();
        // Sequential read still starts at offset 0.
        assert_eq!(f.read(fd, 6).unwrap(), b"abcdXY");
        // pread past EOF is a short read, not an error.
        assert_eq!(f.pread(fd, 100, 4).unwrap(), b"");
        f.close(fd, &root()).unwrap();
    }

    #[test]
    fn readv_writev_charge_one_syscall_each() {
        let f = fs();
        let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
        let before = f.counters().snapshot();
        f.writev(fd, &[b"ab", b"cd", b"ef"]).unwrap();
        let after = f.counters().snapshot();
        assert_eq!(after.since(&before).get(OpKind::Write), 1);
        assert_eq!(after.since(&before).total(), 1);
        f.close(fd, &root()).unwrap();

        let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
        let before = f.counters().snapshot();
        let segs = f.readv(fd, &[2, 2, 4]).unwrap();
        let after = f.counters().snapshot();
        assert_eq!(after.since(&before).get(OpKind::Read), 1);
        assert_eq!(after.since(&before).total(), 1);
        assert_eq!(segs, vec![b"ab".to_vec(), b"cd".to_vec(), b"ef".to_vec()]);
        f.close(fd, &root()).unwrap();
    }

    #[test]
    fn fstat_follows_the_inode() {
        let f = fs();
        f.write_file("/f", b"abc", &root()).unwrap();
        let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
        let st = f.fstat(fd).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 3);
        // Rename does not disturb the descriptor.
        f.rename("/f", "/g", &root()).unwrap();
        assert_eq!(f.fstat(fd).unwrap().ino, st.ino);
        f.close(fd, &root()).unwrap();
        assert_eq!(f.fstat(fd).unwrap_err().errno, Errno::EBADF);
    }

    #[test]
    fn fsync_commits_without_close() {
        let f = fs();
        let w = f
            .watch("/")
            .subtree()
            .mask(EventMask::ALL)
            .register()
            .unwrap();
        let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
        f.write(fd, b"v1").unwrap();
        let _ = w.receiver().try_iter().count();
        f.fsync(fd, &root()).unwrap();
        let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::CloseWrite), "got {kinds:?}");
        // A second fsync with no intervening write is silent...
        f.fsync(fd, &root()).unwrap();
        assert_eq!(w.receiver().try_iter().count(), 0);
        // ...and close after fsync does not re-fire CloseWrite.
        f.close(fd, &root()).unwrap();
        let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
        assert!(!kinds.contains(&EventKind::CloseWrite), "got {kinds:?}");
    }

    #[test]
    fn readdir_fd_and_dirfd_survive_sibling_churn() {
        let f = fs();
        f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/d/a", b"", &root()).unwrap();
        let d = f.open_dir("/d", &root()).unwrap();
        let names: Vec<String> = f
            .readdir_fd(d)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["a", "sub"]);
        f.write_file("/d/b", b"", &root()).unwrap();
        assert_eq!(f.readdir_fd(d).unwrap().len(), 3);
        f.close(d, &root()).unwrap();
    }

    #[test]
    fn readdir_fd_ordering_is_deterministic_regardless_of_insert_order() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        // Insert in scrambled order; listings must come back sorted.
        for name in ["zeta", "alpha", "mike", "bravo", "yankee", "charlie"] {
            f.write_file(&format!("/d/{name}"), b"", &root()).unwrap();
        }
        let d = f.open_dir("/d", &root()).unwrap();
        let names: Vec<String> = f
            .readdir_fd(d)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(
            names,
            vec!["alpha", "bravo", "charlie", "mike", "yankee", "zeta"]
        );
        // Re-reading the same fd is stable.
        let again: Vec<String> = f
            .readdir_fd(d)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, again);
        f.close(d, &root()).unwrap();
    }

    #[test]
    fn readdir_fd_reflects_create_and_unlink_churn_between_reads() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        for name in ["a", "b", "c"] {
            f.write_file(&format!("/d/{name}"), b"", &root()).unwrap();
        }
        let d = f.open_dir("/d", &root()).unwrap();
        let list = |fd| -> Vec<String> {
            f.readdir_fd(fd)
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(list(d), vec!["a", "b", "c"]);
        // Churn between reads on the same open fd: listings are live.
        f.unlink("/d/b", &root()).unwrap();
        f.write_file("/d/d", b"", &root()).unwrap();
        assert_eq!(list(d), vec!["a", "c", "d"]);
        f.unlink("/d/a", &root()).unwrap();
        f.unlink("/d/c", &root()).unwrap();
        f.unlink("/d/d", &root()).unwrap();
        assert_eq!(list(d), Vec::<String>::new());
        // The fd itself is still a valid handle after its last entry went.
        f.write_file("/d/e", b"", &root()).unwrap();
        assert_eq!(list(d), vec!["e"]);
        f.close(d, &root()).unwrap();
    }

    #[test]
    fn rmdir_then_dir_descriptor_ops_fail_cleanly() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        let d = f.open_dir("/d", &root()).unwrap();
        f.rmdir("/d", &root()).unwrap();
        assert_eq!(
            f.openat(d, "x", OpenFlags::write_create(), &root())
                .unwrap_err()
                .errno,
            Errno::ENOENT
        );
        assert_eq!(f.readdir_fd(d).unwrap_err().errno, Errno::ENOENT);
        f.close(d, &root()).unwrap(); // closing the dangling descriptor is fine
    }

    #[test]
    fn write_batch_at_is_one_syscall_and_commits_each_entry() {
        let f = fs();
        f.mkdir_all("/flows", Mode::DIR_DEFAULT, &root()).unwrap();
        let d = f.open_dir("/flows", &root()).unwrap();
        let w = f
            .watch("/flows")
            .subtree()
            .mask(EventMask::ALL)
            .register()
            .unwrap();
        let before = f.counters().snapshot();
        let n = f
            .write_batch_at(
                d,
                &[("f1", b"p=1".as_slice()), ("f2", b"p=2"), ("f1", b"p=9")],
                &root(),
            )
            .unwrap();
        let diff = f.counters().snapshot().since(&before);
        assert_eq!(n, 3);
        assert_eq!(diff.get(OpKind::Write), 1);
        assert_eq!(diff.total(), 1);
        assert_eq!(f.read_to_string("/flows/f1", &root()).unwrap(), "p=9");
        assert_eq!(f.read_to_string("/flows/f2", &root()).unwrap(), "p=2");
        let evs: Vec<(EventKind, String)> = w
            .receiver()
            .try_iter()
            .map(|e| (e.kind, e.path.as_str().to_owned()))
            .collect();
        // Every entry committed: two Creates and three CloseWrites.
        assert_eq!(
            evs.iter().filter(|(k, _)| *k == EventKind::Create).count(),
            2
        );
        assert_eq!(
            evs.iter()
                .filter(|(k, _)| *k == EventKind::CloseWrite)
                .count(),
            3
        );
        f.close(d, &root()).unwrap();
    }

    #[test]
    fn fd_table_reports_per_uid_descriptors() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        f.chmod("/d", Mode(0o777), &root()).unwrap();
        let alice = Credentials::user(7, 7);
        f.write_file("/d/a", b"x", &root()).unwrap();
        f.chmod("/d/a", Mode(0o666), &root()).unwrap();
        let fd = f.open("/d/a", OpenFlags::read_only(), &alice).unwrap();
        let table = f.fd_table(Uid(7));
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].fd, fd.0);
        assert_eq!(table[0].path, "/d/a");
        assert!(table[0].read && !table[0].write);
        assert!(f.fd_table(Uid(8)).is_empty());
        f.close(fd, &alice).unwrap();
        assert!(f.fd_table(Uid(7)).is_empty());
    }

    #[test]
    fn watch_guard_unwatches_on_drop_and_forget_detaches() {
        let f = fs();
        f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
        {
            let w = f.watch("/d").register().unwrap();
            f.write_file("/d/f", b"x", &root()).unwrap();
            assert!(w.ready());
        } // dropped: unwatched
        assert_eq!(f.notify().watch_count(), 0);
        let (id, rx) = f.watch("/d").register().unwrap().forget();
        f.write_file("/d/g", b"x", &root()).unwrap();
        assert!(rx.try_iter().count() > 0);
        f.notify().unwatch(id);
    }
}
