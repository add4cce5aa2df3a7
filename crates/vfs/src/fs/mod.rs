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
//! shards keyed by inode/fd number (the crate-private `shard` module). Path
//! resolution takes shard read-locks hop-by-hop; mutations resolve
//! lock-free, then write-lock the shards they touch in canonical
//! (ascending) order, verify the directory entries they resolved are still
//! in place, and retry from resolution when a concurrent mutation moved
//! them. Notification events and semantic-hook invocations are computed
//! under the shard locks but emitted/run after release, so hooks and
//! watchers may freely re-enter the filesystem. With `shards = 1` every
//! operation serializes behind a single lock — the deterministic mode the
//! pinned experiment tables run under (and the global-lock baseline the
//! E20 bench compares against).
//!
//! Every operation has one body, working on an already-identified inode or
//! descriptor; the path-addressed and `*at` entry points only charge,
//! resolve and call it. And every body that changes the tree does so by
//! committing a journal record through the one mutator (`mutate`; do =
//! redo, DESIGN.md §10). The `impl Filesystem` is split by seam: this file
//! (struct, [`FsBuilder`], accessors, hook plumbing, watch builder/guard),
//! `account` (syscall charging, rctl, reclaim), `walk` (path resolution +
//! dcache fill), `io` (open-file table and data I/O), `attr` (`stat` and
//! attribute readers/mutators), `tree` (namespace operations and the one
//! object-creation body), `mutate` (the one mutator and the commit point),
//! `procfs` (`mount_proc`), `check` (the audit).

mod account;
mod attr;
mod check;
mod io;
mod mutate;
mod procfs;
mod tree;
mod walk;

#[cfg(test)]
mod tests;

use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::{Mutex, RwLock};

use crate::counter::SyscallCounters;
use crate::dcache::{Dcache, DcacheStats};
use crate::error::VfsResult;
use crate::hooks::{HookDepth, SemanticHook};
use crate::metrics::MetricsRegistry;
use crate::notify::{Event, EventKind, EventMask, NotifyHub, Scope, WatchId};
use crate::path::VPath;
use crate::poll::PollRegistry;
use crate::proc::{ProcDepth, ProcRegistry};
use crate::rctl::RctlTable;
use crate::readpath::{ReadPath, ReadPathStats};
use crate::shard::{Inode, LockKey, NodeKind, Tables, DEFAULT_SHARDS};
use crate::types::{Clock, Credentials, Gid, Ino, Mode, Uid, ROOT_INO};

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

/// Pending notification gathered under the shard locks, emitted after
/// release as one batch (`notify.emit_batch`): each watch's queue gate is
/// taken once per batch, outside any shard lock.
type PendingEvent = (EventKind, VPath, Option<String>);

/// Pending hook invocation gathered under the shard locks.
enum PendingHook {
    Mkdir(VPath),
    Create(VPath),
    CloseWrite(VPath),
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
/// constructor. Defaults match [`Filesystem::new`]: default limits, 8 lock
/// shards, dentry cache on, optimistic read path on, journal off.
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
            let root = Inode::new(
                NodeKind::dir(ROOT_INO),
                Mode::DIR_DEFAULT,
                Uid(0),
                Gid(0),
                now,
            );
            set.insert_inode(ROOT_INO, root);
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
            names: Vec::new(),
            creds: None,
        }
    }

    /// Cancel a watch.
    pub fn unwatch(&self, id: WatchId) -> bool {
        self.notify.unwatch(id)
    }

    /// The registered hooks, or none while a hook is already running:
    /// hooks never nest, so they may freely re-enter the filesystem.
    fn active_hooks(&self) -> Vec<Arc<dyn SemanticHook>> {
        if HookDepth::active() {
            return Vec::new();
        }
        self.hooks.read().clone()
    }

    /// Give hooks a chance to materialise `path` before it is observed.
    fn pre_access(&self, path: &str) {
        if ProcDepth::active() {
            return;
        }
        let hooks = self.active_hooks();
        if hooks.is_empty() {
            return;
        }
        let vp = VPath::new(path);
        for h in &hooks {
            h.pre_access(self, &vp);
        }
    }

    /// Let hooks veto a mutation of `path` (proc mounts: `EROFS`).
    fn validate_mutation(&self, path: &VPath) -> VfsResult<()> {
        self.validate_with_hooks(|h| h.validate_mutate(self, path))
    }

    /// Validate a create/symlink against hooks (outside the lock).
    fn validate_with_hooks(&self, f: impl Fn(&dyn SemanticHook) -> VfsResult<()>) -> VfsResult<()> {
        self.active_hooks().iter().try_for_each(|h| f(h.as_ref()))
    }

    /// Run the post-operation hooks gathered under the shard locks, after
    /// their release.
    fn run_hooks(&self, pending: Vec<PendingHook>, creds: &Credentials) {
        if pending.is_empty() {
            return;
        }
        let hooks = self.active_hooks();
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
    names: Vec<String>,
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

    /// Deliver only events whose entry name is exactly `name` — with
    /// [`Self::subtree`], "every `peer` link under `/net/switches`" is one
    /// watch. Repeatable: each call adds a name, and an event passes if its
    /// name is any of them, so "every `version` and `packet_out` under a
    /// switch" is one watch too. Everything else is discarded before it is
    /// queued, so the watch costs an idle consumer no memory however busy
    /// the subtree is.
    pub fn named(mut self, name: &str) -> Self {
        self.names.push(name.to_string());
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
        let owner = match &self.creds {
            Some(creds) => {
                self.fs.check_watch_budget(creds, self.path.as_str())?;
                Some(creds.uid.0)
            }
            None => None,
        };
        let scope = if self.subtree {
            Scope::Subtree(self.path)
        } else {
            Scope::Path(self.path)
        };
        let (id, rx) = self.fs.notify.add(scope, self.mask, self.names, owner);
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
/// [`crate::poll::PollSet`]); [`WatchGuard::forget`] detaches the
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
