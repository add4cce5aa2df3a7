//! `/proc`-style introspection: `mount_proc` registers the vfs's own
//! instruments as rendered files, `proc_file` is the registration
//! primitive other layers use for theirs.

use std::fmt::Display;
use std::sync::Arc;

use super::{Filesystem, LINK_MAX, MAX_SYMLINK_HOPS};
use crate::counter::{OpKind, SyscallCounters};
use crate::dcache::DcacheStats;
use crate::error::{err, Errno, VfsResult};
use crate::hooks::HookDepth;
use crate::journal::JournalStats;
use crate::path::{VPath, NAME_MAX, PATH_MAX};
use crate::proc::{ProcDepth, ProcHook, ProcRender};
use crate::readpath::{ReadPath, ReadPathStats};
use crate::types::{Credentials, Mode};

/// One rendered counter of a stats snapshot: file name and field getter.
type Field<S> = (&'static str, fn(&S) -> u64);

const DCACHE_FIELDS: [Field<DcacheStats>; 6] = [
    ("hits", |s| s.hits),
    ("misses", |s| s.misses),
    ("negative", |s| s.negative_hits),
    ("invalidates", |s| s.invalidations),
    ("inserts", |s| s.inserts),
    ("evictions", |s| s.evictions),
];

const READPATH_FIELDS: [Field<ReadPathStats>; 5] = [
    ("optimistic_hits", |s| s.optimistic_hits),
    ("optimistic_retries", |s| s.optimistic_retries),
    ("fallbacks", |s| s.fallbacks),
    ("attr_fills", |s| s.attr_fills),
    ("handle_publishes", |s| s.handle_publishes),
];

const JOURNAL_FIELDS: [Field<JournalStats>; 9] = [
    ("enabled", |s| u64::from(s.enabled)),
    ("records", |s| s.records),
    ("snapshots", |s| s.snapshots),
    ("bytes", |s| s.bytes),
    ("snapshot_bytes", |s| s.snapshot_bytes),
    ("compacted_bytes", |s| s.compacted_bytes),
    ("replayed", |s| s.replayed),
    ("replay_skipped", |s| s.replay_skipped),
    ("replay_syscalls", |s| s.replay_syscalls),
];

impl Filesystem {
    /// Register (or fetch) a named syscall-counter scope covering `prefix`.
    /// If a proc mount is active, the scope's figures are also exposed under
    /// `<mount>/scopes/<name>/`.
    pub fn add_metrics_scope(&self, name: &str, prefix: &str) -> Arc<SyscallCounters> {
        let counters = self.metrics.add_scope(name, prefix);
        for mount in self.proc.mounts() {
            let _ = self.scope_files(&mount, name, &counters);
        }
        counters
    }

    /// The two files of one counter scope under one mount.
    fn scope_files(&self, mount: &str, name: &str, c: &Arc<SyscallCounters>) -> VfsResult<()> {
        let total = c.clone();
        self.proc_num(format!("{mount}/scopes/{name}/total"), move || {
            total.total()
        })?;
        let report = c.clone();
        self.proc_num(format!("{mount}/scopes/{name}/syscalls"), move || {
            report.snapshot().report()
        })
    }

    /// [`Self::proc_file`] for a single value rendered as one line.
    fn proc_num<N: Display>(
        &self,
        path: String,
        value: impl Fn() -> N + Send + Sync + 'static,
    ) -> VfsResult<()> {
        self.proc_file(&path, move || format!("{}\n", value()))
    }

    // ----------------------------------------------------------------
    // /proc-style introspection mounts
    // ----------------------------------------------------------------

    /// Mount a read-only introspection tree at `prefix` (idempotent).
    ///
    /// Creates the directory, installs the [`ProcHook`] enforcing lazy
    /// refresh + `EROFS`, and registers the vfs's own figures beneath it:
    /// `vfs/syscalls/<op>` and `vfs/syscalls/total`, and
    /// `vfs/notify/{watches,queued}`.
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
        let vfs = |rel: &str| format!("{prefix}/vfs/{rel}");

        // The vfs's own instruments.
        let c = self.counters.clone();
        self.proc_num(vfs("syscalls/total"), move || c.total())?;
        for &op in OpKind::all() {
            let c = self.counters.clone();
            self.proc_num(vfs(&format!("syscalls/{}", op.name())), move || c.get(op))?;
        }
        let pr = self.proc.clone();
        self.proc_file(&vfs("mounts"), move || pr.render_mount_tables())?;
        let n = self.notify.clone();
        self.proc_num(vfs("notify/watches"), move || n.watch_count())?;
        let n = self.notify.clone();
        self.proc_num(vfs("notify/queued"), move || n.queued_events())?;
        let n = self.notify.clone();
        self.proc_num(vfs("notify/dropped"), move || n.dropped_events())?;
        let n = self.notify.clone();
        self.proc_num(vfs("notify/delivered"), move || n.delivered_events())?;
        let t = self.tables.clone();
        self.proc_num(vfs("handles"), move || t.handle_count())?;
        let p = self.polls.clone();
        self.proc_file(&vfs("pollsets"), move || p.render())?;
        let shards = self.tables.shard_count();
        self.proc_num(vfs("shards"), move || shards)?;
        let r = self.rctl.clone();
        self.proc_num(vfs("rctl/throttled"), move || r.throttled_total())?;
        let r = self.rctl.clone();
        self.proc_num(vfs("rctl/refills"), move || r.refills())?;

        // Dentry-cache counters. Resolution of proc-covered paths bypasses
        // the cache entirely, so reading these files never perturbs them.
        for (name, field) in DCACHE_FIELDS {
            let d = self.dcache.clone();
            self.proc_num(vfs(&format!("dcache/{name}")), move || field(&d.stats()))?;
        }
        let d = self.dcache.clone();
        self.proc_num(vfs("dcache/entries"), move || d.entries())?;
        let d = self.dcache.clone();
        self.proc_num(vfs("dcache/enabled"), move || u8::from(d.enabled()))?;

        // Lock-free read-path counters (E25). Note that *rendering* these
        // files goes through the ordinary locked machinery, so a proc read
        // itself adds lock acquisitions after the value was formatted —
        // pinned tests therefore sample [`Filesystem::readpath_stats`] /
        // [`Filesystem::lock_acquisitions`] directly and use these files
        // only for existence + consistency checks.
        let rp = self.readpath.clone();
        self.proc_num(vfs("readpath/enabled"), move || u8::from(rp.enabled()))?;
        for (name, field) in READPATH_FIELDS {
            let (rp, t) = (self.readpath.clone(), self.tables.clone());
            self.proc_num(vfs(&format!("readpath/{name}")), move || {
                field(&rp.stats(&t))
            })?;
        }
        let t = self.tables.clone();
        self.proc_num(vfs("readpath/lock_acquisitions"), move || {
            t.lock_acquisition_count()
        })?;
        self.proc_num(vfs("readpath/retry_limit"), || ReadPath::RETRY_LIMIT)?;

        // Write-ahead journal figures (E23: the warm-restart cost is read
        // from these files, never from wall-clock).
        for (name, field) in JOURNAL_FIELDS {
            let j = self.journal.clone();
            self.proc_num(vfs(&format!("journal/{name}")), move || field(&j.stats()))?;
        }

        // Static resolution limits (satellite of the dcache work: the
        // symlink-hop bound used to be a buried literal).
        let limits = [
            ("max_symlink_hops", u64::from(MAX_SYMLINK_HOPS)),
            ("path_max", PATH_MAX as u64),
            ("name_max", NAME_MAX as u64),
            ("link_max", u64::from(LINK_MAX)),
            ("max_file_size", self.limits.max_file_size),
            ("max_dir_entries", self.limits.max_dir_entries as u64),
            ("max_open_files", self.limits.max_open_files as u64),
        ];
        for (name, value) in limits {
            self.proc_num(vfs(&format!("limits/{name}")), move || value)?;
        }

        // Scopes registered before the mount get their files now.
        for (name, _) in self.metrics.scope_names() {
            if let Some(counters) = self.metrics.scope(&name) {
                self.scope_files(prefix, &name, &counters)?;
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
}
