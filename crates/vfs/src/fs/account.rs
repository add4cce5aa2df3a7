//! Accounting and resource control: the syscall tally every operation
//! charges, per-uid rctl limits, and the `KILL` path that reclaims a
//! uid's descriptors, watches and poll sets.

use std::sync::Arc;

use super::{FdInfo, Filesystem, ReclaimReport};
use crate::counter::OpKind;
use crate::error::{err, Errno, VfsResult};
use crate::hooks::HookDepth;
use crate::poll::PollSet;
use crate::proc::ProcDepth;
use crate::rctl::{AppLimits, RctlTable};
use crate::types::{Credentials, Uid};

impl Filesystem {
    pub(super) fn check_watch_budget(&self, creds: &Credentials, path: &str) -> VfsResult<()> {
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
        self.fd_table(uid).len()
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
                if let Some((_, dropped)) = self.release_handle(&mut set, fd) {
                    handles_closed += 1;
                    inodes_dropped += usize::from(dropped);
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

    /// Tally one operation on `path`, then consume one syscall-rate token
    /// for `uid` (`EAGAIN` when its bucket is empty). Proc-mount paths and
    /// internal proc maintenance are exempt from both: introspection must
    /// not disturb what it measures. Root and hook-initiated maintenance
    /// are exempt from the token charge — throttling a semantic hook
    /// mid-mutation would leave the tree half-updated.
    #[inline]
    pub(super) fn charge_uid(&self, op: OpKind, path: &str, uid: Uid) -> VfsResult<()> {
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

    /// [`Self::charge_uid`] without a caller to throttle: tally only.
    #[inline]
    pub(crate) fn count(&self, op: OpKind, path: &str) {
        let _ = self.charge_uid(op, path, Uid(0));
    }
}
