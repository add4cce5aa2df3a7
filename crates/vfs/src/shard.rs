//! Sharded inode/handle tables with canonical-order lock acquisition.
//!
//! The filesystem's state is split across `N` lock shards, keyed by inode
//! number (and file-descriptor number for the open-handle table, which
//! lives in the same shards). This reproduces, in-process, the property the
//! paper borrows from the kernel VFS: independent objects are protected by
//! independent locks, so concurrent applications touching different parts
//! of the `/net` tree never serialize on a global lock.
//!
//! Two access disciplines keep the design deadlock-free:
//!
//! * **Hop-by-hop reads** ([`Tables::with_inode`]): path resolution takes
//!   one shard read-lock at a time, copying out what it needs per hop and
//!   releasing before the next hop. At most one lock is ever held.
//! * **Canonical-order writes** ([`Tables::lock`]): a mutation computes the
//!   set of shards it will touch (parent directory, target inode, newly
//!   allocated inode, handle slot), then acquires their write locks in
//!   ascending shard-index order. Every multi-shard writer uses the same
//!   order, so no cycle of waiters can form. Because the world may change
//!   between resolution and locking, mutations re-verify the directory
//!   entry they resolved ([`ShardSet::entry_is`]) and retry from resolution
//!   when it moved — optimistic concurrency exactly like `rename()`'s
//!   lookup/lock/recheck dance in the kernel.
//!
//! A third discipline rides on top of these (PR 8, DESIGN.md §12):
//!
//! * **Optimistic lock-free reads** ([`crate::readpath`]): each shard
//!   carries a seqlock counter, bumped to odd by every write-lock
//!   acquisition and back to even on release. Hot read paths serve
//!   published attribute/handle blocks with **zero** table locks and
//!   validate the counter afterwards, falling back to the locked path on
//!   any conflict. [`Tables::lock_acquisition_count`] makes the win
//!   deterministic ("0 locks per warm stat", E25).
//!
//! With `shards = 1` the table degenerates to the old single global lock
//! and every operation is serialized — the deterministic mode the pinned
//! experiment tables (E4/E5/E19) run under.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::acl::Acl;
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::path::VPath;
use crate::types::{FileType, Gid, Ino, Mode, OpenFlags, Timestamp, Uid};

/// Default shard count: enough to spread an 8–16-thread control plane,
/// small enough that lock-all operations (recursive rmdir, reclaim) stay
/// cheap.
pub(crate) const DEFAULT_SHARDS: usize = 8;

#[derive(Debug)]
pub(crate) enum NodeKind {
    File(Vec<u8>),
    Dir {
        entries: BTreeMap<String, Ino>,
        parent: Ino,
    },
    Symlink(String),
}

impl NodeKind {
    /// An empty directory whose `..` is `parent`.
    pub fn dir(parent: Ino) -> NodeKind {
        NodeKind::Dir {
            entries: BTreeMap::new(),
            parent,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Inode {
    pub kind: NodeKind,
    pub mode: Mode,
    pub uid: Uid,
    pub gid: Gid,
    pub nlink: u32,
    pub mtime: Timestamp,
    pub ctime: Timestamp,
    pub xattrs: BTreeMap<String, Vec<u8>>,
    pub acl: Option<Acl>,
    pub open_count: u32,
}

impl Inode {
    /// A freshly created object: link count by kind (a directory starts at
    /// 2 — its parent's entry plus its own `.`), no xattrs, no ACL, not
    /// open. The one place an inode is built.
    pub fn new(kind: NodeKind, mode: Mode, uid: Uid, gid: Gid, now: Timestamp) -> Inode {
        Inode {
            nlink: if matches!(kind, NodeKind::Dir { .. }) {
                2
            } else {
                1
            },
            kind,
            mode,
            uid,
            gid,
            mtime: now,
            ctime: now,
            xattrs: BTreeMap::new(),
            acl: None,
            open_count: 0,
        }
    }

    pub fn file_type(&self) -> FileType {
        match self.kind {
            NodeKind::File(_) => FileType::Regular,
            NodeKind::Dir { .. } => FileType::Directory,
            NodeKind::Symlink(_) => FileType::Symlink,
        }
    }

    pub fn size(&self) -> u64 {
        match &self.kind {
            NodeKind::File(d) => d.len() as u64,
            NodeKind::Dir { entries, .. } => entries.len() as u64,
            NodeKind::Symlink(t) => t.len() as u64,
        }
    }

    pub fn dir_entries(&self) -> VfsResult<&BTreeMap<String, Ino>> {
        match &self.kind {
            NodeKind::Dir { entries, .. } => Ok(entries),
            _ => err(Errno::ENOTDIR, ""),
        }
    }

    pub fn dir_entries_mut(&mut self) -> VfsResult<&mut BTreeMap<String, Ino>> {
        match &mut self.kind {
            NodeKind::Dir { entries, .. } => Ok(entries),
            _ => err(Errno::ENOTDIR, ""),
        }
    }
}

pub(crate) struct OpenFile {
    pub ino: Ino,
    pub flags: OpenFlags,
    pub offset: u64,
    pub path: VPath,
    pub wrote: bool,
    /// Uid the handle is charged to; reclaim closes every handle owned by a
    /// killed process.
    pub owner: Uid,
}

/// One lock shard: a slice of the inode table plus a slice of the
/// open-handle table.
#[derive(Default)]
pub(crate) struct Shard {
    pub inodes: HashMap<u64, Inode>,
    pub handles: HashMap<u64, OpenFile>,
}

/// The sharded tables. Ids are allocated from atomics (never reused), so an
/// inode or fd number identifies its shard for its whole lifetime.
pub(crate) struct Tables {
    shards: Box<[RwLock<Shard>]>,
    /// Per-shard sequence counters (seqlock discipline): **odd while a
    /// writer holds the shard's write lock, even otherwise**. [`Tables::lock`]
    /// / [`Tables::lock_all`] bump each acquired shard's counter to odd;
    /// dropping the [`ShardSet`] bumps it back to even *before* the write
    /// guards release. An optimistic reader (see [`crate::readpath`])
    /// snapshots the counter, reads published data without any lock, and
    /// validates that the counter is still the same even value — any
    /// intervening write-lock acquisition is therefore detected, even if the
    /// writer mutated nothing. Counters start at 2 so that 0 can serve as a
    /// never-published sentinel in readpath stamps.
    seqs: Box<[AtomicU64]>,
    next_ino: AtomicU64,
    next_fd: AtomicU64,
    /// Open handles across all shards, maintained at insert/remove time so
    /// the global `max_open_files` check needs no cross-shard pass.
    handle_count: AtomicUsize,
    /// Inode read-lock acquisitions via [`Tables::with_inode`] — the
    /// deterministic cost metric behind the E22 dcache claim (a warm cached
    /// walk takes far fewer of these than a cold hop-by-hop one).
    inode_reads: AtomicU64,
    /// Every shard-lock acquisition on these tables: one per
    /// [`Tables::with_inode`] / [`Tables::with_handle`] /
    /// [`Tables::read_shard`] call and one per shard write-locked by
    /// [`Tables::lock`] / [`Tables::lock_all`]. This is the deterministic
    /// cost metric behind the E25 lock-free read path ("0 locks per warm
    /// stat"); dcache-internal stripe locks and rctl bucket locks are
    /// deliberately excluded — the contended scaling wall is here.
    lock_acquisitions: AtomicU64,
}

impl Tables {
    pub fn new(shards: usize) -> Tables {
        let n = shards.max(1);
        Tables {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            seqs: (0..n).map(|_| AtomicU64::new(2)).collect(),
            next_ino: AtomicU64::new(2),
            next_fd: AtomicU64::new(3),
            handle_count: AtomicUsize::new(0),
            inode_reads: AtomicU64::new(0),
            lock_acquisitions: AtomicU64::new(0),
        }
    }

    /// Total [`Tables::with_inode`] read-lock acquisitions so far.
    pub fn inode_read_count(&self) -> u64 {
        self.inode_reads.load(Ordering::Relaxed)
    }

    /// Total shard-lock acquisitions (read + write) so far.
    pub fn lock_acquisition_count(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Current seqlock value of the shard covering `ino`. Even = no writer
    /// holds the shard; odd = a write-locked mutation is in flight.
    /// `SeqCst` so an optimistic reader's snapshot/validate pair can never
    /// be reordered around its lock-free data reads.
    #[inline]
    pub fn seq_of_ino(&self, ino: Ino) -> u64 {
        self.seqs[self.shard_of_ino(ino)].load(Ordering::SeqCst)
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    pub fn shard_of_ino(&self, ino: Ino) -> usize {
        (ino.0 as usize) % self.shards.len()
    }

    #[inline]
    pub fn shard_of_fd(&self, fd: u64) -> usize {
        (fd as usize) % self.shards.len()
    }

    /// Allocate a fresh inode number (never reused).
    pub fn alloc_ino(&self) -> Ino {
        Ino(self.next_ino.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocate a fresh fd number (never reused).
    pub fn alloc_fd(&self) -> u64 {
        self.next_fd.fetch_add(1, Ordering::Relaxed)
    }

    /// Raise the inode allocator so the next [`Tables::alloc_ino`] returns
    /// at least `floor`. Journal restore installs inodes under their
    /// *original* numbers; advancing the allocator past them keeps the
    /// never-reused guarantee across the crash boundary.
    pub fn ensure_ino_floor(&self, floor: u64) {
        self.next_ino.fetch_max(floor, Ordering::Relaxed);
    }

    /// Raise the fd allocator to at least `floor`. A restored filesystem
    /// starts with an empty handle table; keeping fd numbering past the
    /// pre-crash watermark means a stale descriptor can never alias a new
    /// open — it fails `EBADF` forever.
    pub fn ensure_fd_floor(&self, floor: u64) {
        self.next_fd.fetch_max(floor, Ordering::Relaxed);
    }

    /// Current inode-allocator watermark (the next number to be handed out).
    pub fn ino_watermark(&self) -> u64 {
        self.next_ino.load(Ordering::Relaxed)
    }

    /// Current fd-allocator watermark.
    pub fn fd_watermark(&self) -> u64 {
        self.next_fd.load(Ordering::Relaxed)
    }

    /// Open handles across all shards (exact: maintained atomically at
    /// insert/remove).
    pub fn handle_count(&self) -> usize {
        self.handle_count.load(Ordering::Relaxed)
    }

    /// Reserve one handle slot against `cap`; the caller must either commit
    /// the slot by inserting a handle through a [`ShardSet`] (which does NOT
    /// re-increment) or release it. Returns false when the table is full.
    pub fn try_reserve_handle(&self, cap: usize) -> bool {
        self.handle_count
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                if c >= cap {
                    None
                } else {
                    Some(c + 1)
                }
            })
            .is_ok()
    }

    /// Release a reserved (or freed) handle slot.
    pub fn release_handle_slot(&self) {
        self.handle_count.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, Shard> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.shards[idx].read()
    }

    /// Copy data out of one inode under its shard's read lock. The closure
    /// MUST NOT take any other lock. `EIO` when the inode is gone.
    pub fn with_inode<R>(&self, ino: Ino, f: impl FnOnce(&Inode) -> R) -> VfsResult<R> {
        self.with_inode_at(ino, |n, _| f(n))
    }

    /// [`Tables::with_inode`], also handing the closure the shard's current
    /// seqlock value. While the read lock is held no writer can hold the
    /// shard, so the value is even and stable for the whole closure — it is
    /// the stamp an optimistic-cache fill publishes under (see
    /// [`crate::readpath`]): the filled block stays valid exactly until the
    /// next write-lock acquisition bumps the counter.
    pub fn with_inode_at<R>(&self, ino: Ino, f: impl FnOnce(&Inode, u64) -> R) -> VfsResult<R> {
        self.inode_reads.fetch_add(1, Ordering::Relaxed);
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        let idx = self.shard_of_ino(ino);
        let shard = self.shards[idx].read();
        let seq = self.seqs[idx].load(Ordering::SeqCst);
        match shard.inodes.get(&ino.0) {
            Some(n) => Ok(f(n, seq)),
            None => Err(VfsError::new(Errno::EIO, format!("{ino}"))),
        }
    }

    /// Copy data out of one open handle under its shard's read lock.
    pub fn with_handle<R>(&self, fd: u64, f: impl FnOnce(&OpenFile) -> R) -> Option<R> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards[self.shard_of_fd(fd)].read();
        shard.handles.get(&fd).map(f)
    }

    /// Write-lock the shards covering `keys`, in ascending shard order
    /// (the canonical order — every multi-shard writer uses it, so no
    /// deadlock is possible). Each acquired shard's seqlock is bumped to
    /// odd; dropping the returned set bumps it back to even before the
    /// guards release.
    pub fn lock(&self, keys: &[LockKey]) -> ShardSet<'_> {
        let mut idxs: Vec<usize> = keys
            .iter()
            .map(|k| match *k {
                LockKey::Ino(i) => self.shard_of_ino(i),
                LockKey::Fd(f) => self.shard_of_fd(f),
            })
            .collect();
        idxs.sort_unstable();
        idxs.dedup();
        let guards = idxs
            .into_iter()
            .map(|i| {
                self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                let g = self.shards[i].write();
                self.seqs[i].fetch_add(1, Ordering::SeqCst); // → odd: writer in
                (i, g)
            })
            .collect();
        ShardSet {
            tables: self,
            guards,
        }
    }

    /// Write-lock every shard, ascending — for whole-tree operations
    /// (recursive rmdir, reclaim, invariant checking).
    pub fn lock_all(&self) -> ShardSet<'_> {
        ShardSet {
            tables: self,
            guards: (0..self.shards.len())
                .map(|i| {
                    self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
                    let g = self.shards[i].write();
                    self.seqs[i].fetch_add(1, Ordering::SeqCst); // → odd
                    (i, g)
                })
                .collect(),
        }
    }
}

/// What a [`Tables::lock`] set must cover.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LockKey {
    Ino(Ino),
    Fd(u64),
}

/// A set of write-locked shards, acquired in canonical (ascending) order.
/// All inode/handle access inside a mutation's critical section goes
/// through this, which routes each id to its held guard.
pub(crate) struct ShardSet<'a> {
    tables: &'a Tables,
    guards: Vec<(usize, RwLockWriteGuard<'a, Shard>)>,
}

impl Drop for ShardSet<'_> {
    fn drop(&mut self) {
        // Writer out: restore each shard's seqlock to even while the write
        // guards are still held (the guards in `self.guards` drop after this
        // body), so an odd counter always means "write lock held" and a
        // counter observed even at two points brackets a writer-free window.
        for (i, _) in &self.guards {
            self.tables.seqs[*i].fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl ShardSet<'_> {
    fn guard(&self, idx: usize) -> VfsResult<&Shard> {
        match self.guards.binary_search_by_key(&idx, |(i, _)| *i) {
            Ok(pos) => Ok(&self.guards[pos].1),
            Err(_) => err(Errno::EIO, "shard not locked"),
        }
    }

    fn guard_mut(&mut self, idx: usize) -> VfsResult<&mut Shard> {
        match self.guards.binary_search_by_key(&idx, |(i, _)| *i) {
            Ok(pos) => Ok(&mut self.guards[pos].1),
            Err(_) => err(Errno::EIO, "shard not locked"),
        }
    }

    pub fn inode(&self, ino: Ino) -> VfsResult<&Inode> {
        self.guard(self.tables.shard_of_ino(ino))?
            .inodes
            .get(&ino.0)
            .ok_or_else(|| VfsError::new(Errno::EIO, format!("{ino}")))
    }

    pub fn inode_mut(&mut self, ino: Ino) -> VfsResult<&mut Inode> {
        let idx = self.tables.shard_of_ino(ino);
        self.guard_mut(idx)?
            .inodes
            .get_mut(&ino.0)
            .ok_or_else(|| VfsError::new(Errno::EIO, format!("{ino}")))
    }

    pub fn insert_inode(&mut self, ino: Ino, inode: Inode) {
        let idx = self.tables.shard_of_ino(ino);
        self.guard_mut(idx)
            .expect("new inode's shard must be locked")
            .inodes
            .insert(ino.0, inode);
    }

    pub fn remove_inode(&mut self, ino: Ino) -> Option<Inode> {
        let idx = self.tables.shard_of_ino(ino);
        self.guard_mut(idx).ok()?.inodes.remove(&ino.0)
    }

    pub fn handle(&self, fd: u64) -> Option<&OpenFile> {
        self.guard(self.tables.shard_of_fd(fd))
            .ok()?
            .handles
            .get(&fd)
    }

    pub fn handle_mut(&mut self, fd: u64) -> Option<&mut OpenFile> {
        let idx = self.tables.shard_of_fd(fd);
        self.guard_mut(idx).ok()?.handles.get_mut(&fd)
    }

    /// Insert a handle whose slot was already reserved via
    /// [`Tables::try_reserve_handle`] (does not bump the global count).
    pub fn insert_handle_reserved(&mut self, fd: u64, h: OpenFile) {
        let idx = self.tables.shard_of_fd(fd);
        self.guard_mut(idx)
            .expect("new handle's shard must be locked")
            .handles
            .insert(fd, h);
    }

    /// Remove a handle, releasing its global slot.
    pub fn remove_handle(&mut self, fd: u64) -> Option<OpenFile> {
        let idx = self.tables.shard_of_fd(fd);
        let h = self.guard_mut(idx).ok()?.handles.remove(&fd);
        if h.is_some() {
            self.tables.release_handle_slot();
        }
        h
    }

    /// Optimistic-concurrency check: does `parent` still hold exactly the
    /// directory-entry binding the caller resolved before locking? When this
    /// returns false the caller must drop the set and retry from resolution.
    pub fn entry_is(&self, parent: Ino, name: &str, expect: Option<Ino>) -> bool {
        match self.inode(parent) {
            Ok(node) => match &node.kind {
                NodeKind::Dir { entries, .. } => entries.get(name).copied() == expect,
                _ => false,
            },
            Err(_) => false,
        }
    }

    /// Every fd owned by `uid`, across all locked shards, sorted. Only
    /// meaningful on a [`Tables::lock_all`] set.
    pub fn fds_of(&self, uid: Uid) -> Vec<u64> {
        let mut fds: Vec<u64> = self
            .guards
            .iter()
            .flat_map(|(_, s)| {
                s.handles
                    .iter()
                    .filter(|(_, h)| h.owner == uid)
                    .map(|(fd, _)| *fd)
            })
            .collect();
        fds.sort_unstable();
        fds
    }

    /// Every inode id present, sorted. Only meaningful on a lock-all set.
    pub fn all_inos(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .guards
            .iter()
            .flat_map(|(_, s)| s.inodes.keys().copied())
            .collect();
        v.sort_unstable();
        v
    }

    /// Total open handles present. Only meaningful on a lock-all set.
    pub fn total_handles(&self) -> usize {
        self.guards.iter().map(|(_, s)| s.handles.len()).sum()
    }

    /// The target inode of every open handle, one entry per handle. Only
    /// meaningful on a lock-all set.
    pub fn handle_targets(&self) -> Vec<Ino> {
        self.guards
            .iter()
            .flat_map(|(_, s)| s.handles.values().map(|h| h.ino))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inode() -> Inode {
        Inode::new(
            NodeKind::File(Vec::new()),
            Mode::FILE_DEFAULT,
            Uid(0),
            Gid(0),
            Timestamp(0),
        )
    }

    #[test]
    fn ids_route_to_stable_shards() {
        let t = Tables::new(4);
        for raw in 1..64u64 {
            assert_eq!(t.shard_of_ino(Ino(raw)), (raw % 4) as usize);
            assert_eq!(t.shard_of_fd(raw), (raw % 4) as usize);
        }
        assert_eq!(Tables::new(0).shard_count(), 1); // clamped
    }

    #[test]
    fn lock_orders_and_dedupes() {
        let t = Tables::new(8);
        let set = t.lock(&[
            LockKey::Ino(Ino(13)),
            LockKey::Ino(Ino(5)),
            LockKey::Fd(13),
            LockKey::Ino(Ino(21)),
        ]);
        let idxs: Vec<usize> = set.guards.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![5]); // 13%8, 5%8, 21%8 all == 5
        drop(set);
        let set = t.lock(&[LockKey::Ino(Ino(7)), LockKey::Ino(Ino(2))]);
        let idxs: Vec<usize> = set.guards.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![2, 7]);
    }

    #[test]
    fn shardset_rejects_unlocked_shard() {
        let t = Tables::new(8);
        let set = t.lock(&[LockKey::Ino(Ino(1))]);
        assert_eq!(set.inode(Ino(2)).unwrap_err().errno, Errno::EIO);
    }

    #[test]
    fn handle_slot_reservation_is_exact() {
        let t = Tables::new(2);
        assert!(t.try_reserve_handle(2));
        assert!(t.try_reserve_handle(2));
        assert!(!t.try_reserve_handle(2));
        t.release_handle_slot();
        assert!(t.try_reserve_handle(2));
        assert_eq!(t.handle_count(), 2);
    }

    #[test]
    fn seqlock_is_odd_exactly_while_write_locked() {
        let t = Tables::new(4);
        let ino = Ino(6); // shard 2
        let s0 = t.seq_of_ino(ino);
        assert_eq!(s0 % 2, 0, "quiescent seq must be even");
        assert_eq!(s0, 2, "seqs start at 2 (0 = never-published sentinel)");
        {
            let set = t.lock(&[LockKey::Ino(ino)]);
            assert_eq!(t.seq_of_ino(ino), s0 + 1, "odd while write-locked");
            // Untouched shards keep their counters.
            assert_eq!(t.seq_of_ino(Ino(7)), 2);
            drop(set);
        }
        assert_eq!(t.seq_of_ino(ino), s0 + 2, "even again after drop");
        // lock_all bumps every shard once (odd), drop restores all.
        drop(t.lock_all());
        for raw in 0..4u64 {
            assert_eq!(t.seq_of_ino(Ino(raw)) % 2, 0);
        }
    }

    #[test]
    fn lock_acquisitions_count_reads_and_per_shard_writes() {
        let t = Tables::new(4);
        let base = t.lock_acquisition_count();
        let ino = t.alloc_ino();
        {
            let mut set = t.lock(&[LockKey::Ino(ino)]);
            set.insert_inode(ino, inode());
        }
        assert_eq!(t.lock_acquisition_count(), base + 1); // one shard write
        t.with_inode(ino, |_| ()).unwrap();
        assert_eq!(t.lock_acquisition_count(), base + 2);
        let _ = t.with_handle(99, |_| ());
        assert_eq!(t.lock_acquisition_count(), base + 3);
        // A two-shard write set is two acquisitions; lock_all is one per shard.
        drop(t.lock(&[LockKey::Ino(Ino(4)), LockKey::Ino(Ino(5))]));
        assert_eq!(t.lock_acquisition_count(), base + 5);
        drop(t.lock_all());
        assert_eq!(t.lock_acquisition_count(), base + 9);
    }

    #[test]
    fn with_inode_at_sees_a_stable_even_seq() {
        let t = Tables::new(2);
        let ino = t.alloc_ino();
        {
            let mut set = t.lock(&[LockKey::Ino(ino)]);
            set.insert_inode(ino, inode());
        }
        let outside = t.seq_of_ino(ino);
        let inside = t.with_inode_at(ino, |_, seq| seq).unwrap();
        assert_eq!(inside, outside);
        assert_eq!(inside % 2, 0);
    }

    #[test]
    fn insert_and_entry_check() {
        let t = Tables::new(4);
        let ino = t.alloc_ino();
        {
            let mut set = t.lock(&[LockKey::Ino(ino)]);
            set.insert_inode(ino, inode());
            assert!(set.inode(ino).is_ok());
        }
        let got = t.with_inode(ino, |n| n.nlink).unwrap();
        assert_eq!(got, 1);
    }
}
