//! The optimistic lock-free read path (seqlock-validated attribute cache).
//!
//! ROADMAP item 5 / DESIGN.md §12: after the dcache removed the per-hop
//! inode-table reads from warm resolution (E22), every warm `stat` still
//! paid one shard read lock for the final attribute read, and every
//! descriptor op paid one for the fd→inode hop. On the multi-core hardware
//! items 3/4 target, those read locks are the scaling wall: they bounce a
//! cache line per acquisition even when nothing conflicts. This module
//! removes them:
//!
//! * **Attribute blocks** ([`AttrBlock`]): every scalar `stat` needs —
//!   mode, uid, gid, size, nlink, mtime, ctime, kind — packed into plain
//!   atomics, lazily filled by the *locked* fallback path and validated
//!   against the owning shard's seqlock (see [`crate::shard::Tables`]).
//!   A block is served only while `stamp == current shard seq` (even):
//!   since **every** write-lock acquisition on the shard bumps the seq,
//!   a served block is bit-identical to what the locked read would have
//!   returned at the instant the seq was sampled. Readers retry on a
//!   transient odd seq (writer in flight) up to [`ReadPath::RETRY_LIMIT`]
//!   times, then fall back to the locked path — the fallback *is* the
//!   fill, so a retry storm converges instead of spinning.
//! * **Handle blocks** ([`HandleBlock`]): an open descriptor's identity
//!   (target inode, owner, flags, open-time path) is immutable for the
//!   descriptor's lifetime and fd numbers are never reused, so these need
//!   no seqlock at all — just a monotonic `empty → open → closed` state
//!   published with release/acquire. Only the mutable offset stays behind
//!   the shard locks.
//!
//! Both tables are paged and indexed directly by id (ino / fd numbers are
//! allocated monotonically and never reused), so a lookup is two array
//! indexes — no hashing, no probing, no locks. Everything is counted:
//! `optimistic_hits`, `optimistic_retries`, `fallbacks` and the tables'
//! `lock_acquisitions` are surfaced under `<proc>/vfs/readpath/` and pinned
//! by E25 ("0 locks per warm stat") the same way E4/E5/E22 are pinned —
//! wall-clock on this 1-core host proves nothing; counters do.
//!
//! Safety note: this is a seqlock in *safe* Rust — readers never alias
//! writer-mutated memory. The mutable filesystem state (HashMaps, file
//! contents) is only ever touched under the shard locks; what readers see
//! lock-free is a redundant copy held entirely in atomics, and the seqlock
//! only decides whether that copy is current.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::shard::Tables;
use crate::types::{FileStat, FileType, Gid, Ino, Mode, OpenFlags, Timestamp, Uid};

/// Slots per lazily-allocated page.
const PAGE_SLOTS: u64 = 1024;
/// Pages per table: ids beyond `PAGE_SLOTS * MAX_PAGES` simply never get a
/// block and always take the locked path (graceful, not wrong).
const MAX_PAGES: u64 = 4096;

/// A lazily-paged, append-only slot table indexed directly by id. Pages
/// materialize on first publish; a slot, once allocated, lives for the
/// table's lifetime (ids are never reused, so there is nothing to evict —
/// stale blocks are simply never valid again).
struct SlotTable<T> {
    pages: Box<[OnceLock<Box<[T]>>]>,
}

impl<T: Default> SlotTable<T> {
    fn new() -> Self {
        SlotTable {
            pages: (0..MAX_PAGES).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The slot for `id`, if its page has ever been materialized.
    #[inline]
    fn get(&self, id: u64) -> Option<&T> {
        let page = self.pages.get((id / PAGE_SLOTS) as usize)?.get()?;
        Some(&page[(id % PAGE_SLOTS) as usize])
    }

    /// The slot for `id`, materializing its page. `None` only beyond the
    /// table's fixed id range. Page init may block briefly on a racing
    /// first touch; it takes no shard lock, so no lock-order interaction.
    #[inline]
    fn get_or_init(&self, id: u64) -> Option<&T> {
        let page = self.pages.get((id / PAGE_SLOTS) as usize)?;
        let page = page.get_or_init(|| (0..PAGE_SLOTS).map(|_| T::default()).collect());
        Some(&page[(id % PAGE_SLOTS) as usize])
    }
}

/// One inode's stat attributes as plain atomics, plus the two validation
/// words: `bseq` (per-block publish counter: odd while a fill is storing
/// fields, bumped by 2 per fill) and `stamp` (the owning shard's seqlock
/// value the fields were read under; 0 = never filled).
#[derive(Default)]
struct AttrBlock {
    bseq: AtomicU64,
    stamp: AtomicU64,
    mode: AtomicU64,
    uid: AtomicU64,
    gid: AtomicU64,
    size: AtomicU64,
    nlink: AtomicU64,
    mtime: AtomicU64,
    ctime: AtomicU64,
    /// Bits 0..2: file type (0 regular / 1 dir / 2 symlink); bit 2: the
    /// inode carries an ACL (non-scalar — perm-sensitive callers must take
    /// the locked path to consult it).
    kind_acl: AtomicU64,
}

fn kind_code(ft: FileType) -> u64 {
    match ft {
        FileType::Regular => 0,
        FileType::Directory => 1,
        FileType::Symlink => 2,
    }
}

fn code_kind(code: u64) -> FileType {
    match code {
        1 => FileType::Directory,
        2 => FileType::Symlink,
        _ => FileType::Regular,
    }
}

/// Immutable identity of an open descriptor, published once at open.
/// The mutable parts of a handle (offset, wrote) stay under the shard
/// locks and are not mirrored here.
pub(crate) struct HandleMeta {
    pub ino: Ino,
    pub owner: Uid,
    pub flags: OpenFlags,
    pub path: String,
}

/// `state` is monotonic — 0 empty, 1 publishing, 2 open, 3 closed — and fd
/// numbers are never reused, so a reader that observes `open` (acquire)
/// may use every field without further validation.
#[derive(Default)]
struct HandleBlock {
    state: AtomicU64,
    ino: AtomicU64,
    owner: AtomicU64,
    /// Bit 0 read, 1 write, 2 create, 3 excl, 4 truncate, 5 append.
    flags: AtomicU64,
    path: OnceLock<String>,
}

const H_EMPTY: u64 = 0;
const H_PUBLISHING: u64 = 1;
const H_OPEN: u64 = 2;
const H_CLOSED: u64 = 3;

fn pack_flags(f: OpenFlags) -> u64 {
    u64::from(f.read)
        | u64::from(f.write) << 1
        | u64::from(f.create) << 2
        | u64::from(f.excl) << 3
        | u64::from(f.truncate) << 4
        | u64::from(f.append) << 5
}

fn unpack_flags(bits: u64) -> OpenFlags {
    OpenFlags {
        read: bits & 1 != 0,
        write: bits & 2 != 0,
        create: bits & 4 != 0,
        excl: bits & 8 != 0,
        truncate: bits & 16 != 0,
        append: bits & 32 != 0,
    }
}

/// Counter snapshot of the optimistic read path, also surfaced at
/// `<proc>/vfs/readpath/*`. All figures are lifetime totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Whether the optimistic path participates at all (see
    /// [`crate::FsBuilder::readpath`]).
    pub enabled: bool,
    /// Reads served entirely lock-free from a validated block.
    pub optimistic_hits: u64,
    /// Snapshot/validate attempts abandoned because a writer held the
    /// shard (odd seq) or a concurrent fill moved the block mid-read.
    pub optimistic_retries: u64,
    /// Optimistic attempts that gave up and took the locked path —
    /// cold blocks, stale stamps, ACL-bearing inodes, exhausted retries.
    pub fallbacks: u64,
    /// Attribute blocks (re)published by the locked fallback path.
    pub attr_fills: u64,
    /// Handle blocks published at open.
    pub handle_publishes: u64,
    /// Shard-lock acquisitions on the inode/handle tables (read + write),
    /// as returned by [`crate::Filesystem::lock_acquisitions`]. The E25 law:
    /// a warm stat moves `optimistic_hits` and leaves this unchanged.
    pub lock_acquisitions: u64,
}

/// What an optimistic attribute read concluded.
pub(crate) enum AttrRead {
    /// Served lock-free, linearized at the shard-seq sample. (The block
    /// also carries a has-ACL bit for perm-dependent consumers; `stat`
    /// needs no target permission, so nothing reads it yet.)
    Hit(FileStat),
    /// Take the locked path (and refill).
    Fallback,
}

/// What an optimistic handle-meta read concluded.
pub(crate) enum HandleRead {
    /// The descriptor is open; identity fields follow.
    Open(HandleMeta),
    /// Unknown/still-publishing/closed — take the locked path, which owns
    /// the authoritative `EBADF` answer (and its exact legacy accounting).
    Fallback,
}

/// The lock-free read path: block tables + counters. One per
/// [`crate::Filesystem`], shared by reference with the proc closures.
pub(crate) struct ReadPath {
    enabled: bool,
    attrs: SlotTable<AttrBlock>,
    handles: SlotTable<HandleBlock>,
    optimistic_hits: AtomicU64,
    optimistic_retries: AtomicU64,
    fallbacks: AtomicU64,
    attr_fills: AtomicU64,
    handle_publishes: AtomicU64,
}

impl ReadPath {
    /// Transient-writer retries before an optimistic read gives up and
    /// takes the locked path. Small and fixed: the fallback ladder (not
    /// patience) is what bounds worst-case work, and the retry-storm test
    /// asserts total retries per op ≤ this.
    pub const RETRY_LIMIT: u32 = 3;

    pub fn new(enabled: bool) -> Self {
        ReadPath {
            enabled,
            attrs: SlotTable::new(),
            handles: SlotTable::new(),
            optimistic_hits: AtomicU64::new(0),
            optimistic_retries: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            attr_fills: AtomicU64::new(0),
            handle_publishes: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn stats(&self, tables: &Tables) -> ReadPathStats {
        ReadPathStats {
            enabled: self.enabled,
            optimistic_hits: self.optimistic_hits.load(Ordering::Relaxed),
            optimistic_retries: self.optimistic_retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            attr_fills: self.attr_fills.load(Ordering::Relaxed),
            handle_publishes: self.handle_publishes.load(Ordering::Relaxed),
            lock_acquisitions: tables.lock_acquisition_count(),
        }
    }

    // ------------------------------------------------------------
    // Attribute blocks
    // ------------------------------------------------------------

    /// Optimistic stat: serve `ino`'s attributes without any table lock,
    /// or direct the caller to the locked fallback. The ladder:
    ///
    /// 1. odd shard seq → writer in flight → retry (≤ RETRY_LIMIT), then
    ///    fallback;
    /// 2. even seq but `stamp != seq` → the block predates a write-lock
    ///    acquisition somewhere in the shard → fallback (which refills);
    /// 3. `bseq` moved across the field reads → concurrent refill →
    ///    retry, then fallback;
    /// 4. clean → linearize the read at the seq sample: every field is
    ///    exactly what the locked read would have copied at that instant.
    pub fn read_attr(&self, tables: &Tables, ino: Ino) -> AttrRead {
        if !self.enabled {
            return AttrRead::Fallback;
        }
        let block = match self.attrs.get(ino.0) {
            Some(b) => b,
            None => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                return AttrRead::Fallback;
            }
        };
        for _ in 0..=Self::RETRY_LIMIT {
            let seq = tables.seq_of_ino(ino);
            if seq & 1 == 1 {
                // Transient: a writer holds the shard right now.
                self.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let b0 = block.bseq.load(Ordering::SeqCst);
            if b0 & 1 == 1 {
                // A fill is mid-publish; it is about to finish.
                self.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if block.stamp.load(Ordering::SeqCst) != seq {
                // Never filled, or some write-locked mutation touched the
                // shard since the fill. Only the locked path can tell what
                // changed — and it refills the block on the way.
                break;
            }
            let st = FileStat {
                ino,
                file_type: code_kind(block.kind_acl.load(Ordering::SeqCst) & 0b11),
                mode: Mode(block.mode.load(Ordering::SeqCst) as u16),
                uid: Uid(block.uid.load(Ordering::SeqCst) as u32),
                gid: Gid(block.gid.load(Ordering::SeqCst) as u32),
                size: block.size.load(Ordering::SeqCst),
                nlink: block.nlink.load(Ordering::SeqCst) as u32,
                mtime: Timestamp(block.mtime.load(Ordering::SeqCst)),
                ctime: Timestamp(block.ctime.load(Ordering::SeqCst)),
            };
            if block.bseq.load(Ordering::SeqCst) != b0 {
                // Torn against a concurrent refill; the refill is done or
                // nearly done, so retrying is cheap.
                self.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.optimistic_hits.fetch_add(1, Ordering::Relaxed);
            return AttrRead::Hit(st);
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        AttrRead::Fallback
    }

    /// Publish `ino`'s attributes as read by the locked fallback path.
    /// `seq` MUST be the shard's seqlock value sampled *while holding the
    /// shard's read lock* ([`Tables::with_inode_at`]) — under the read
    /// lock no writer holds the shard, so `seq` is even and the fields are
    /// exactly the shard state for the whole seq window. Publishing late
    /// (after the window closed) is harmless: the stale stamp simply never
    /// validates. Concurrent fills are serialized by a CAS to odd on
    /// `bseq`; losers skip the publish (they already have their answer).
    pub fn publish_attr(&self, seq: u64, st: &FileStat, has_acl: bool) {
        if !self.enabled {
            return;
        }
        let block = match self.attrs.get_or_init(st.ino.0) {
            Some(b) => b,
            None => return, // beyond the table's id range
        };
        let b0 = block.bseq.load(Ordering::SeqCst);
        if b0 & 1 == 1 {
            return; // another fill is mid-publish
        }
        if block
            .bseq
            .compare_exchange(b0, b0 + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        // Invalidate before storing: a reader racing this fill sees either
        // an odd bseq (retries) or a moved bseq (retries) — never a torn
        // mix validated by an old stamp.
        block.stamp.store(0, Ordering::SeqCst);
        block.mode.store(u64::from(st.mode.0), Ordering::SeqCst);
        block.uid.store(u64::from(st.uid.0), Ordering::SeqCst);
        block.gid.store(u64::from(st.gid.0), Ordering::SeqCst);
        block.size.store(st.size, Ordering::SeqCst);
        block.nlink.store(u64::from(st.nlink), Ordering::SeqCst);
        block.mtime.store(st.mtime.0, Ordering::SeqCst);
        block.ctime.store(st.ctime.0, Ordering::SeqCst);
        block.kind_acl.store(
            kind_code(st.file_type) | (u64::from(has_acl)) << 2,
            Ordering::SeqCst,
        );
        block.stamp.store(seq, Ordering::SeqCst);
        block.bseq.store(b0 + 2, Ordering::SeqCst);
        self.attr_fills.fetch_add(1, Ordering::Relaxed);
    }

    /// An inode's kind from its block, valid even when the stamp is stale:
    /// kind is immutable for the lifetime of an inode number, so any
    /// completed fill (bseq ≥ 2, even, unmoved) answers it. `None` until a
    /// first fill — the caller pays one locked read then.
    pub fn kind_of(&self, ino: Ino) -> Option<FileType> {
        if !self.enabled {
            return None;
        }
        let block = self.attrs.get(ino.0)?;
        for _ in 0..=Self::RETRY_LIMIT {
            let b0 = block.bseq.load(Ordering::SeqCst);
            if b0 < 2 {
                return None;
            }
            if b0 & 1 == 1 {
                self.optimistic_retries.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let kind = code_kind(block.kind_acl.load(Ordering::SeqCst) & 0b11);
            if block.bseq.load(Ordering::SeqCst) == b0 {
                return Some(kind);
            }
            self.optimistic_retries.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    // ------------------------------------------------------------
    // Handle blocks
    // ------------------------------------------------------------

    /// Publish an open descriptor's immutable identity. Called once per
    /// fd, right after the handle is inserted under the shard write locks.
    pub fn publish_handle(&self, fd: u64, ino: Ino, owner: Uid, flags: OpenFlags, path: String) {
        if !self.enabled {
            return;
        }
        let block = match self.handles.get_or_init(fd) {
            Some(b) => b,
            None => return,
        };
        if block
            .state
            .compare_exchange(H_EMPTY, H_PUBLISHING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // impossible for a never-reused fd, but stay safe
        }
        block.ino.store(ino.0, Ordering::SeqCst);
        block.owner.store(u64::from(owner.0), Ordering::SeqCst);
        block.flags.store(pack_flags(flags), Ordering::SeqCst);
        let _ = block.path.set(path);
        block.state.store(H_OPEN, Ordering::SeqCst);
        self.handle_publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark `fd` closed. Called with the handle-removal's shard locks
    /// held; once set the state never changes again (fds are not reused).
    pub fn close_handle(&self, fd: u64) {
        if !self.enabled {
            return;
        }
        if let Some(block) = self.handles.get(fd) {
            let s = block.state.load(Ordering::SeqCst);
            if s == H_OPEN || s == H_PUBLISHING {
                block.state.store(H_CLOSED, Ordering::SeqCst);
            }
        }
    }

    /// Optimistic fd→identity hop: zero locks when the block says *open*.
    /// Anything else (never published, still publishing, closed, out of
    /// range, disabled) falls back to the locked lookup so `EBADF` paths
    /// keep their exact legacy errno/accounting behaviour.
    pub fn read_handle(&self, fd: u64) -> HandleRead {
        if !self.enabled {
            return HandleRead::Fallback;
        }
        let block = match self.handles.get(fd) {
            Some(b) => b,
            None => return HandleRead::Fallback,
        };
        if block.state.load(Ordering::SeqCst) != H_OPEN {
            return HandleRead::Fallback;
        }
        let path = match block.path.get() {
            Some(p) => p.clone(),
            None => return HandleRead::Fallback,
        };
        self.optimistic_hits.fetch_add(1, Ordering::Relaxed);
        HandleRead::Open(HandleMeta {
            ino: Ino(block.ino.load(Ordering::SeqCst)),
            owner: Uid(block.owner.load(Ordering::SeqCst) as u32),
            flags: unpack_flags(block.flags.load(Ordering::SeqCst)),
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::LockKey;

    fn stat(ino: Ino) -> FileStat {
        FileStat {
            ino,
            file_type: FileType::Regular,
            mode: Mode(0o640),
            uid: Uid(7),
            gid: Gid(8),
            size: 42,
            nlink: 2,
            mtime: Timestamp(11),
            ctime: Timestamp(12),
        }
    }

    #[test]
    fn attr_roundtrip_validates_until_any_shard_write() {
        let t = Tables::new(4);
        let rp = ReadPath::new(true);
        let ino = Ino(9);
        // Cold: no block → fallback.
        assert!(matches!(rp.read_attr(&t, ino), AttrRead::Fallback));
        let seq = t.seq_of_ino(ino);
        rp.publish_attr(seq, &stat(ino), false);
        match rp.read_attr(&t, ino) {
            AttrRead::Hit(st) => assert_eq!(st, stat(ino)),
            AttrRead::Fallback => panic!("published block did not serve"),
        }
        // Any write-lock acquisition on the shard — even one that mutates
        // nothing — invalidates the block.
        drop(t.lock(&[LockKey::Ino(ino)]));
        assert!(matches!(rp.read_attr(&t, ino), AttrRead::Fallback));
        // A write to a *different* shard leaves it valid.
        rp.publish_attr(t.seq_of_ino(ino), &stat(ino), false);
        drop(t.lock(&[LockKey::Ino(Ino(10))]));
        assert!(matches!(rp.read_attr(&t, ino), AttrRead::Hit(..)));
    }

    #[test]
    fn stale_stamp_never_validates_and_kind_survives_staleness() {
        let t = Tables::new(2);
        let rp = ReadPath::new(true);
        let ino = Ino(4);
        let old = t.seq_of_ino(ino);
        drop(t.lock(&[LockKey::Ino(ino)])); // seq moved by 2
        rp.publish_attr(old, &stat(ino), true); // publish under a dead stamp
        assert!(matches!(rp.read_attr(&t, ino), AttrRead::Fallback));
        // ...but the kind (immutable per ino) still serves.
        assert_eq!(rp.kind_of(ino), Some(FileType::Regular));
        assert_eq!(rp.kind_of(Ino(5)), None); // never filled
    }

    #[test]
    fn odd_seq_is_a_bounded_retry_then_fallback() {
        let t = Tables::new(2);
        let rp = ReadPath::new(true);
        let ino = Ino(4);
        rp.publish_attr(t.seq_of_ino(ino), &stat(ino), false);
        let set = t.lock(&[LockKey::Ino(ino)]); // seq now odd
        let retries0 = rp.stats(&t).optimistic_retries;
        assert!(matches!(rp.read_attr(&t, ino), AttrRead::Fallback));
        let s = rp.stats(&t);
        assert_eq!(
            s.optimistic_retries - retries0,
            u64::from(ReadPath::RETRY_LIMIT) + 1,
            "every attempt against a held shard must count as a retry"
        );
        assert!(s.fallbacks > 0);
        drop(set);
    }

    #[test]
    fn handle_lifecycle_is_monotonic() {
        let rp = ReadPath::new(true);
        assert!(matches!(rp.read_handle(3), HandleRead::Fallback));
        rp.publish_handle(3, Ino(9), Uid(5), OpenFlags::read_only(), "/a/b".into());
        match rp.read_handle(3) {
            HandleRead::Open(m) => {
                assert_eq!(m.ino, Ino(9));
                assert_eq!(m.owner, Uid(5));
                assert!(m.flags.read && !m.flags.write);
                assert_eq!(m.path, "/a/b");
            }
            HandleRead::Fallback => panic!("open handle did not serve"),
        }
        rp.close_handle(3);
        assert!(matches!(rp.read_handle(3), HandleRead::Fallback));
        // Closed is forever: a republish attempt cannot resurrect the fd.
        rp.publish_handle(3, Ino(9), Uid(5), OpenFlags::read_only(), "/a/b".into());
        assert!(matches!(rp.read_handle(3), HandleRead::Fallback));
    }

    #[test]
    fn disabled_readpath_is_inert() {
        let t = Tables::new(2);
        let rp = ReadPath::new(false);
        rp.publish_attr(t.seq_of_ino(Ino(2)), &stat(Ino(2)), false);
        rp.publish_handle(3, Ino(2), Uid(0), OpenFlags::read_only(), "/x".into());
        assert!(matches!(rp.read_attr(&t, Ino(2)), AttrRead::Fallback));
        assert!(matches!(rp.read_handle(3), HandleRead::Fallback));
        let s = rp.stats(&t);
        assert_eq!(
            (s.optimistic_hits, s.attr_fills, s.handle_publishes),
            (0, 0, 0)
        );
        assert!(!s.enabled);
    }

    #[test]
    fn flag_packing_roundtrips() {
        for bits in 0..64u64 {
            assert_eq!(pack_flags(unpack_flags(bits)), bits);
        }
    }
}
