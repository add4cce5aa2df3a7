//! Write-ahead journal + snapshot/restore (ROADMAP item 1; paper §6).
//!
//! The paper's durability argument is that a file-system-backed controller
//! gets crash recovery "for free" from the storage layer. This module makes
//! that concrete for the in-memory vfs: every mutating operation appends one
//! compact, versioned, checksummed record to an append-only byte log *while
//! the mutation's shard locks are still held*, so log order is exactly the
//! linearization order of the tree. Periodic snapshots — full-tree captures
//! taken under the global lock — are written *into* the same log as ordinary
//! frames, and compaction drops every byte before the last complete snapshot
//! (the compaction invariant: a record is droppable iff a later snapshot
//! covers it).
//!
//! The log is not a description of what happened: it *is* what happened
//! (do = redo). A live operation builds its `Record` and applies it through
//! the one mutator (`fs/mutate.rs`); the frame appended here is that same
//! record. Restore ([`Filesystem::restore_from_journal`]) scans the log for
//! complete frames, installs the last complete snapshot, and feeds the record
//! suffix to the same mutator: records are inode-keyed and carry the
//! virtual-clock tick of their mutation, so the rebuilt tree is byte-identical
//! to the original — same inode numbers, same `mtime`/`ctime` ticks, same
//! modes/owners/ACLs/xattrs. A truncated or corrupt tail (the crash case) is
//! detected by the frame checksums and simply dropped: no partial record is
//! ever visible.
//!
//! What is deliberately *not* journaled, and why:
//!
//! * **Open-file handles and watches** — kernel-style volatile state; they
//!   die with the process. Snapshots carry the fd-allocator watermark so a
//!   descriptor from before the crash can never alias a new open on the
//!   restored filesystem: it fails `EBADF` forever.
//! * **Proc-mounted paths** (`/net/.proc/...`) — derived state, re-rendered
//!   on every read; journaling it would let introspection disturb what it
//!   measures. Restore leaves the proc subtree absent; re-mounting recreates
//!   it, exactly as a reboot re-mounts `/proc`.
//! * **Unlinked-but-open orphan inodes** — invisible in the tree; their data
//!   is lost at the crash boundary, matching what `O_TMPFILE` data does on a
//!   real machine.
//!
//! The documented remap: dcache generation counters and the allocator
//! watermarks are *not* part of tree identity — a restored filesystem starts
//! with a cold dentry cache and watermarks at least as high as the originals.
//! Everything else round-trips exactly; [`Filesystem::tree_digest`] is the
//! canonical byte-equality check (the cross-fs tree comparison the
//! linearizability harness uses).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::acl::{check_access, Acl, AclEntry};
use crate::counter::OpKind;
use crate::error::{err, Errno, VfsResult};
use crate::fs::{Filesystem, Limits};
use crate::hooks::HookDepth;
use crate::notify::EventKind;
use crate::path::{valid_name, VPath};
use crate::proc::ProcDepth;
use crate::shard::{Inode, NodeKind, ShardSet};
use crate::types::{Access, Credentials, Gid, Ino, Mode, Timestamp, Uid, ROOT_INO};

/// Journal wire-format version; bumped on any frame/record layout change.
pub const JOURNAL_VERSION: u8 = 1;

/// First byte of every frame.
const FRAME_MAGIC: u8 = 0xA5;

/// Frame overhead: magic + version + payload length (u32) + checksum (u32).
const FRAME_OVERHEAD: usize = 10;

// Tags of the two record kinds that are not plain field lists (the rest are
// numbered in the `records!` table).
const K_SNAPSHOT: u8 = 17;
const K_COMMIT: u8 = 18;

// ----------------------------------------------------------------------
// Snapshot
// ----------------------------------------------------------------------

/// A full-tree capture: every inode reachable from the root (proc-covered
/// subtrees excluded), plus the clock and allocator watermarks. Taken under
/// the global lock and appended to the log as an ordinary frame, so a
/// snapshot sits at a well-defined point in the linearization order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SnapshotData {
    pub(crate) clock: u64,
    pub(crate) next_ino: u64,
    pub(crate) next_fd: u64,
    pub(crate) nodes: Vec<SnapNode>,
}

/// One inode in a snapshot, in canonical (ino-sorted) order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapNode {
    pub(crate) ino: u64,
    pub(crate) mode: Mode,
    pub(crate) uid: Uid,
    pub(crate) gid: Gid,
    pub(crate) nlink: u32,
    pub(crate) mtime: u64,
    pub(crate) ctime: u64,
    pub(crate) xattrs: Vec<(String, Vec<u8>)>,
    pub(crate) acl: Option<Acl>,
    pub(crate) payload: SnapPayload,
}

/// Kind-specific inode payload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SnapPayload {
    File(Vec<u8>),
    Symlink(String),
    Dir {
        parent: u64,
        entries: Vec<(String, u64)>,
    },
}

impl SnapshotData {
    /// Canonical byte encoding of the tree *content* — excludes the clock
    /// and allocator watermarks (the documented remap). Two filesystems are
    /// tree-identical iff their bodies are byte-equal.
    pub(crate) fn encode_body(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.nodes.len() as u32);
        for n in &self.nodes {
            e.u64(n.ino);
            e.u16(n.mode.0);
            e.u32(n.uid.0);
            e.u32(n.gid.0);
            e.u32(n.nlink);
            e.u64(n.mtime);
            e.u64(n.ctime);
            e.u32(n.xattrs.len() as u32);
            for (k, v) in &n.xattrs {
                e.str(k);
                e.bytes(v);
            }
            enc_acl_opt(&mut e, n.acl.as_ref());
            match &n.payload {
                SnapPayload::File(d) => {
                    e.u8(0);
                    e.bytes(d);
                }
                SnapPayload::Dir { parent, entries } => {
                    e.u8(1);
                    e.u64(*parent);
                    e.u32(entries.len() as u32);
                    for (name, ino) in entries {
                        e.str(name);
                        e.u64(*ino);
                    }
                }
                SnapPayload::Symlink(t) => {
                    e.u8(2);
                    e.str(t);
                }
            }
        }
        e.0
    }

    fn decode_body(d: &mut Dec) -> Option<Vec<SnapNode>> {
        let count = d.u32()? as usize;
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let ino = d.u64()?;
            let mode = Mode(d.u16()?);
            let uid = Uid(d.u32()?);
            let gid = Gid(d.u32()?);
            let nlink = d.u32()?;
            let mtime = d.u64()?;
            let ctime = d.u64()?;
            let nx = d.u32()? as usize;
            let mut xattrs = Vec::with_capacity(nx);
            for _ in 0..nx {
                xattrs.push((d.str()?.to_string(), d.bytes()?.to_vec()));
            }
            let acl = dec_acl_opt(d)?;
            let payload = match d.u8()? {
                0 => SnapPayload::File(d.bytes()?.to_vec()),
                1 => {
                    let parent = d.u64()?;
                    let ne = d.u32()? as usize;
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        entries.push((d.str()?.to_string(), d.u64()?));
                    }
                    SnapPayload::Dir { parent, entries }
                }
                2 => SnapPayload::Symlink(d.str()?.to_string()),
                _ => return None,
            };
            nodes.push(SnapNode {
                ino,
                mode,
                uid,
                gid,
                nlink,
                mtime,
                ctime,
                xattrs,
                acl,
                payload,
            });
        }
        Some(nodes)
    }
}

// ----------------------------------------------------------------------
// Wire encoding
// ----------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new() -> Self {
        Enc(Vec::new())
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// Whatever `f` encodes, behind its u32 byte length.
    fn sized(&mut self, f: impl FnOnce(&mut Enc)) {
        let at = self.0.len();
        self.u32(0);
        f(self);
        let len = (self.0.len() - at - 4) as u32;
        self.0[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return None;
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
    fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

fn enc_acl_opt(e: &mut Enc, acl: Option<&Acl>) {
    match acl {
        None => e.u8(0),
        Some(a) => {
            e.u8(1);
            e.u32(a.entries().len() as u32);
            for entry in a.entries() {
                match entry {
                    AclEntry::User(uid, p) => {
                        e.u8(0);
                        e.u32(uid.0);
                        e.u8(*p);
                    }
                    AclEntry::Group(gid, p) => {
                        e.u8(1);
                        e.u32(gid.0);
                        e.u8(*p);
                    }
                    AclEntry::Mask(p) => {
                        e.u8(2);
                        e.u32(0);
                        e.u8(*p);
                    }
                }
            }
        }
    }
}

fn dec_acl_opt(d: &mut Dec) -> Option<Option<Acl>> {
    match d.u8()? {
        0 => Some(None),
        1 => {
            let n = d.u32()? as usize;
            let mut acl = Acl::new();
            for _ in 0..n {
                let tag = d.u8()?;
                let id = d.u32()?;
                let perms = d.u8()?;
                match tag {
                    0 => acl.set_user(Uid(id), perms),
                    1 => acl.set_group(Gid(id), perms),
                    2 => acl.set_mask(perms),
                    _ => return None,
                }
            }
            Some(Some(acl))
        }
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Records: one table generates the type, its codec, its accounting
// category and its tick
// ----------------------------------------------------------------------

/// A record field that knows its wire form. Decoding borrows from the frame
/// exactly as a live record borrows from its caller, so building a record
/// allocates nothing; the mutator copies what the tree must own.
trait Wire<'a>: Sized {
    fn enc(&self, e: &mut Enc);
    fn dec(d: &mut Dec<'a>) -> Option<Self>;
}

macro_rules! wire {
    ($($t:ty => $via:ident, |$v:ident| $out:expr, $into:expr;)*) => {$(
        impl<'a> Wire<'a> for $t {
            fn enc(&self, e: &mut Enc) {
                let $v = self;
                e.$via($out)
            }
            fn dec(d: &mut Dec<'a>) -> Option<Self> {
                d.$via().map($into)
            }
        }
    )*};
}

wire! {
    u64 => u64, |v| *v, |x| x;
    Ino => u64, |v| v.0, Ino;
    Timestamp => u64, |v| v.0, Timestamp;
    Mode => u16, |v| v.0, Mode;
    Uid => u32, |v| v.0, Uid;
    Gid => u32, |v| v.0, Gid;
    &'a str => str, |v| v, |x| x;
    &'a [u8] => bytes, |v| v, |x| x;
}

impl<'a> Wire<'a> for Option<Cow<'a, Acl>> {
    fn enc(&self, e: &mut Enc) {
        enc_acl_opt(e, self.as_deref())
    }
    fn dec(d: &mut Dec<'a>) -> Option<Self> {
        Some(dec_acl_opt(d)?.map(Cow::Owned))
    }
}

/// `tag Kind => OpKind { field: type, .. }` per plain record kind: the wire
/// tag, the syscall category a replayed record is charged as, and the fields
/// in wire order (`tick`, the virtual-clock tick of the mutation, always
/// last). Adding a row is all a new kind needs here; `record_roundtrip`
/// fails until it has a sample.
macro_rules! records {
    ($($tag:literal $kind:ident => $op:ident { $($f:ident: $t:ty),* })*) => {
        /// One journaled mutation — and, since do = redo, the *only* form a
        /// mutation takes: live calls build one and apply it, replay decodes
        /// one and applies it. Records are inode-keyed (not path-keyed): the
        /// committing operation captured the allocated inode number under
        /// its shard locks, so replay reinstalls objects under their
        /// original numbers and descriptor-relative writes need no path at
        /// all. Strings and bytes are borrowed, from the caller or from the
        /// frame.
        #[derive(Debug, Clone, PartialEq)]
        pub(crate) enum Record<'a> {
            $($kind { $($f: $t),* },)*
            /// An atomic multi-record transaction
            /// ([`Filesystem::apply_batch`]): overlay copy-up chains and
            /// view commits land as one frame, so a crash replays them
            /// fully-applied or fully-absent — never partially. Sub-records
            /// are plain records; nesting is rejected on decode.
            Commit(Vec<Record<'a>>),
            Snapshot(Box<SnapshotData>),
        }

        #[cfg(test)]
        const PLAIN_TAGS: &[u8] = &[$($tag),*];

        impl Record<'_> {
            /// The syscall category a replayed record is charged as (one
            /// counted syscall per record — the deterministic warm-restart
            /// cost metric). A transaction is charged per sub-record by its
            /// driver; snapshot installation is free: it is a memory image,
            /// not replayed ops.
            fn op_kind(&self) -> Option<OpKind> {
                match self {
                    $(Record::$kind { .. } => Some(OpKind::$op),)*
                    Record::Commit(_) | Record::Snapshot(_) => None,
                }
            }

            /// The tick of the (last) mutation the record carries.
            fn tick(&self) -> Option<Timestamp> {
                match self {
                    $(Record::$kind { tick, .. } => Some(*tick),)*
                    Record::Commit(subs) => subs.last().and_then(Record::tick),
                    Record::Snapshot(_) => None,
                }
            }
        }

        fn encode_record(rec: &Record, e: &mut Enc) {
            match rec {
                $(Record::$kind { $($f),* } => {
                    e.u8($tag);
                    $($f.enc(e);)*
                })*
                Record::Commit(subs) => {
                    e.u8(K_COMMIT);
                    e.u32(subs.len() as u32);
                    for s in subs {
                        e.sized(|e| encode_record(s, e));
                    }
                }
                Record::Snapshot(s) => {
                    e.u8(K_SNAPSHOT);
                    e.u64(s.clock);
                    e.u64(s.next_ino);
                    e.u64(s.next_fd);
                    e.0.extend_from_slice(&s.encode_body());
                }
            }
        }

        fn decode_record(payload: &[u8]) -> Option<Record<'_>> {
            let mut d = Dec::new(payload);
            let rec = match d.u8()? {
                $($tag => Record::$kind { $($f: Wire::dec(&mut d)?),* },)*
                K_COMMIT => {
                    let count = d.u32()? as usize;
                    let mut subs = Vec::with_capacity(count.min(4096));
                    for _ in 0..count {
                        let sub = decode_record(d.bytes()?)?;
                        if matches!(sub, Record::Commit(_) | Record::Snapshot(_)) {
                            return None; // no nesting, no snapshots inside a txn
                        }
                        subs.push(sub);
                    }
                    Record::Commit(subs)
                }
                K_SNAPSHOT => Record::Snapshot(Box::new(SnapshotData {
                    clock: d.u64()?,
                    next_ino: d.u64()?,
                    next_fd: d.u64()?,
                    nodes: SnapshotData::decode_body(&mut d)?,
                })),
                _ => return None,
            };
            // Trailing garbage inside a checksummed frame is corruption too.
            d.done().then_some(rec)
        }
    };
}

records! {
    1 Mkdir => Mkdir {
        parent: Ino, name: &'a str, ino: Ino, mode: Mode, uid: Uid, gid: Gid, tick: Timestamp
    }
    2 Create => Open {
        parent: Ino, name: &'a str, ino: Ino, uid: Uid, gid: Gid, data: &'a [u8], tick: Timestamp
    }
    3 Symlink => Symlink {
        parent: Ino, name: &'a str, ino: Ino, target: &'a str, uid: Uid, gid: Gid, tick: Timestamp
    }
    4 Link => Link { parent: Ino, name: &'a str, ino: Ino, tick: Timestamp }
    5 Unlink => Unlink { parent: Ino, name: &'a str, tick: Timestamp }
    6 Rmdir => Rmdir { parent: Ino, name: &'a str, tick: Timestamp }
    7 RmTree => Rmdir { parent: Ino, name: &'a str, tick: Timestamp }
    8 Rename => Rename {
        from_parent: Ino, from_name: &'a str, to_parent: Ino, to_name: &'a str, tick: Timestamp
    }
    9 Write => Write { ino: Ino, offset: u64, data: &'a [u8], tick: Timestamp }
    10 SetContent => Write { ino: Ino, data: &'a [u8], tick: Timestamp }
    11 Truncate => Truncate { ino: Ino, len: u64, tick: Timestamp }
    12 SetMode => Setattr { ino: Ino, mode: Mode, tick: Timestamp }
    13 SetOwner => Setattr { ino: Ino, uid: Uid, gid: Gid, tick: Timestamp }
    14 SetAcl => Xattr { ino: Ino, acl: Option<Cow<'a, Acl>>, tick: Timestamp }
    15 SetXattr => Xattr { ino: Ino, name: &'a str, value: &'a [u8], tick: Timestamp }
    16 RemoveXattr => Xattr { ino: Ino, name: &'a str, tick: Timestamp }
}

/// One frame: magic, version, payload length, payload, checksum.
fn frame(rec: &Record) -> Vec<u8> {
    let mut e = Enc(vec![FRAME_MAGIC, JOURNAL_VERSION]);
    e.sized(|e| encode_record(rec, e));
    let crc = fnv32(&e.0[6..]);
    e.u32(crc);
    e.0
}

fn fnv32(b: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &x in b {
        h ^= x as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn fnv64(b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ----------------------------------------------------------------------
// Frame scanning (public: the torture suite truncates at these boundaries)
// ----------------------------------------------------------------------

/// One complete, checksum-valid frame found by [`scan_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Byte offset of the frame's first byte.
    pub start: usize,
    /// Byte offset one past the frame's last byte — a valid truncation
    /// boundary.
    pub end: usize,
    /// True when this frame holds a snapshot rather than a mutation record.
    pub is_snapshot: bool,
}

/// Walk `bytes` from the start, returning every complete frame in order.
/// Scanning stops at the first incomplete or checksum-invalid frame — the
/// crash-truncated tail — so a partial record can never be surfaced.
pub fn scan_frames(bytes: &[u8]) -> Vec<FrameInfo> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while bytes.len().saturating_sub(pos) >= FRAME_OVERHEAD {
        if bytes[pos] != FRAME_MAGIC || bytes[pos + 1] != JOURNAL_VERSION {
            break;
        }
        let len = u32::from_le_bytes([
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
            bytes[pos + 5],
        ]) as usize;
        let end = pos + 6 + len + 4;
        if end > bytes.len() || len == 0 {
            break;
        }
        let payload = &bytes[pos + 6..pos + 6 + len];
        let crc = u32::from_le_bytes([
            bytes[pos + 6 + len],
            bytes[pos + 7 + len],
            bytes[pos + 8 + len],
            bytes[pos + 9 + len],
        ]);
        if fnv32(payload) != crc {
            break;
        }
        out.push(FrameInfo {
            start: pos,
            end,
            is_snapshot: payload[0] == K_SNAPSHOT,
        });
        pos = end;
    }
    out
}

// ----------------------------------------------------------------------
// The journal proper
// ----------------------------------------------------------------------

/// The append-only log plus its counters. One per [`Filesystem`]; disabled
/// by default (a relaxed atomic load per mutation). All counters are exposed
/// at `<proc>/vfs/journal/*` when a proc mount is active.
#[derive(Debug, Default)]
pub(crate) struct Journal {
    log: Mutex<Vec<u8>>,
    enabled: AtomicBool,
    records: AtomicU64,
    snapshots: AtomicU64,
    snapshot_bytes: AtomicU64,
    compacted_bytes: AtomicU64,
    replayed: AtomicU64,
    replay_skipped: AtomicU64,
    replay_syscalls: AtomicU64,
    snapshot_every: AtomicU64,
    since_snapshot: AtomicU64,
}

impl Journal {
    pub(crate) fn new() -> Journal {
        Journal::default()
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn append_record(&self, rec: &Record) {
        let f = frame(rec);
        let mut log = self.log.lock();
        log.extend_from_slice(&f);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.since_snapshot.fetch_add(1, Ordering::Relaxed);
    }

    fn append_snapshot(&self, snap: SnapshotData) {
        let f = frame(&Record::Snapshot(Box::new(snap)));
        let mut log = self.log.lock();
        log.extend_from_slice(&f);
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        self.snapshot_bytes.store(f.len() as u64, Ordering::Relaxed);
        self.since_snapshot.store(0, Ordering::Relaxed);
    }

    /// Drop every byte before the last complete snapshot frame. Safe at any
    /// time: by the compaction invariant those bytes are covered by that
    /// snapshot. Returns the bytes dropped.
    fn compact(&self) -> u64 {
        let mut log = self.log.lock();
        let frames = scan_frames(&log);
        let Some(last_snap) = frames.iter().rev().find(|f| f.is_snapshot) else {
            return 0;
        };
        let cut = last_snap.start;
        if cut == 0 {
            return 0;
        }
        log.drain(..cut);
        self.compacted_bytes
            .fetch_add(cut as u64, Ordering::Relaxed);
        cut as u64
    }

    fn bytes(&self) -> Vec<u8> {
        self.log.lock().clone()
    }

    fn len(&self) -> u64 {
        self.log.lock().len() as u64
    }

    /// Point-in-time counter snapshot (backs both [`JournalStats`] and the
    /// proc files, which capture the `Arc<Journal>` directly).
    pub(crate) fn stats(&self) -> JournalStats {
        JournalStats {
            enabled: self.is_enabled(),
            records: self.records.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            bytes: self.len(),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            compacted_bytes: self.compacted_bytes.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            replay_skipped: self.replay_skipped.load(Ordering::Relaxed),
            replay_syscalls: self.replay_syscalls.load(Ordering::Relaxed),
            snapshot_every: self.snapshot_every.load(Ordering::Relaxed),
            since_snapshot: self.since_snapshot.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time figures for the journal, also exposed as proc files.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Whether mutations are currently being journaled.
    pub enabled: bool,
    /// Mutation records appended since creation (snapshots excluded).
    pub records: u64,
    /// Snapshot frames appended.
    pub snapshots: u64,
    /// Current size of the log in bytes.
    pub bytes: u64,
    /// Size of the most recent snapshot frame in bytes.
    pub snapshot_bytes: u64,
    /// Bytes dropped by compaction so far.
    pub compacted_bytes: u64,
    /// Records applied into *this* filesystem by `restore_from_journal`.
    pub replayed: u64,
    /// Records skipped during replay (targets dead at the crash boundary —
    /// unlinked-but-open orphans).
    pub replay_skipped: u64,
    /// Syscalls charged for the replay (one per applied record).
    pub replay_syscalls: u64,
    /// Auto-snapshot cadence in records (0 = manual snapshots only).
    pub snapshot_every: u64,
    /// Records appended since the last snapshot.
    pub since_snapshot: u64,
}

/// Outcome of [`Filesystem::restore_from_journal`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Whether a complete snapshot was found and installed.
    pub snapshot_used: bool,
    /// Complete mutation records found after the chosen snapshot.
    pub records_seen: u64,
    /// Records actually applied.
    pub records_replayed: u64,
    /// Records skipped (orphan targets).
    pub records_skipped: u64,
    /// Syscalls charged for the replay (one per applied record).
    pub replay_syscalls: u64,
    /// Bytes of complete frames consumed.
    pub bytes_scanned: u64,
    /// Trailing bytes dropped as a torn/corrupt tail.
    pub tail_dropped_bytes: u64,
}

// ----------------------------------------------------------------------
// Filesystem integration
// ----------------------------------------------------------------------

impl Filesystem {
    /// Start journaling: capture an anchor snapshot of the current tree and
    /// log every subsequent mutation. Taken under the global lock, so the
    /// snapshot and the enable flag flip at one linearization point — no
    /// mutation can fall between them.
    pub fn enable_journal(&self) {
        let set = self.tables.lock_all();
        let snap = self.capture_snapshot(&set);
        self.journal.append_snapshot(snap);
        self.journal.enabled.store(true, Ordering::Relaxed);
        drop(set);
    }

    /// Whether mutations are currently journaled.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_enabled()
    }

    /// Append a snapshot frame capturing the whole tree right now. The
    /// global lock holds every mutator out, so no record can interleave
    /// between the capture and its append — replay can never double-apply.
    pub fn journal_snapshot(&self) {
        if !self.journal.is_enabled() {
            return;
        }
        let set = self.tables.lock_all();
        let snap = self.capture_snapshot(&set);
        self.journal.append_snapshot(snap);
        drop(set);
    }

    /// Set the auto-snapshot cadence: a snapshot is taken by
    /// [`Filesystem::journal_maybe_snapshot`] once at least `every` records
    /// accumulated since the last one. `0` disables automatic snapshots.
    pub fn set_journal_snapshot_every(&self, every: u64) {
        self.journal.snapshot_every.store(every, Ordering::Relaxed);
    }

    /// Take a snapshot if the cadence says one is due. Called from safe
    /// points that hold no vfs locks — yanc-init's scheduler tick drives it,
    /// playing the role of the kernel's periodic flush daemon. Returns
    /// whether a snapshot was taken.
    pub fn journal_maybe_snapshot(&self) -> bool {
        if !self.journal.is_enabled() {
            return false;
        }
        let every = self.journal.snapshot_every.load(Ordering::Relaxed);
        if every == 0 || self.journal.since_snapshot.load(Ordering::Relaxed) < every {
            return false;
        }
        self.journal_snapshot();
        true
    }

    /// Drop all log bytes preceding the last complete snapshot (droppable
    /// iff covered by a snapshot). Returns the bytes reclaimed.
    pub fn journal_compact(&self) -> u64 {
        self.journal.compact()
    }

    /// A copy of the raw log — the "disk image" a crash would leave behind.
    /// Feed it (or any prefix of it) to [`Filesystem::restore_from_journal`].
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.journal.bytes()
    }

    /// Current journal figures (same values as `<proc>/vfs/journal/*`).
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Canonical digest of the reachable tree (proc subtrees excluded):
    /// FNV-1a over the snapshot body encoding. Two filesystems with equal
    /// digests are byte-identical in inodes, entries, permissions, owners,
    /// ACLs, xattrs, timestamps and content. This is the cross-fs equality
    /// check the linearizability and journal suites share.
    pub fn tree_digest(&self) -> u64 {
        let set = self.tables.lock_all();
        let snap = self.capture_snapshot(&set);
        drop(set);
        fnv64(&snap.encode_body())
    }

    /// Content-only digest of the reachable tree (proc subtrees excluded):
    /// a canonical path-ordered walk over names, modes, owners, xattrs,
    /// ACLs, link/file/dir payloads — but **not** inode numbers, link
    /// counts or `mtime`/`ctime` ticks. Those come from global allocation
    /// counters, so they encode the *schedule* that built the tree, not
    /// what the tree says. Two trees built by different interleavings of
    /// the same logical writes (e.g. different pump worker counts)
    /// compare equal here; [`Filesystem::tree_digest`] additionally pins
    /// the schedule and is the right check for exact-replay claims.
    pub fn content_digest(&self) -> u64 {
        let set = self.tables.lock_all();
        let snap = self.capture_snapshot(&set);
        drop(set);
        let by_ino: std::collections::HashMap<u64, &SnapNode> =
            snap.nodes.iter().map(|n| (n.ino, n)).collect();
        fn walk(e: &mut Enc, by_ino: &std::collections::HashMap<u64, &SnapNode>, ino: u64) {
            let n = match by_ino.get(&ino) {
                Some(n) => n,
                None => return,
            };
            e.u16(n.mode.0);
            e.u32(n.uid.0);
            e.u32(n.gid.0);
            e.u32(n.xattrs.len() as u32);
            for (k, v) in &n.xattrs {
                e.str(k);
                e.bytes(v);
            }
            enc_acl_opt(e, n.acl.as_ref());
            match &n.payload {
                SnapPayload::File(d) => {
                    e.u8(0);
                    e.bytes(d);
                }
                SnapPayload::Dir { entries, .. } => {
                    e.u8(1);
                    let mut entries: Vec<&(String, u64)> = entries.iter().collect();
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    e.u32(entries.len() as u32);
                    for (name, child) in entries {
                        e.str(name);
                        walk(e, by_ino, *child);
                    }
                }
                SnapPayload::Symlink(t) => {
                    e.u8(2);
                    e.str(t);
                }
            }
        }
        let mut e = Enc::new();
        walk(&mut e, &by_ino, ROOT_INO.0);
        fnv64(&e.0)
    }

    /// Rebuild a filesystem from journal `bytes`: install the last complete
    /// snapshot (if any), then feed the record suffix to the one mutator —
    /// no hooks run, no events fire, and each applied record is charged
    /// exactly one syscall (the deterministic warm-restart cost).
    /// A torn tail is dropped; the fd table starts empty with the allocator
    /// watermarks past their pre-crash values, so stale descriptors fail
    /// `EBADF` cleanly. The returned filesystem has journaling *disabled*;
    /// call [`Filesystem::enable_journal`] to re-anchor it.
    pub fn restore_from_journal(
        bytes: &[u8],
        limits: Limits,
        shards: usize,
        dcache: bool,
    ) -> (Filesystem, ReplayReport) {
        let fs = Filesystem::builder()
            .limits(limits)
            .shards(shards)
            .dcache(dcache)
            .build();
        let frames = scan_frames(bytes);
        let mut report = ReplayReport {
            bytes_scanned: frames.last().map(|f| f.end as u64).unwrap_or(0),
            tail_dropped_bytes: bytes.len() as u64
                - frames.last().map(|f| f.end as u64).unwrap_or(0),
            ..Default::default()
        };
        // Decode every complete frame; a frame that fails to decode despite
        // a valid checksum ends the trusted prefix just like a torn tail.
        let mut records: Vec<Record> = Vec::with_capacity(frames.len());
        for f in &frames {
            match decode_record(&bytes[f.start + 6..f.end - 4]) {
                Some(r) => records.push(r),
                None => {
                    report.tail_dropped_bytes += (frames.last().unwrap().end - f.start) as u64;
                    report.bytes_scanned = f.start as u64;
                    break;
                }
            }
        }
        let start = match records
            .iter()
            .rposition(|r| matches!(r, Record::Snapshot(_)))
        {
            Some(i) => {
                if let Record::Snapshot(snap) = &records[i] {
                    fs.install_snapshot(snap);
                    report.snapshot_used = true;
                }
                i + 1
            }
            None => 0,
        };
        for rec in &records[start..] {
            if matches!(rec, Record::Snapshot(_)) {
                continue;
            }
            report.records_seen += 1;
            if !fs.apply_record(rec) {
                report.records_skipped += 1;
                continue;
            }
            report.records_replayed += 1;
            // A transaction is charged per sub-record: the restored tree
            // pays the same deterministic syscall bill the live batch did.
            let charged = match rec {
                Record::Commit(subs) => subs.as_slice(),
                one => std::slice::from_ref(one),
            };
            for op in charged.iter().filter_map(Record::op_kind) {
                fs.count(op, "");
                report.replay_syscalls += 1;
            }
        }
        fs.journal
            .replayed
            .store(report.records_replayed, Ordering::Relaxed);
        fs.journal
            .replay_skipped
            .store(report.records_skipped, Ordering::Relaxed);
        fs.journal
            .replay_syscalls
            .store(report.replay_syscalls, Ordering::Relaxed);
        (fs, report)
    }

    /// Append `rec`'s frame if journaling is on (see
    /// [`Filesystem::commit`], the one caller on the live path, for where
    /// this sits and why proc-covered paths are exempt).
    #[inline]
    pub(crate) fn jrnl(&self, path: &str, rec: &Record) {
        if self.journal.is_enabled() && !ProcDepth::active() && !self.proc.covers(path) {
            self.journal.append_record(rec);
        }
    }

    /// Capture the reachable tree under an already-held global lock.
    fn capture_snapshot(&self, set: &ShardSet) -> SnapshotData {
        let mut nodes: Vec<SnapNode> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Ino, String)> = vec![(ROOT_INO, String::new())];
        while let Some((ino, path)) = stack.pop() {
            if !seen.insert(ino.0) {
                continue; // hard links: capture the inode once
            }
            let Ok(node) = set.inode(ino) else { continue };
            let (nlink, payload) = match &node.kind {
                NodeKind::Dir { entries, parent } => {
                    let mut kept: Vec<(String, u64)> = Vec::new();
                    let mut subdirs = 0u32;
                    for (name, child) in entries {
                        let cpath = format!("{path}/{name}");
                        if self.proc.covers(&cpath) {
                            continue; // derived state; re-created on mount
                        }
                        if set
                            .inode(*child)
                            .map(|c| matches!(c.kind, NodeKind::Dir { .. }))
                            .unwrap_or(false)
                        {
                            subdirs += 1;
                        }
                        kept.push((name.clone(), child.0));
                        stack.push((*child, cpath));
                    }
                    (
                        2 + subdirs,
                        SnapPayload::Dir {
                            parent: parent.0,
                            entries: kept,
                        },
                    )
                }
                NodeKind::File(d) => (node.nlink, SnapPayload::File(d.clone())),
                NodeKind::Symlink(t) => (node.nlink, SnapPayload::Symlink(t.clone())),
            };
            nodes.push(SnapNode {
                ino: ino.0,
                mode: node.mode,
                uid: node.uid,
                gid: node.gid,
                nlink,
                mtime: node.mtime.0,
                ctime: node.ctime.0,
                xattrs: node
                    .xattrs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
                acl: node.acl.clone(),
                payload,
            });
        }
        nodes.sort_by_key(|n| n.ino);
        SnapshotData {
            clock: self.clock.now().0,
            next_ino: self.tables.ino_watermark(),
            next_fd: self.tables.fd_watermark(),
            nodes,
        }
    }

    /// Install a snapshot into this (freshly built) filesystem.
    fn install_snapshot(&self, snap: &SnapshotData) {
        let mut set = self.tables.lock_all();
        for n in &snap.nodes {
            let kind = match &n.payload {
                SnapPayload::File(d) => NodeKind::File(d.clone()),
                SnapPayload::Symlink(t) => NodeKind::Symlink(t.clone()),
                SnapPayload::Dir { parent, entries } => NodeKind::Dir {
                    entries: entries
                        .iter()
                        .map(|(name, ino)| (name.clone(), Ino(*ino)))
                        .collect(),
                    parent: Ino(*parent),
                },
            };
            let mut node = Inode::new(kind, n.mode, n.uid, n.gid, Timestamp(n.mtime));
            node.nlink = n.nlink;
            node.ctime = Timestamp(n.ctime);
            node.xattrs = n.xattrs.iter().cloned().collect();
            node.acl = n.acl.clone();
            set.insert_inode(Ino(n.ino), node);
        }
        drop(set);
        self.tables.ensure_ino_floor(snap.next_ino);
        self.tables.ensure_fd_floor(snap.next_fd);
        self.clock.advance_to(Timestamp(snap.clock));
    }

    /// Replay one record: the one mutator under the global lock, then the
    /// clock catches up with the record's tick. Returns false when the
    /// record's target is gone (skipped orphan).
    fn apply_record(&self, rec: &Record) -> bool {
        let applied = self.apply_record_locked(&mut self.tables.lock_all(), rec);
        if let (true, Some(t)) = (applied, rec.tick()) {
            self.clock.advance_to(t);
        }
        applied
    }
}

// ----------------------------------------------------------------------
// Atomic batches (overlay copy-up chains and view commits)
// ----------------------------------------------------------------------

/// One path-level step of an atomic batch (see [`Filesystem::apply_batch`]).
/// Paths are underlying-fs absolute paths. Resolution inside a batch is
/// *lexical* — no symlink following, no `..` — because batches are
/// machine-generated plans over trees the planner has just walked.
#[derive(Debug, Clone)]
pub(crate) enum BatchOp {
    /// Create a directory (no-op when an identical-kind entry exists).
    /// Ownership and mode come from the plan, not the caller: copy-up
    /// mirrors the lower directory's identity, as kernel overlayfs does.
    Mkdir {
        path: VPath,
        mode: Mode,
        uid: Uid,
        gid: Gid,
        xattrs: Vec<(String, Vec<u8>)>,
    },
    /// Create or atomically replace a regular file. Replacement is
    /// unlink + create — rename-commit semantics: the replaced path gets a
    /// fresh inode, old hard links and open descriptors keep the old one.
    PutFile {
        path: VPath,
        data: Vec<u8>,
        mode: Mode,
        uid: Uid,
        gid: Gid,
        xattrs: Vec<(String, Vec<u8>)>,
        acl: Option<Acl>,
    },
    /// Create a symlink (the path must be absent; plans emit a
    /// [`BatchOp::Remove`] first when replacing).
    PutSymlink {
        path: VPath,
        target: String,
        uid: Uid,
        gid: Gid,
    },
    /// Remove a file, symlink or whole subtree (no-op when absent).
    Remove { path: VPath },
}

impl BatchOp {
    fn path(&self) -> &VPath {
        match self {
            BatchOp::Mkdir { path, .. }
            | BatchOp::PutFile { path, .. }
            | BatchOp::PutSymlink { path, .. }
            | BatchOp::Remove { path } => path,
        }
    }
}

/// Outcome of one applied batch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchReport {
    /// Journal sub-records the batch produced.
    pub(crate) records: usize,
    /// File-content bytes written by `PutFile` steps.
    pub(crate) bytes: u64,
}

/// How a path looks mid-validation: present in the real tree, freshly
/// created (or removed) by an earlier step of the same batch, or absent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BatchNode {
    Real(Ino, bool),
    Fresh(bool),
    Absent,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VirtKind {
    Dir,
    NonDir,
    Removed,
}

/// Lexical lookup in the locked tree: walk directory entries from the root,
/// no symlink expansion, `..` rejected.
fn batch_lookup(set: &ShardSet, path: &VPath) -> Option<(Ino, bool)> {
    let mut cur = ROOT_INO;
    for comp in path.components() {
        if comp == ".." {
            return None;
        }
        let node = set.inode(cur).ok()?;
        cur = *node.dir_entries().ok()?.get(comp)?;
    }
    let is_dir = set
        .inode(cur)
        .ok()
        .map(|n| matches!(n.kind, NodeKind::Dir { .. }))?;
    Some((cur, is_dir))
}

/// Lookup through the batch's virtual view: the longest pending-change
/// prefix (component-boundary aware) shadows the real tree, so a step sees
/// exactly the tree that earlier steps of its own batch will have built.
fn batch_stat(set: &ShardSet, virt: &HashMap<String, VirtKind>, path: &VPath) -> BatchNode {
    let s = path.as_str();
    let mut best: Option<(&str, VirtKind)> = None;
    for (p, k) in virt {
        let covered = s == p.as_str()
            || (s.starts_with(p.as_str()) && s.as_bytes().get(p.len()) == Some(&b'/'));
        if covered && best.map(|(b, _)| p.len() > b.len()).unwrap_or(true) {
            best = Some((p, *k));
        }
    }
    match best {
        Some((_, VirtKind::Removed)) => BatchNode::Absent,
        Some((p, k)) if p == s => BatchNode::Fresh(k == VirtKind::Dir),
        // A fresh directory has only batch-made children, and those would
        // have matched as a longer prefix; anything else under it is absent.
        Some((_, _)) => BatchNode::Absent,
        None => match batch_lookup(set, path) {
            Some((ino, d)) => BatchNode::Real(ino, d),
            None => BatchNode::Absent,
        },
    }
}

impl Filesystem {
    /// Apply a plan of path-level steps as **one transaction**: everything
    /// is validated first (permissions, conflicts — any failure leaves the
    /// tree untouched), then each step becomes the records a live call
    /// would have built, applied under a single `lock_all` acquisition —
    /// the linearization point — through the one mutator
    /// ([`Filesystem::apply_record_locked`]) and journaled as a single
    /// [`Record::Commit`] frame. A crash therefore replays the batch
    /// fully-applied or fully-absent, never partially.
    ///
    /// This is the engine under overlay copy-up and atomic view commit.
    /// Each step is charged one syscall token against the calling uid
    /// *before* application (`EAGAIN` aborts the whole batch), and each
    /// produced record is tallied in the syscall counters, so copy-up
    /// costs land on the writer.
    ///
    /// `enforce` controls the write-permission check on real parent
    /// directories. View commit passes `true` — the batch *is* the
    /// authority boundary between a tenant and the base tree. Copy-up and
    /// whiteout plans pass `false`: they mirror objects the caller already
    /// reached through the overlay, and the overlay checked the merged
    /// directory's permissions before planning (the upper tree's ancestor
    /// chain mirrors lower ownership, which would otherwise wrongly deny
    /// e.g. writing a caller-writable file inside a root-owned directory).
    pub(crate) fn apply_batch(
        &self,
        ops: &[BatchOp],
        creds: &Credentials,
        enforce: bool,
    ) -> VfsResult<BatchReport> {
        let mut set = self.tables.lock_all();

        // -------- validate: pure pass, nothing mutated on any error -----
        let mut virt: HashMap<String, VirtKind> = HashMap::new();
        for op in ops {
            let path = op.path();
            if !path.file_name().is_some_and(valid_name) {
                return err(Errno::EINVAL, path.as_str());
            }
            let target = batch_stat(&set, &virt, path);
            let noop = match op {
                BatchOp::Mkdir { .. } => {
                    matches!(target, BatchNode::Real(_, true) | BatchNode::Fresh(true))
                }
                BatchOp::Remove { .. } => matches!(target, BatchNode::Absent),
                _ => false,
            };
            if noop {
                continue;
            }
            let parent = path.parent();
            match batch_stat(&set, &virt, &parent) {
                BatchNode::Fresh(true) => {} // created earlier in this batch
                BatchNode::Real(pino, true) => {
                    let p = set.inode(pino)?;
                    let may = |a| check_access(creds, p.uid, p.gid, p.mode, p.acl.as_ref(), a);
                    if enforce && !(may(Access::Write) && may(Access::Exec)) {
                        return err(Errno::EACCES, parent.as_str());
                    }
                }
                BatchNode::Real(_, false) | BatchNode::Fresh(false) => {
                    return err(Errno::ENOTDIR, parent.as_str());
                }
                BatchNode::Absent => return err(Errno::ENOENT, parent.as_str()),
            }
            let becomes = match (op, target) {
                (BatchOp::Mkdir { .. }, BatchNode::Absent) => VirtKind::Dir,
                (BatchOp::PutSymlink { .. }, BatchNode::Absent) => VirtKind::NonDir,
                (BatchOp::Mkdir { .. } | BatchOp::PutSymlink { .. }, _) => {
                    return err(Errno::EEXIST, path.as_str());
                }
                (BatchOp::PutFile { .. }, BatchNode::Real(_, true) | BatchNode::Fresh(true)) => {
                    return err(Errno::EISDIR, path.as_str());
                }
                (BatchOp::PutFile { .. }, _) => VirtKind::NonDir,
                (BatchOp::Remove { .. }, _) => VirtKind::Removed,
            };
            virt.insert(path.as_str().to_string(), becomes);
        }

        // -------- charge the writer: the quota gate precedes mutation ---
        if creds.uid.0 != 0 && !HookDepth::active() && !ProcDepth::active() {
            for op in ops {
                self.rctl()
                    .charge_syscall(creds.uid.0, op.path().as_str())?;
            }
        }

        // -------- apply: each step as the records a live call builds ----
        let mut records: Vec<Record> = Vec::new();
        let mut events: Vec<(EventKind, VPath, Option<String>)> = Vec::new();
        let mut bytes = 0u64;
        for op in ops {
            let path = op.path();
            let name = path.file_name().unwrap_or("");
            // Validation guarantees the parent; the guard only keeps a
            // planner bug from panicking under the global lock.
            let Some((parent, true)) = batch_lookup(&set, &path.parent()) else {
                continue;
            };
            let target = batch_lookup(&set, path);
            // A removed directory is reported as a live recursive `rmdir`
            // reports it, every object under it included.
            let mut doomed = Vec::new();
            if let (BatchOp::Remove { .. }, Some((ino, true))) = (op, target) {
                let _ = Self::removal_events(&set, ino, path, &mut events, &mut doomed);
            }
            let mut put = |rec| {
                self.apply_record_locked(&mut set, &rec);
                records.push(rec);
            };
            let now = || self.clock.tick();
            let mut event = |kind| events.push((kind, path.clone(), Some(name.to_string())));
            match op {
                BatchOp::Mkdir {
                    mode,
                    uid,
                    gid,
                    xattrs,
                    ..
                } => {
                    if target.is_some() {
                        continue; // validated to be a directory already
                    }
                    let ino = self.tables.alloc_ino();
                    put(Record::Mkdir {
                        parent,
                        name,
                        ino,
                        mode: Mode(mode.0 & 0o7777),
                        uid: *uid,
                        gid: *gid,
                        tick: now(),
                    });
                    for (name, value) in xattrs {
                        let tick = now();
                        put(Record::SetXattr {
                            ino,
                            name,
                            value,
                            tick,
                        });
                    }
                    event(EventKind::Create);
                }
                BatchOp::PutFile {
                    data,
                    mode,
                    uid,
                    gid,
                    xattrs,
                    acl,
                    ..
                } => {
                    // Replacement is unlink + create (see `BatchOp::PutFile`).
                    if target.is_some() {
                        let tick = now();
                        put(Record::Unlink { parent, name, tick });
                        event(EventKind::Delete);
                    }
                    let ino = self.tables.alloc_ino();
                    put(Record::Create {
                        parent,
                        name,
                        ino,
                        uid: *uid,
                        gid: *gid,
                        data,
                        tick: now(),
                    });
                    bytes += data.len() as u64;
                    if *mode != Mode::FILE_DEFAULT {
                        let (mode, tick) = (Mode(mode.0 & 0o7777), now());
                        put(Record::SetMode { ino, mode, tick });
                    }
                    for (name, value) in xattrs {
                        let tick = now();
                        put(Record::SetXattr {
                            ino,
                            name,
                            value,
                            tick,
                        });
                    }
                    if let Some(acl) = acl {
                        let (acl, tick) = (Some(Cow::Borrowed(acl)), now());
                        put(Record::SetAcl { ino, acl, tick });
                    }
                    event(EventKind::Create);
                    event(EventKind::CloseWrite);
                }
                BatchOp::PutSymlink {
                    target: to,
                    uid,
                    gid,
                    ..
                } => {
                    let ino = self.tables.alloc_ino();
                    put(Record::Symlink {
                        parent,
                        name,
                        ino,
                        target: to,
                        uid: *uid,
                        gid: *gid,
                        tick: now(),
                    });
                    event(EventKind::Create);
                }
                BatchOp::Remove { .. } => {
                    let Some((_, is_dir)) = target else {
                        continue;
                    };
                    let tick = now();
                    if is_dir {
                        put(Record::RmTree { parent, name, tick });
                        doomed.iter().for_each(|d| self.bump_gen(*d));
                    } else {
                        put(Record::Unlink { parent, name, tick });
                        event(EventKind::Delete);
                    }
                }
            }
            self.bump_gen(parent);
        }
        let report = BatchReport {
            records: records.len(),
            bytes,
        };
        if !records.is_empty() {
            for op in records.iter().filter_map(Record::op_kind) {
                self.count(op, "");
            }
            // A batch names no one path; its plans never reach under a proc
            // mount (validation resolves them through real directories).
            self.jrnl("", &Record::Commit(records));
        }
        drop(set);
        self.notify().emit_batch(&events);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Credentials;

    /// Every record kind survives encode → decode unchanged. The sample
    /// list is checked against the `records!` table, so a kind cannot be
    /// added without a roundtrip case.
    #[test]
    fn record_roundtrip() {
        let (parent, ino, tick) = (Ino(1), Ino(2), Timestamp(7));
        let (uid, gid, name) = (Uid(1000), Gid(1001), "a");
        let mut acl = Acl::new();
        acl.set_user(Uid(5), 0o6);
        acl.set_group(Gid(6), 0o4);
        acl.set_mask(0o7);
        let plain = vec![
            Record::Mkdir {
                parent,
                name,
                ino,
                mode: Mode(0o755),
                uid,
                gid,
                tick,
            },
            Record::Create {
                parent,
                name,
                ino,
                uid,
                gid,
                data: b"seed",
                tick,
            },
            Record::Symlink {
                parent,
                name,
                ino,
                target: "../t",
                uid,
                gid,
                tick,
            },
            Record::Link {
                parent,
                name,
                ino,
                tick,
            },
            Record::Unlink { parent, name, tick },
            Record::Rmdir { parent, name, tick },
            Record::RmTree { parent, name, tick },
            Record::Rename {
                from_parent: parent,
                from_name: name,
                to_parent: Ino(3),
                to_name: "b",
                tick,
            },
            Record::Write {
                ino,
                offset: 3,
                data: &[1, 2, 3],
                tick,
            },
            Record::SetContent {
                ino,
                data: &[],
                tick,
            },
            Record::Truncate { ino, len: 9, tick },
            Record::SetMode {
                ino,
                mode: Mode(0o600),
                tick,
            },
            Record::SetOwner {
                ino,
                uid,
                gid,
                tick,
            },
            Record::SetAcl {
                ino,
                acl: Some(Cow::Borrowed(&acl)),
                tick,
            },
            Record::SetXattr {
                ino,
                name: "user.k",
                value: b"v",
                tick,
            },
            Record::RemoveXattr {
                ino,
                name: "user.k",
                tick,
            },
        ];
        let tag_of = |r: &Record| {
            let mut e = Enc::new();
            encode_record(r, &mut e);
            e.0[0]
        };
        let tags: Vec<u8> = plain.iter().map(tag_of).collect();
        assert_eq!(tags, PLAIN_TAGS, "one sample per row of the records table");

        let mut recs = plain.clone();
        recs.push(Record::SetAcl {
            ino,
            acl: None,
            tick,
        });
        recs.push(Record::Commit(plain));
        recs.push(Record::Snapshot(Box::new(SnapshotData {
            clock: 9,
            next_ino: 4,
            next_fd: 5,
            nodes: vec![SnapNode {
                ino: 1,
                mode: Mode::DIR_DEFAULT,
                uid: Uid(0),
                gid: Gid(0),
                nlink: 2,
                mtime: 1,
                ctime: 1,
                xattrs: vec![("user.k".into(), vec![1])],
                acl: Some(acl.clone()),
                payload: SnapPayload::Dir {
                    parent: 1,
                    entries: vec![],
                },
            }],
        })));
        for r in &recs {
            let f = frame(r);
            let [info] = scan_frames(&f)[..] else {
                panic!("one record, one frame");
            };
            assert_eq!((info.start, info.end), (0, f.len()));
            assert_eq!(decode_record(&f[6..f.len() - 4]).as_ref(), Some(r));
        }
        // A transaction holds plain records only.
        let nested = Record::Commit(vec![Record::Commit(vec![])]);
        let f = frame(&nested);
        assert_eq!(decode_record(&f[6..f.len() - 4]), None);
    }

    #[test]
    fn torn_tail_is_invisible() {
        let fs = Filesystem::builder().shards(1).build();
        fs.enable_journal();
        let root = Credentials::root();
        fs.mkdir("/a", Mode::DIR_DEFAULT, &root).unwrap();
        fs.write_file("/a/x", b"hello", &root).unwrap();
        let bytes = fs.journal_bytes();
        let frames = scan_frames(&bytes);
        assert!(frames.len() >= 3); // anchor snapshot + mkdir + create + write
                                    // Cutting one byte into the last frame must hide it entirely.
        let cut = frames[frames.len() - 1].start + 1;
        let visible = scan_frames(&bytes[..cut]);
        assert_eq!(visible.len(), frames.len() - 1);
        assert_eq!(visible.last().unwrap().end, frames[frames.len() - 1].start);
    }

    #[test]
    fn restore_matches_live_digest() {
        let fs = Filesystem::builder().shards(1).build();
        fs.enable_journal();
        let root = Credentials::root();
        fs.mkdir_all("/a/b", Mode::DIR_DEFAULT, &root).unwrap();
        fs.write_file("/a/b/x", b"data", &root).unwrap();
        fs.symlink("/a/b/x", "/a/lnk", &root).unwrap();
        fs.link("/a/b/x", "/a/hard", &root).unwrap();
        fs.chmod("/a/b/x", Mode(0o600), &root).unwrap();
        fs.set_xattr("/a/b/x", "user.k", b"v", &root).unwrap();
        fs.rename("/a/b/x", "/a/b/y", &root).unwrap();
        let (restored, report) =
            Filesystem::restore_from_journal(&fs.journal_bytes(), Limits::default(), 1, true);
        assert!(report.snapshot_used);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(restored.tree_digest(), fs.tree_digest());
        restored.check_invariants().unwrap();
    }

    #[test]
    fn compaction_drops_only_covered_bytes() {
        let fs = Filesystem::builder().shards(1).build();
        fs.enable_journal();
        let root = Credentials::root();
        for i in 0..10 {
            fs.write_file(&format!("/f{i}"), b"x", &root).unwrap();
        }
        fs.journal_snapshot();
        fs.write_file("/tail", b"y", &root).unwrap();
        let before = fs.journal_stats().bytes;
        let dropped = fs.journal_compact();
        assert!(dropped > 0);
        assert_eq!(fs.journal_stats().bytes, before - dropped);
        let (restored, _) =
            Filesystem::restore_from_journal(&fs.journal_bytes(), Limits::default(), 1, true);
        assert_eq!(restored.tree_digest(), fs.tree_digest());
    }
}
