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
//! Restore ([`Filesystem::restore_from_journal`]) scans the log for complete
//! frames, installs the last complete snapshot, and replays the record suffix
//! by *direct state application*: records are inode-keyed and carry the
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

// Record kind tags (first payload byte).
const K_MKDIR: u8 = 1;
const K_CREATE: u8 = 2;
const K_SYMLINK: u8 = 3;
const K_LINK: u8 = 4;
const K_UNLINK: u8 = 5;
const K_RMDIR: u8 = 6;
const K_RMTREE: u8 = 7;
const K_RENAME: u8 = 8;
const K_WRITE: u8 = 9;
const K_SETCONTENT: u8 = 10;
const K_TRUNCATE: u8 = 11;
const K_SETMODE: u8 = 12;
const K_SETOWNER: u8 = 13;
const K_SETACL: u8 = 14;
const K_SETXATTR: u8 = 15;
const K_REMOVEXATTR: u8 = 16;
const K_SNAPSHOT: u8 = 17;
const K_COMMIT: u8 = 18;

// ----------------------------------------------------------------------
// Records
// ----------------------------------------------------------------------

/// One journaled mutation. Records are inode-keyed (not path-keyed): the
/// committing operation captured the allocated inode number under its shard
/// locks, so replay reinstalls objects under their original numbers and
/// descriptor-relative writes need no path at all. Every record carries the
/// virtual-clock tick of its mutation; replay writes `mtime`/`ctime` from it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    Mkdir {
        parent: Ino,
        name: String,
        ino: Ino,
        mode: Mode,
        uid: Uid,
        gid: Gid,
        tick: Timestamp,
    },
    Create {
        parent: Ino,
        name: String,
        ino: Ino,
        uid: Uid,
        gid: Gid,
        data: Vec<u8>,
        tick: Timestamp,
    },
    Symlink {
        parent: Ino,
        name: String,
        ino: Ino,
        target: String,
        uid: Uid,
        gid: Gid,
        tick: Timestamp,
    },
    Link {
        parent: Ino,
        name: String,
        ino: Ino,
        tick: Timestamp,
    },
    Unlink {
        parent: Ino,
        name: String,
        tick: Timestamp,
    },
    Rmdir {
        parent: Ino,
        name: String,
        tick: Timestamp,
    },
    RmTree {
        parent: Ino,
        name: String,
        tick: Timestamp,
    },
    Rename {
        from_parent: Ino,
        from_name: String,
        to_parent: Ino,
        to_name: String,
        tick: Timestamp,
    },
    Write {
        ino: Ino,
        offset: u64,
        data: Vec<u8>,
        tick: Timestamp,
    },
    SetContent {
        ino: Ino,
        data: Vec<u8>,
        tick: Timestamp,
    },
    Truncate {
        ino: Ino,
        len: u64,
        tick: Timestamp,
    },
    SetMode {
        ino: Ino,
        mode: Mode,
        tick: Timestamp,
    },
    SetOwner {
        ino: Ino,
        uid: Uid,
        gid: Gid,
        tick: Timestamp,
    },
    SetAcl {
        ino: Ino,
        acl: Option<Acl>,
        tick: Timestamp,
    },
    SetXattr {
        ino: Ino,
        name: String,
        value: Vec<u8>,
        tick: Timestamp,
    },
    RemoveXattr {
        ino: Ino,
        name: String,
        tick: Timestamp,
    },
    /// An atomic multi-record transaction ([`Filesystem::apply_batch`]):
    /// overlay copy-up chains and view commits land as one frame, so a
    /// crash replays them fully-applied or fully-absent — never partially.
    /// Sub-records are ordinary records; nesting is rejected on decode.
    Commit(Vec<Record>),
    Snapshot(Box<SnapshotData>),
}

impl Record {
    /// The syscall category a replayed record is charged as (one counted
    /// syscall per record — the deterministic warm-restart cost metric).
    /// Snapshot installation is free: it is a memory image, not replayed ops.
    fn op_kind(&self) -> Option<OpKind> {
        Some(match self {
            Record::Mkdir { .. } => OpKind::Mkdir,
            Record::Create { .. } => OpKind::Open,
            Record::Symlink { .. } => OpKind::Symlink,
            Record::Link { .. } => OpKind::Link,
            Record::Unlink { .. } => OpKind::Unlink,
            Record::Rmdir { .. } | Record::RmTree { .. } => OpKind::Rmdir,
            Record::Rename { .. } => OpKind::Rename,
            Record::Write { .. } | Record::SetContent { .. } => OpKind::Write,
            Record::Truncate { .. } => OpKind::Truncate,
            Record::SetMode { .. } | Record::SetOwner { .. } => OpKind::Setattr,
            Record::SetAcl { .. } | Record::SetXattr { .. } | Record::RemoveXattr { .. } => {
                OpKind::Xattr
            }
            // Charged per sub-record by the restore driver, not as a unit.
            Record::Commit(_) => return None,
            Record::Snapshot(_) => return None,
        })
    }
}

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
            enc_acl_opt(&mut e, &n.acl);
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
                let k = d.str()?;
                let v = d.bytes()?;
                xattrs.push((k, v));
            }
            let acl = dec_acl_opt(d)?;
            let payload = match d.u8()? {
                0 => SnapPayload::File(d.bytes()?),
                1 => {
                    let parent = d.u64()?;
                    let ne = d.u32()? as usize;
                    let mut entries = Vec::with_capacity(ne);
                    for _ in 0..ne {
                        let name = d.str()?;
                        let ino = d.u64()?;
                        entries.push((name, ino));
                    }
                    SnapPayload::Dir { parent, entries }
                }
                2 => SnapPayload::Symlink(d.str()?),
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
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()? as usize;
        self.take(n).map(|s| s.to_vec())
    }
    fn str(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?).ok()
    }
    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

fn enc_acl_opt(e: &mut Enc, acl: &Option<Acl>) {
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

fn encode_record(rec: &Record) -> Vec<u8> {
    let mut e = Enc::new();
    match rec {
        Record::Mkdir {
            parent,
            name,
            ino,
            mode,
            uid,
            gid,
            tick,
        } => {
            e.u8(K_MKDIR);
            e.u64(parent.0);
            e.str(name);
            e.u64(ino.0);
            e.u16(mode.0);
            e.u32(uid.0);
            e.u32(gid.0);
            e.u64(tick.0);
        }
        Record::Create {
            parent,
            name,
            ino,
            uid,
            gid,
            data,
            tick,
        } => {
            e.u8(K_CREATE);
            e.u64(parent.0);
            e.str(name);
            e.u64(ino.0);
            e.u32(uid.0);
            e.u32(gid.0);
            e.bytes(data);
            e.u64(tick.0);
        }
        Record::Symlink {
            parent,
            name,
            ino,
            target,
            uid,
            gid,
            tick,
        } => {
            e.u8(K_SYMLINK);
            e.u64(parent.0);
            e.str(name);
            e.u64(ino.0);
            e.str(target);
            e.u32(uid.0);
            e.u32(gid.0);
            e.u64(tick.0);
        }
        Record::Link {
            parent,
            name,
            ino,
            tick,
        } => {
            e.u8(K_LINK);
            e.u64(parent.0);
            e.str(name);
            e.u64(ino.0);
            e.u64(tick.0);
        }
        Record::Unlink { parent, name, tick } => {
            e.u8(K_UNLINK);
            e.u64(parent.0);
            e.str(name);
            e.u64(tick.0);
        }
        Record::Rmdir { parent, name, tick } => {
            e.u8(K_RMDIR);
            e.u64(parent.0);
            e.str(name);
            e.u64(tick.0);
        }
        Record::RmTree { parent, name, tick } => {
            e.u8(K_RMTREE);
            e.u64(parent.0);
            e.str(name);
            e.u64(tick.0);
        }
        Record::Rename {
            from_parent,
            from_name,
            to_parent,
            to_name,
            tick,
        } => {
            e.u8(K_RENAME);
            e.u64(from_parent.0);
            e.str(from_name);
            e.u64(to_parent.0);
            e.str(to_name);
            e.u64(tick.0);
        }
        Record::Write {
            ino,
            offset,
            data,
            tick,
        } => {
            e.u8(K_WRITE);
            e.u64(ino.0);
            e.u64(*offset);
            e.bytes(data);
            e.u64(tick.0);
        }
        Record::SetContent { ino, data, tick } => {
            e.u8(K_SETCONTENT);
            e.u64(ino.0);
            e.bytes(data);
            e.u64(tick.0);
        }
        Record::Truncate { ino, len, tick } => {
            e.u8(K_TRUNCATE);
            e.u64(ino.0);
            e.u64(*len);
            e.u64(tick.0);
        }
        Record::SetMode { ino, mode, tick } => {
            e.u8(K_SETMODE);
            e.u64(ino.0);
            e.u16(mode.0);
            e.u64(tick.0);
        }
        Record::SetOwner {
            ino,
            uid,
            gid,
            tick,
        } => {
            e.u8(K_SETOWNER);
            e.u64(ino.0);
            e.u32(uid.0);
            e.u32(gid.0);
            e.u64(tick.0);
        }
        Record::SetAcl { ino, acl, tick } => {
            e.u8(K_SETACL);
            e.u64(ino.0);
            enc_acl_opt(&mut e, acl);
            e.u64(tick.0);
        }
        Record::SetXattr {
            ino,
            name,
            value,
            tick,
        } => {
            e.u8(K_SETXATTR);
            e.u64(ino.0);
            e.str(name);
            e.bytes(value);
            e.u64(tick.0);
        }
        Record::RemoveXattr { ino, name, tick } => {
            e.u8(K_REMOVEXATTR);
            e.u64(ino.0);
            e.str(name);
            e.u64(tick.0);
        }
        Record::Commit(subs) => {
            e.u8(K_COMMIT);
            e.u32(subs.len() as u32);
            for s in subs {
                e.bytes(&encode_record(s));
            }
        }
        Record::Snapshot(s) => {
            e.u8(K_SNAPSHOT);
            e.u64(s.clock);
            e.u64(s.next_ino);
            e.u64(s.next_fd);
            let body = s.encode_body();
            e.0.extend_from_slice(&body);
        }
    }
    e.0
}

fn decode_record(payload: &[u8]) -> Option<Record> {
    let mut d = Dec::new(payload);
    let rec = match d.u8()? {
        K_MKDIR => Record::Mkdir {
            parent: Ino(d.u64()?),
            name: d.str()?,
            ino: Ino(d.u64()?),
            mode: Mode(d.u16()?),
            uid: Uid(d.u32()?),
            gid: Gid(d.u32()?),
            tick: Timestamp(d.u64()?),
        },
        K_CREATE => Record::Create {
            parent: Ino(d.u64()?),
            name: d.str()?,
            ino: Ino(d.u64()?),
            uid: Uid(d.u32()?),
            gid: Gid(d.u32()?),
            data: d.bytes()?,
            tick: Timestamp(d.u64()?),
        },
        K_SYMLINK => Record::Symlink {
            parent: Ino(d.u64()?),
            name: d.str()?,
            ino: Ino(d.u64()?),
            target: d.str()?,
            uid: Uid(d.u32()?),
            gid: Gid(d.u32()?),
            tick: Timestamp(d.u64()?),
        },
        K_LINK => Record::Link {
            parent: Ino(d.u64()?),
            name: d.str()?,
            ino: Ino(d.u64()?),
            tick: Timestamp(d.u64()?),
        },
        K_UNLINK => Record::Unlink {
            parent: Ino(d.u64()?),
            name: d.str()?,
            tick: Timestamp(d.u64()?),
        },
        K_RMDIR => Record::Rmdir {
            parent: Ino(d.u64()?),
            name: d.str()?,
            tick: Timestamp(d.u64()?),
        },
        K_RMTREE => Record::RmTree {
            parent: Ino(d.u64()?),
            name: d.str()?,
            tick: Timestamp(d.u64()?),
        },
        K_RENAME => Record::Rename {
            from_parent: Ino(d.u64()?),
            from_name: d.str()?,
            to_parent: Ino(d.u64()?),
            to_name: d.str()?,
            tick: Timestamp(d.u64()?),
        },
        K_WRITE => Record::Write {
            ino: Ino(d.u64()?),
            offset: d.u64()?,
            data: d.bytes()?,
            tick: Timestamp(d.u64()?),
        },
        K_SETCONTENT => Record::SetContent {
            ino: Ino(d.u64()?),
            data: d.bytes()?,
            tick: Timestamp(d.u64()?),
        },
        K_TRUNCATE => Record::Truncate {
            ino: Ino(d.u64()?),
            len: d.u64()?,
            tick: Timestamp(d.u64()?),
        },
        K_SETMODE => Record::SetMode {
            ino: Ino(d.u64()?),
            mode: Mode(d.u16()?),
            tick: Timestamp(d.u64()?),
        },
        K_SETOWNER => Record::SetOwner {
            ino: Ino(d.u64()?),
            uid: Uid(d.u32()?),
            gid: Gid(d.u32()?),
            tick: Timestamp(d.u64()?),
        },
        K_SETACL => Record::SetAcl {
            ino: Ino(d.u64()?),
            acl: dec_acl_opt(&mut d)?,
            tick: Timestamp(d.u64()?),
        },
        K_SETXATTR => Record::SetXattr {
            ino: Ino(d.u64()?),
            name: d.str()?,
            value: d.bytes()?,
            tick: Timestamp(d.u64()?),
        },
        K_REMOVEXATTR => Record::RemoveXattr {
            ino: Ino(d.u64()?),
            name: d.str()?,
            tick: Timestamp(d.u64()?),
        },
        K_COMMIT => {
            let count = d.u32()? as usize;
            let mut subs = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let body = d.bytes()?;
                let sub = decode_record(&body)?;
                if matches!(sub, Record::Commit(_) | Record::Snapshot(_)) {
                    return None; // no nesting, no snapshots inside a txn
                }
                subs.push(sub);
            }
            Record::Commit(subs)
        }
        K_SNAPSHOT => {
            let clock = d.u64()?;
            let next_ino = d.u64()?;
            let next_fd = d.u64()?;
            let nodes = SnapshotData::decode_body(&mut d)?;
            Record::Snapshot(Box::new(SnapshotData {
                clock,
                next_ino,
                next_fd,
                nodes,
            }))
        }
        _ => return None,
    };
    if !d.done() {
        return None; // trailing garbage inside a checksummed frame
    }
    Some(rec)
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.push(FRAME_MAGIC);
    out.push(JOURNAL_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv32(payload).to_le_bytes());
    out
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
        let f = frame(&encode_record(rec));
        let mut log = self.log.lock();
        log.extend_from_slice(&f);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.since_snapshot.fetch_add(1, Ordering::Relaxed);
    }

    fn append_snapshot(&self, snap: &SnapshotData) {
        let f = frame(&encode_record(&Record::Snapshot(Box::new(snap.clone()))));
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
        self.journal.append_snapshot(&snap);
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
        self.journal.append_snapshot(&snap);
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
            enc_acl_opt(e, &n.acl);
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
    /// snapshot (if any), then replay the record suffix by direct state
    /// application — no hooks run, no events fire, and each applied record
    /// is charged exactly one syscall (the deterministic warm-restart cost).
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
            if fs.apply_record(rec) {
                report.records_replayed += 1;
                match rec {
                    // A transaction is charged per sub-record: the restored
                    // tree paid the same deterministic syscall bill the live
                    // batch did.
                    Record::Commit(subs) => {
                        for s in subs {
                            if let Some(op) = s.op_kind() {
                                fs.count(op, "");
                                report.replay_syscalls += 1;
                            }
                        }
                    }
                    _ => {
                        if let Some(op) = rec.op_kind() {
                            fs.count(op, "");
                            report.replay_syscalls += 1;
                        }
                    }
                }
            } else {
                report.records_skipped += 1;
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

    /// Append one record if journaling is on. Called at mutation commit
    /// points *while the mutation's shard locks are held*, right where
    /// `bump_gen` runs, so the log is a linearization of the tree. Proc
    /// maintenance and proc-covered paths are exempt for the same reason
    /// they are exempt from syscall counting: introspection must not
    /// disturb (or bloat) what it measures, and the proc subtree is derived
    /// state re-created on mount.
    #[inline]
    pub(crate) fn jrnl(&self, path: &str, mk: impl FnOnce() -> Record) {
        if !self.journal.is_enabled() || ProcDepth::active() || self.proc.covers(path) {
            return;
        }
        self.journal.append_record(&mk());
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

    /// Apply one record by direct state mutation, mirroring exactly what
    /// the original operation did under its shard locks — same field
    /// updates, same link-count dance, same removal decisions (with
    /// `open_count` uniformly zero: orphans died at the crash boundary).
    /// Returns false when the record's target is gone (skipped orphan).
    fn apply_record(&self, rec: &Record) -> bool {
        let mut set = self.tables.lock_all();
        let applied = self.apply_record_locked(&mut set, rec);
        drop(set);
        if applied {
            if let Some(t) = rec_tick(rec) {
                self.clock.advance_to(t);
            }
        }
        applied
    }

    /// [`Self::apply_record`] under an already-held global lock — the shared
    /// body that both replay and live batch application
    /// ([`Filesystem::apply_batch`]) go through, so a batch mutates the tree
    /// exactly the way its records will replay.
    pub(crate) fn apply_record_locked(&self, set: &mut ShardSet, rec: &Record) -> bool {
        match rec {
            Record::Mkdir {
                parent,
                name,
                ino,
                mode,
                uid,
                gid,
                tick,
            } => {
                let Ok(p) = set.inode(*parent) else {
                    return false;
                };
                if !matches!(p.kind, NodeKind::Dir { .. }) {
                    return false;
                }
                let node = Inode::new(NodeKind::dir(*parent), *mode, *uid, *gid, *tick);
                set.insert_inode(*ino, node);
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.insert(name.clone(), *ino);
                    }
                    p.nlink += 1;
                    p.mtime = *tick;
                }
                self.tables.ensure_ino_floor(ino.0 + 1);
                true
            }
            Record::Create {
                parent,
                name,
                ino,
                uid,
                gid,
                data,
                tick,
            } => {
                let Ok(p) = set.inode(*parent) else {
                    return false;
                };
                if !matches!(p.kind, NodeKind::Dir { .. }) {
                    return false;
                }
                let kind = NodeKind::File(data.clone());
                let node = Inode::new(kind, Mode::FILE_DEFAULT, *uid, *gid, *tick);
                set.insert_inode(*ino, node);
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.insert(name.clone(), *ino);
                    }
                    p.mtime = *tick;
                }
                self.tables.ensure_ino_floor(ino.0 + 1);
                true
            }
            Record::Symlink {
                parent,
                name,
                ino,
                target,
                uid,
                gid,
                tick,
            } => {
                let Ok(p) = set.inode(*parent) else {
                    return false;
                };
                if !matches!(p.kind, NodeKind::Dir { .. }) {
                    return false;
                }
                let kind = NodeKind::Symlink(target.clone());
                let node = Inode::new(kind, Mode::SYMLINK, *uid, *gid, *tick);
                set.insert_inode(*ino, node);
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.insert(name.clone(), *ino);
                    }
                    p.mtime = *tick;
                }
                self.tables.ensure_ino_floor(ino.0 + 1);
                true
            }
            Record::Link {
                parent,
                name,
                ino,
                tick,
            } => {
                if set.inode(*ino).is_err() {
                    return false;
                }
                {
                    let Ok(node) = set.inode_mut(*ino) else {
                        return false;
                    };
                    node.nlink += 1;
                    node.ctime = *tick;
                }
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.insert(name.clone(), *ino);
                    }
                    p.mtime = *tick;
                }
                true
            }
            Record::Unlink { parent, name, tick } => {
                let ino = match set
                    .inode(*parent)
                    .ok()
                    .and_then(|p| p.dir_entries().ok())
                    .and_then(|e| e.get(name).copied())
                {
                    Some(i) => i,
                    None => return false,
                };
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.remove(name);
                    }
                    p.mtime = *tick;
                }
                if let Ok(node) = set.inode_mut(ino) {
                    node.nlink -= 1;
                    node.ctime = *tick;
                    if node.nlink == 0 {
                        set.remove_inode(ino);
                    }
                }
                true
            }
            Record::Rmdir { parent, name, tick } => {
                let ino = match set
                    .inode(*parent)
                    .ok()
                    .and_then(|p| p.dir_entries().ok())
                    .and_then(|e| e.get(name).copied())
                {
                    Some(i) => i,
                    None => return false,
                };
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.remove(name);
                    }
                    p.nlink -= 1;
                    p.mtime = *tick;
                }
                set.remove_inode(ino);
                true
            }
            Record::RmTree { parent, name, tick } => {
                let ino = match set
                    .inode(*parent)
                    .ok()
                    .and_then(|p| p.dir_entries().ok())
                    .and_then(|e| e.get(name).copied())
                {
                    Some(i) => i,
                    None => return false,
                };
                Self::replay_remove_tree(set, ino);
                if let Ok(p) = set.inode_mut(*parent) {
                    if let Ok(e) = p.dir_entries_mut() {
                        e.remove(name);
                    }
                    p.nlink -= 1;
                    p.mtime = *tick;
                }
                set.remove_inode(ino);
                true
            }
            Record::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
                tick,
            } => {
                let src = match set
                    .inode(*from_parent)
                    .ok()
                    .and_then(|p| p.dir_entries().ok())
                    .and_then(|e| e.get(from_name).copied())
                {
                    Some(i) => i,
                    None => return false,
                };
                let dst = set
                    .inode(*to_parent)
                    .ok()
                    .and_then(|p| p.dir_entries().ok())
                    .and_then(|e| e.get(to_name).copied());
                let src_is_dir = set
                    .inode(src)
                    .map(|n| matches!(n.kind, NodeKind::Dir { .. }))
                    .unwrap_or(false);
                if let Some(dst) = dst {
                    let dst_is_dir = set
                        .inode(dst)
                        .map(|n| matches!(n.kind, NodeKind::Dir { .. }))
                        .unwrap_or(false);
                    if dst_is_dir {
                        if let Ok(pt) = set.inode_mut(*to_parent) {
                            pt.nlink -= 1;
                        }
                        set.remove_inode(dst);
                    } else if let Ok(node) = set.inode_mut(dst) {
                        node.nlink -= 1;
                        if node.nlink == 0 {
                            set.remove_inode(dst);
                        }
                    }
                }
                if let Ok(pf) = set.inode_mut(*from_parent) {
                    if let Ok(e) = pf.dir_entries_mut() {
                        e.remove(from_name);
                    }
                    pf.mtime = *tick;
                }
                if let Ok(pt) = set.inode_mut(*to_parent) {
                    if let Ok(e) = pt.dir_entries_mut() {
                        e.insert(to_name.clone(), src);
                    }
                    pt.mtime = *tick;
                }
                if src_is_dir && from_parent != to_parent {
                    if let Ok(pf) = set.inode_mut(*from_parent) {
                        pf.nlink -= 1;
                    }
                    if let Ok(pt) = set.inode_mut(*to_parent) {
                        pt.nlink += 1;
                    }
                    if let Ok(node) = set.inode_mut(src) {
                        if let NodeKind::Dir { parent, .. } = &mut node.kind {
                            *parent = *to_parent;
                        }
                    }
                }
                if let Ok(node) = set.inode_mut(src) {
                    node.ctime = *tick;
                }
                true
            }
            Record::Write {
                ino,
                offset,
                data,
                tick,
            } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                match &mut node.kind {
                    NodeKind::File(d) => {
                        let end = *offset as usize + data.len();
                        if d.len() < end {
                            d.resize(end, 0);
                        }
                        d[*offset as usize..end].copy_from_slice(data);
                        node.mtime = *tick;
                        true
                    }
                    _ => false,
                }
            }
            Record::SetContent { ino, data, tick } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                match &mut node.kind {
                    NodeKind::File(d) => {
                        *d = data.clone();
                        node.mtime = *tick;
                        true
                    }
                    _ => false,
                }
            }
            Record::Truncate { ino, len, tick } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                match &mut node.kind {
                    NodeKind::File(d) => {
                        d.resize(*len as usize, 0);
                        node.mtime = *tick;
                        true
                    }
                    _ => false,
                }
            }
            Record::SetMode { ino, mode, tick } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                node.mode = *mode;
                node.ctime = *tick;
                true
            }
            Record::SetOwner {
                ino,
                uid,
                gid,
                tick,
            } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                node.uid = *uid;
                node.gid = *gid;
                node.ctime = *tick;
                true
            }
            Record::SetAcl { ino, acl, tick } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                node.acl = acl.clone();
                node.ctime = *tick;
                true
            }
            Record::SetXattr {
                ino,
                name,
                value,
                tick,
            } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                node.xattrs.insert(name.clone(), value.clone());
                node.ctime = *tick;
                true
            }
            Record::RemoveXattr { ino, name, tick } => {
                let Ok(node) = set.inode_mut(*ino) else {
                    return false;
                };
                node.xattrs.remove(name);
                node.ctime = *tick;
                true
            }
            Record::Commit(subs) => {
                // All-or-nothing is a property of the *frame*: a Commit that
                // made it into the log is applied in full (decode already
                // rejected nesting, so recursion is one level deep).
                for s in subs {
                    self.apply_record_locked(set, s);
                }
                true
            }
            Record::Snapshot(_) => false, // handled by the restore driver
        }
    }

    /// Replay-side mirror of `remove_tree`: bottom-up subtree removal with
    /// the same link-count updates (open handles uniformly absent).
    fn replay_remove_tree(set: &mut ShardSet, ino: Ino) {
        let children: Vec<(String, Ino)> = set
            .inode(ino)
            .ok()
            .and_then(|n| n.dir_entries().ok())
            .map(|e| e.iter().map(|(n, i)| (n.clone(), *i)).collect())
            .unwrap_or_default();
        for (name, child) in children {
            let is_dir = set
                .inode(child)
                .map(|n| matches!(n.kind, NodeKind::Dir { .. }))
                .unwrap_or(false);
            if is_dir {
                Self::replay_remove_tree(set, child);
                set.remove_inode(child);
                if let Ok(node) = set.inode_mut(ino) {
                    node.nlink -= 1;
                    if let Ok(e) = node.dir_entries_mut() {
                        e.remove(&name);
                    }
                }
            } else {
                let keep = match set.inode_mut(child) {
                    Ok(cn) => {
                        cn.nlink = cn.nlink.saturating_sub(1);
                        cn.nlink > 0
                    }
                    Err(_) => false,
                };
                if !keep {
                    set.remove_inode(child);
                }
                if let Ok(node) = set.inode_mut(ino) {
                    if let Ok(e) = node.dir_entries_mut() {
                        e.remove(&name);
                    }
                }
            }
        }
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
    /// tree untouched), then applied under a single `lock_all` acquisition
    /// — the linearization point — through the same
    /// [`Filesystem::apply_record_locked`] path replay uses, and journaled
    /// as a single [`Record::Commit`] frame. A crash therefore replays the
    /// batch fully-applied or fully-absent, never partially.
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
            let name = match path.file_name() {
                Some(n) if valid_name(n) => n,
                _ => return err(Errno::EINVAL, path.as_str()),
            };
            let _ = name;
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
                    if enforce {
                        let p = set.inode(pino)?;
                        let ok = check_access(
                            creds,
                            p.uid,
                            p.gid,
                            p.mode,
                            p.acl.as_ref(),
                            Access::Write,
                        ) && check_access(
                            creds,
                            p.uid,
                            p.gid,
                            p.mode,
                            p.acl.as_ref(),
                            Access::Exec,
                        );
                        if !ok {
                            return err(Errno::EACCES, parent.as_str());
                        }
                    }
                }
                BatchNode::Real(_, false) | BatchNode::Fresh(false) => {
                    return err(Errno::ENOTDIR, parent.as_str());
                }
                BatchNode::Absent => return err(Errno::ENOENT, parent.as_str()),
            }
            match op {
                BatchOp::Mkdir { .. } => match target {
                    BatchNode::Absent => {
                        virt.insert(path.as_str().to_string(), VirtKind::Dir);
                    }
                    _ => return err(Errno::EEXIST, path.as_str()),
                },
                BatchOp::PutFile { .. } => match target {
                    BatchNode::Real(_, true) | BatchNode::Fresh(true) => {
                        return err(Errno::EISDIR, path.as_str());
                    }
                    _ => {
                        virt.insert(path.as_str().to_string(), VirtKind::NonDir);
                    }
                },
                BatchOp::PutSymlink { .. } => match target {
                    BatchNode::Absent => {
                        virt.insert(path.as_str().to_string(), VirtKind::NonDir);
                    }
                    _ => return err(Errno::EEXIST, path.as_str()),
                },
                BatchOp::Remove { .. } => {
                    virt.insert(path.as_str().to_string(), VirtKind::Removed);
                }
            }
        }

        // -------- charge the writer: the quota gate precedes mutation ---
        if creds.uid.0 != 0 && !HookDepth::active() && !ProcDepth::active() {
            for op in ops {
                self.rctl()
                    .charge_syscall(creds.uid.0, op.path().as_str())?;
            }
        }

        // -------- apply: build records, mutate via the replay path ------
        let mut records: Vec<Record> = Vec::new();
        let mut events: Vec<(EventKind, VPath, Option<String>)> = Vec::new();
        let mut bytes = 0u64;
        for op in ops {
            let path = op.path();
            let name = path.file_name().unwrap_or("").to_string();
            let parent = path.parent();
            match op {
                BatchOp::Mkdir {
                    mode,
                    uid,
                    gid,
                    xattrs,
                    ..
                } => {
                    if matches!(batch_lookup(&set, path), Some((_, true))) {
                        continue;
                    }
                    let Some((pino, true)) = batch_lookup(&set, &parent) else {
                        continue;
                    };
                    let ino = self.tables.alloc_ino();
                    let rec = Record::Mkdir {
                        parent: pino,
                        name: name.clone(),
                        ino,
                        mode: Mode(mode.0 & 0o7777),
                        uid: *uid,
                        gid: *gid,
                        tick: self.clock.tick(),
                    };
                    self.apply_record_locked(&mut set, &rec);
                    records.push(rec);
                    for (k, v) in xattrs {
                        let rec = Record::SetXattr {
                            ino,
                            name: k.clone(),
                            value: v.clone(),
                            tick: self.clock.tick(),
                        };
                        self.apply_record_locked(&mut set, &rec);
                        records.push(rec);
                    }
                    self.bump_gen(pino);
                    events.push((EventKind::Create, path.clone(), Some(name)));
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
                    let Some((pino, true)) = batch_lookup(&set, &parent) else {
                        continue;
                    };
                    if let Some((_, is_dir)) = batch_lookup(&set, path) {
                        if is_dir {
                            continue;
                        }
                        let rec = Record::Unlink {
                            parent: pino,
                            name: name.clone(),
                            tick: self.clock.tick(),
                        };
                        self.apply_record_locked(&mut set, &rec);
                        records.push(rec);
                        events.push((EventKind::Delete, path.clone(), Some(name.clone())));
                    }
                    let ino = self.tables.alloc_ino();
                    let rec = Record::Create {
                        parent: pino,
                        name: name.clone(),
                        ino,
                        uid: *uid,
                        gid: *gid,
                        data: data.clone(),
                        tick: self.clock.tick(),
                    };
                    self.apply_record_locked(&mut set, &rec);
                    records.push(rec);
                    bytes += data.len() as u64;
                    if *mode != Mode::FILE_DEFAULT {
                        let rec = Record::SetMode {
                            ino,
                            mode: Mode(mode.0 & 0o7777),
                            tick: self.clock.tick(),
                        };
                        self.apply_record_locked(&mut set, &rec);
                        records.push(rec);
                    }
                    for (k, v) in xattrs {
                        let rec = Record::SetXattr {
                            ino,
                            name: k.clone(),
                            value: v.clone(),
                            tick: self.clock.tick(),
                        };
                        self.apply_record_locked(&mut set, &rec);
                        records.push(rec);
                    }
                    if acl.is_some() {
                        let rec = Record::SetAcl {
                            ino,
                            acl: acl.clone(),
                            tick: self.clock.tick(),
                        };
                        self.apply_record_locked(&mut set, &rec);
                        records.push(rec);
                    }
                    self.bump_gen(pino);
                    events.push((EventKind::Create, path.clone(), Some(name.clone())));
                    events.push((EventKind::CloseWrite, path.clone(), Some(name)));
                }
                BatchOp::PutSymlink {
                    target, uid, gid, ..
                } => {
                    let Some((pino, true)) = batch_lookup(&set, &parent) else {
                        continue;
                    };
                    if batch_lookup(&set, path).is_some() {
                        continue; // validated absent; defensive
                    }
                    let ino = self.tables.alloc_ino();
                    let rec = Record::Symlink {
                        parent: pino,
                        name: name.clone(),
                        ino,
                        target: target.clone(),
                        uid: *uid,
                        gid: *gid,
                        tick: self.clock.tick(),
                    };
                    self.apply_record_locked(&mut set, &rec);
                    records.push(rec);
                    self.bump_gen(pino);
                    events.push((EventKind::Create, path.clone(), Some(name)));
                }
                BatchOp::Remove { .. } => {
                    let Some((ino, is_dir)) = batch_lookup(&set, path) else {
                        continue;
                    };
                    let Some((pino, _)) = batch_lookup(&set, &parent) else {
                        continue;
                    };
                    let tick = self.clock.tick();
                    let rec = if is_dir {
                        Record::RmTree {
                            parent: pino,
                            name: name.clone(),
                            tick,
                        }
                    } else {
                        Record::Unlink {
                            parent: pino,
                            name: name.clone(),
                            tick,
                        }
                    };
                    self.apply_record_locked(&mut set, &rec);
                    records.push(rec);
                    self.bump_gen(pino);
                    if is_dir {
                        self.bump_gen(ino);
                    }
                    events.push((EventKind::Delete, path.clone(), Some(name)));
                }
            }
        }
        let report = BatchReport {
            records: records.len(),
            bytes,
        };
        if !records.is_empty() {
            for r in &records {
                if let Some(op) = r.op_kind() {
                    self.count(op, "");
                }
            }
            if self.journal.is_enabled() && !ProcDepth::active() {
                self.journal.append_record(&Record::Commit(records));
            }
        }
        drop(set);
        self.notify().emit_batch(&events);
        Ok(report)
    }
}

fn rec_tick(rec: &Record) -> Option<Timestamp> {
    Some(match rec {
        Record::Mkdir { tick, .. }
        | Record::Create { tick, .. }
        | Record::Symlink { tick, .. }
        | Record::Link { tick, .. }
        | Record::Unlink { tick, .. }
        | Record::Rmdir { tick, .. }
        | Record::RmTree { tick, .. }
        | Record::Rename { tick, .. }
        | Record::Write { tick, .. }
        | Record::SetContent { tick, .. }
        | Record::Truncate { tick, .. }
        | Record::SetMode { tick, .. }
        | Record::SetOwner { tick, .. }
        | Record::SetAcl { tick, .. }
        | Record::SetXattr { tick, .. }
        | Record::RemoveXattr { tick, .. } => *tick,
        Record::Commit(subs) => return subs.last().and_then(rec_tick),
        Record::Snapshot(_) => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Credentials;

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            Record::Mkdir {
                parent: Ino(1),
                name: "a".into(),
                ino: Ino(2),
                mode: Mode(0o755),
                uid: Uid(0),
                gid: Gid(0),
                tick: Timestamp(7),
            },
            Record::Write {
                ino: Ino(2),
                offset: 3,
                data: vec![1, 2, 3],
                tick: Timestamp(9),
            },
            Record::SetAcl {
                ino: Ino(2),
                acl: Some({
                    let mut a = Acl::new();
                    a.set_user(Uid(5), 0o6);
                    a.set_mask(0o7);
                    a
                }),
                tick: Timestamp(11),
            },
        ];
        for r in &recs {
            let enc = encode_record(r);
            assert_eq!(decode_record(&enc).as_ref(), Some(r));
        }
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
