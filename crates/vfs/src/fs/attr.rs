//! Attribute operations: `stat` and friends, and the readers/mutators of
//! an inode's metadata (mode, owner, ACL, extended attributes, length).
//! Each family shares one skeleton — [`Filesystem::read_inode`] on the read
//! side, [`Filesystem::update_inode`] on the write side — so the
//! resolve → lock → re-verify → act protocol is written once.

use std::borrow::Cow;

use super::walk::permits;
use super::Filesystem;
use crate::acl::Acl;
use crate::counter::OpKind;
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::journal::Record;
use crate::notify::EventKind;
use crate::path::{VPath, NAME_MAX};
use crate::readpath::AttrRead;
use crate::shard::{Inode, LockKey, NodeKind};
use crate::types::{Access, Credentials, FileStat, Gid, Ino, Mode, Timestamp, Uid};

impl Filesystem {
    // ----------------------------------------------------------------
    // Metadata operations
    // ----------------------------------------------------------------

    /// `stat(2)`: follow symlinks.
    pub fn stat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
        self.stat_common(path, creds, true)
    }

    /// `lstat(2)`: do not follow a final symlink.
    pub fn lstat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
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
    pub(super) fn stat_locked_and_fill(&self, ino: Ino) -> VfsResult<FileStat> {
        self.tables.with_inode_at(ino, |node, seq| {
            let st = Self::stat_of(node, ino);
            self.readpath.publish_attr(seq, &st, node.acl.is_some());
            st
        })
    }

    /// `ino`'s attributes, the one body behind `stat`/`lstat`/`fstat`: a
    /// validated attribute block answers with zero table locks, anything
    /// else takes the locked read (which refills the block).
    pub(super) fn stat_ino(&self, ino: Ino) -> VfsResult<FileStat> {
        match self.readpath.read_attr(&self.tables, ino) {
            AttrRead::Hit(st) => Ok(st),
            AttrRead::Fallback => self.stat_locked_and_fill(ino),
        }
    }

    fn stat_common(&self, path: &str, creds: &Credentials, follow: bool) -> VfsResult<FileStat> {
        self.pre_access(path);
        self.charge_uid(OpKind::Stat, path, creds.uid)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, follow)?;
            // stat(2) needs no permission on the target itself — ancestor
            // exec was checked during resolution (dcache hits revalidate it
            // against the caller's credentials) — so even an ACL-bearing
            // inode may be served from its block.
            match self.stat_ino(ino) {
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
        self.charge_uid(OpKind::Stat, path, creds.uid)?;
        let vp = VPath::new(path);
        let r = self.resolve_live(&vp, creds, true)?;
        if r.target.is_none() {
            return err(Errno::ENOENT, vp.as_str());
        }
        Ok(r.full())
    }

    // ----------------------------------------------------------------
    // The two skeletons
    // ----------------------------------------------------------------

    /// [`Self::read_node`] of the object at `vp` (symlinks followed).
    pub(super) fn read_inode<R>(
        &self,
        vp: &VPath,
        creds: &Credentials,
        f: impl Fn(&Inode) -> VfsResult<R>,
    ) -> VfsResult<R> {
        let lookup = || self.lookup_live(vp, creds, true);
        self.read_node(lookup, vp.as_str(), creds, f)
    }

    /// The one read-side skeleton: `lookup` the inode, take its shard read
    /// lock, require Read access (`EACCES` naming `what`), and let `f` copy
    /// out its answer; retry from the lookup when the inode vanished in
    /// between.
    pub(super) fn read_node<R>(
        &self,
        lookup: impl Fn() -> VfsResult<Ino>,
        what: &str,
        creds: &Credentials,
        f: impl Fn(&Inode) -> VfsResult<R>,
    ) -> VfsResult<R> {
        loop {
            let read = self.tables.with_inode(lookup()?, |node| {
                if !permits(node, creds, Access::Read) {
                    return err(Errno::EACCES, what);
                }
                f(node)
            });
            if let Ok(r) = read {
                return r;
            }
        }
    }

    /// The one write-side skeleton: resolve `vp` (following symlinks),
    /// write-lock the inode's shard, re-verify it still exists (retry from
    /// resolution otherwise), let `plan` authorize the change against the
    /// inode as it stands and describe it as a record at a fresh tick,
    /// commit that record — still under the lock, so the log is a
    /// linearization of the tree — and emit `event` after release.
    /// `retire`: the change alters what dentries snapshot of this inode
    /// (its permission bits), so they are retired while the shard lock is
    /// still held.
    fn update_inode<'r>(
        &self,
        vp: &VPath,
        creds: &Credentials,
        event: EventKind,
        retire: bool,
        plan: impl Fn(Ino, &Inode, Timestamp) -> VfsResult<Record<'r>>,
    ) -> VfsResult<()> {
        self.validate_mutation(vp)?;
        loop {
            let ino = self.lookup_live(vp, creds, true)?;
            let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
            let Ok(node) = set.inode(ino) else {
                continue;
            };
            let rec = plan(ino, node, self.clock.tick())?;
            self.commit(&mut set, vp.as_str(), &rec);
            if retire {
                self.bump_gen(ino);
            }
            break;
        }
        self.notify.emit(event, vp, None);
        Ok(())
    }

    // ----------------------------------------------------------------
    // Mode, owner, ACL
    // ----------------------------------------------------------------

    /// `chmod(2)`.
    pub fn chmod(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Setattr, path, creds.uid)?;
        let vp = VPath::new(path);
        self.update_inode(&vp, creds, EventKind::Attrib, true, |ino, node, tick| {
            if !creds.is_root() && creds.uid != node.uid {
                return err(Errno::EPERM, vp.as_str());
            }
            let mode = Mode(mode.0 & 0o7777);
            Ok(Record::SetMode { ino, mode, tick })
        })
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
        self.charge_uid(OpKind::Setattr, path, creds.uid)?;
        let vp = VPath::new(path);
        self.update_inode(&vp, creds, EventKind::Attrib, true, |ino, node, tick| {
            if let Some(u) = uid {
                if !creds.is_root() && u != node.uid {
                    return err(Errno::EPERM, vp.as_str());
                }
            }
            if let Some(g) = gid {
                #[allow(clippy::nonminimal_bool)] // the spelled-out form mirrors POSIX wording
                if !creds.is_root() && !(creds.uid == node.uid && creds.in_group(g)) {
                    return err(Errno::EPERM, vp.as_str());
                }
            }
            let (uid, gid) = (uid.unwrap_or(node.uid), gid.unwrap_or(node.gid));
            Ok(Record::SetOwner {
                ino,
                uid,
                gid,
                tick,
            })
        })
    }

    /// Replace the ACL on `path` (owner or root only). `None` clears it.
    pub fn set_acl(&self, path: &str, acl: Option<Acl>, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        let vp = VPath::new(path);
        let acl = acl.filter(|a| !a.is_empty());
        self.update_inode(&vp, creds, EventKind::Attrib, true, |ino, node, tick| {
            if !creds.is_root() && creds.uid != node.uid {
                return err(Errno::EPERM, vp.as_str());
            }
            let acl = acl.as_ref().map(Cow::Borrowed);
            Ok(Record::SetAcl { ino, acl, tick })
        })
    }

    /// Read the ACL on `path` (requires Read access).
    pub fn get_acl(&self, path: &str, creds: &Credentials) -> VfsResult<Option<Acl>> {
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        self.read_inode(&VPath::new(path), creds, |node| Ok(node.acl.clone()))
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
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        if name.is_empty() || name.len() > NAME_MAX {
            return err(Errno::EINVAL, name);
        }
        let vp = VPath::new(path);
        self.update_inode(&vp, creds, EventKind::Attrib, false, |ino, node, tick| {
            if !permits(node, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            Ok(Record::SetXattr {
                ino,
                name,
                value,
                tick,
            })
        })
    }

    /// `getxattr(2)`-alike; `ENODATA` when absent.
    pub fn get_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        self.read_inode(&VPath::new(path), creds, |node| {
            node.xattrs
                .get(name)
                .cloned()
                .ok_or_else(|| VfsError::new(Errno::ENODATA, format!("{path}#{name}")))
        })
    }

    /// `listxattr(2)`-alike.
    pub fn list_xattr(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<String>> {
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        self.read_inode(&VPath::new(path), creds, |node| {
            Ok(node.xattrs.keys().cloned().collect())
        })
    }

    /// `removexattr(2)`-alike; `ENODATA` when absent.
    pub fn remove_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Xattr, path, creds.uid)?;
        let vp = VPath::new(path);
        self.update_inode(&vp, creds, EventKind::Attrib, false, |ino, node, tick| {
            if !permits(node, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            if !node.xattrs.contains_key(name) {
                return err(Errno::ENODATA, format!("{path}#{name}"));
            }
            Ok(Record::RemoveXattr { ino, name, tick })
        })
    }

    /// `truncate(2)` by path.
    pub fn truncate(&self, path: &str, len: u64, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Truncate, path, creds.uid)?;
        let vp = VPath::new(path);
        self.update_inode(&vp, creds, EventKind::Modify, false, |ino, node, tick| {
            if !permits(node, creds, Access::Write) {
                return err(Errno::EACCES, vp.as_str());
            }
            if len > self.limits.max_file_size {
                return err(Errno::ENOSPC, vp.as_str());
            }
            match node.kind {
                NodeKind::File(_) => Ok(Record::Truncate { ino, len, tick }),
                NodeKind::Dir { .. } => err(Errno::EISDIR, vp.as_str()),
                NodeKind::Symlink(_) => err(Errno::EINVAL, vp.as_str()),
            }
        })
    }
}
