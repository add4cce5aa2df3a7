//! The one mutator: do = redo.
//!
//! Every change to the tree — an entry bound or unbound, a link count, a
//! timestamp, file content, an attribute — is a [`Record`] applied by
//! [`Filesystem::apply_record_locked`]. A live call resolves, locks,
//! re-verifies and authorizes, then builds the record and hands it to
//! [`Filesystem::commit`]; journal replay decodes the same record from a
//! frame; an overlay batch builds a run of them from its plan. All three
//! reach the tree through the one function below, so the log does not
//! *describe* the mutation, it *is* the mutation, and a restored tree
//! equals the live one by construction.
//!
//! The mutator checks nothing a caller could have got wrong on purpose:
//! permissions, quotas, name validity and kind compatibility are the live
//! caller's job, done before the record exists. It only declines (returns
//! `false`) when the record's target is not in the tree — which on replay
//! means an unlinked-but-open orphan that died at the crash boundary.
//!
//! `tests/flake_audit.rs` keeps the tree-mutating shard primitives out of
//! every other module.

use super::Filesystem;
use crate::journal::Record;
use crate::shard::{Inode, NodeKind, ShardSet};
use crate::types::{Ino, Mode, Timestamp};

/// `name`'s binding in directory `dir`, if both exist.
fn entry(set: &ShardSet, dir: Ino, name: &str) -> Option<Ino> {
    set.inode(dir).ok()?.dir_entries().ok()?.get(name).copied()
}

fn is_dir(set: &ShardSet, ino: Ino) -> bool {
    set.inode(ino)
        .is_ok_and(|n| matches!(n.kind, NodeKind::Dir { .. }))
}

/// Bind `name` → `child` in `dir` (rebinding replaces) and stamp `dir`.
fn bind(set: &mut ShardSet, dir: Ino, name: &str, child: Ino, tick: Timestamp) {
    if let Ok(d) = set.inode_mut(dir) {
        if let Ok(e) = d.dir_entries_mut() {
            e.insert(name.to_string(), child);
        }
        d.mtime = tick;
    }
}

/// Unbind `name` from `dir` and stamp `dir`; the inode it pointed at.
fn unbind(set: &mut ShardSet, dir: Ino, name: &str, tick: Timestamp) -> Option<Ino> {
    let d = set.inode_mut(dir).ok()?;
    let child = d.dir_entries_mut().ok()?.remove(name)?;
    d.mtime = tick;
    Some(child)
}

/// The orphan rule, the only thing a live tree knows that a replayed one
/// does not: an inode with no links left survives while a descriptor
/// still pins it. Replay never sees a pinned inode (handles die with the
/// process), so there `open_count` is uniformly zero.
fn reap(set: &mut ShardSet, ino: Ino) {
    if set
        .inode(ino)
        .is_ok_and(|n| n.nlink == 0 && n.open_count == 0)
    {
        set.remove_inode(ino);
    }
}

/// One link to the non-directory `ino` is gone.
fn drop_link(set: &mut ShardSet, ino: Ino) {
    if let Ok(n) = set.inode_mut(ino) {
        n.nlink = n.nlink.saturating_sub(1);
    }
    reap(set, ino);
}

/// Remove the directory `ino` and everything under it. Needs every shard
/// the subtree touches locked: a lock-all set unless the directory is
/// empty.
fn remove_subtree(set: &mut ShardSet, ino: Ino) {
    let Some(node) = set.remove_inode(ino) else {
        return;
    };
    if let NodeKind::Dir { entries, .. } = node.kind {
        for child in entries.into_values() {
            if is_dir(set, child) {
                remove_subtree(set, child);
            } else {
                drop_link(set, child);
            }
        }
    }
}

/// Edit the content of the regular file `ino` and stamp its `mtime`.
fn edit_file(set: &mut ShardSet, ino: Ino, tick: Timestamp, f: impl FnOnce(&mut Vec<u8>)) -> bool {
    match set.inode_mut(ino) {
        Ok(Inode {
            kind: NodeKind::File(d),
            mtime,
            ..
        }) => {
            f(d);
            *mtime = tick;
            true
        }
        _ => false,
    }
}

/// Edit the attributes of `ino` and stamp its `ctime`.
fn edit_attrs(set: &mut ShardSet, ino: Ino, tick: Timestamp, f: impl FnOnce(&mut Inode)) -> bool {
    let Ok(node) = set.inode_mut(ino) else {
        return false;
    };
    f(node);
    node.ctime = tick;
    true
}

impl Filesystem {
    /// Give `dir` a new child inode under `name`. Replay installs inodes
    /// under their logged numbers, so the allocator is floored past them
    /// (a no-op live, where the number just came from the allocator).
    fn create(&self, set: &mut ShardSet, dir: Ino, name: &str, ino: Ino, node: Inode) -> bool {
        if !is_dir(set, dir) {
            return false;
        }
        let tick = node.mtime;
        set.insert_inode(ino, node);
        bind(set, dir, name, ino, tick);
        self.tables.ensure_ino_floor(ino.0 + 1);
        true
    }

    /// Apply one record to the tree under `set`, which must hold every
    /// shard the record names (live callers lock exactly those; replay and
    /// batches hold them all). Returns false, leaving the tree untouched,
    /// when the record's target is gone.
    pub(crate) fn apply_record_locked(&self, set: &mut ShardSet, rec: &Record) -> bool {
        match *rec {
            Record::Mkdir {
                parent,
                name,
                ino,
                mode,
                uid,
                gid,
                tick,
            } => {
                let node = Inode::new(NodeKind::dir(parent), mode, uid, gid, tick);
                if !self.create(set, parent, name, ino, node) {
                    return false;
                }
                if let Ok(p) = set.inode_mut(parent) {
                    p.nlink += 1;
                }
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
                let kind = NodeKind::File(data.to_vec());
                let node = Inode::new(kind, Mode::FILE_DEFAULT, uid, gid, tick);
                self.create(set, parent, name, ino, node)
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
                let kind = NodeKind::Symlink(target.to_string());
                let node = Inode::new(kind, Mode::SYMLINK, uid, gid, tick);
                self.create(set, parent, name, ino, node)
            }
            Record::Link {
                parent,
                name,
                ino,
                tick,
            } => {
                let linked = edit_attrs(set, ino, tick, |n| n.nlink += 1);
                if linked {
                    bind(set, parent, name, ino, tick);
                }
                linked
            }
            Record::Unlink { parent, name, tick } => {
                let Some(ino) = unbind(set, parent, name, tick) else {
                    return false;
                };
                edit_attrs(set, ino, tick, |n| n.nlink -= 1);
                reap(set, ino);
                true
            }
            // `Rmdir` is `RmTree` of an empty directory; the log keeps the
            // two apart because the first needs only two shards locked.
            Record::Rmdir { parent, name, tick } | Record::RmTree { parent, name, tick } => {
                let Some(ino) = unbind(set, parent, name, tick) else {
                    return false;
                };
                if let Ok(p) = set.inode_mut(parent) {
                    p.nlink -= 1;
                }
                remove_subtree(set, ino);
                true
            }
            Record::Rename {
                from_parent,
                from_name,
                to_parent,
                to_name,
                tick,
            } => {
                let Some(src) = entry(set, from_parent, from_name) else {
                    return false;
                };
                let src_is_dir = is_dir(set, src);
                // A replaced destination loses this link; a replaced
                // (empty) directory goes outright.
                match entry(set, to_parent, to_name) {
                    Some(dst) if is_dir(set, dst) => {
                        if let Ok(pt) = set.inode_mut(to_parent) {
                            pt.nlink -= 1;
                        }
                        set.remove_inode(dst);
                    }
                    Some(dst) => drop_link(set, dst),
                    None => {}
                }
                unbind(set, from_parent, from_name, tick);
                bind(set, to_parent, to_name, src, tick);
                if src_is_dir && from_parent != to_parent {
                    // Fix `..` and the parents' link counts.
                    if let Ok(pf) = set.inode_mut(from_parent) {
                        pf.nlink -= 1;
                    }
                    if let Ok(pt) = set.inode_mut(to_parent) {
                        pt.nlink += 1;
                    }
                    if let Ok(Inode {
                        kind: NodeKind::Dir { parent, .. },
                        ..
                    }) = set.inode_mut(src)
                    {
                        *parent = to_parent;
                    }
                }
                edit_attrs(set, src, tick, |_| {});
                true
            }
            Record::Write {
                ino,
                offset,
                data,
                tick,
            } => edit_file(set, ino, tick, |d| {
                let end = offset as usize + data.len();
                if d.len() < end {
                    d.resize(end, 0);
                }
                d[offset as usize..end].copy_from_slice(data);
            }),
            Record::SetContent { ino, data, tick } => {
                edit_file(set, ino, tick, |d| *d = data.to_vec())
            }
            Record::Truncate { ino, len, tick } => {
                edit_file(set, ino, tick, |d| d.resize(len as usize, 0))
            }
            Record::SetMode { ino, mode, tick } => edit_attrs(set, ino, tick, |n| n.mode = mode),
            Record::SetOwner {
                ino,
                uid,
                gid,
                tick,
            } => edit_attrs(set, ino, tick, |n| (n.uid, n.gid) = (uid, gid)),
            Record::SetAcl { ino, ref acl, tick } => {
                edit_attrs(set, ino, tick, |n| n.acl = acl.as_deref().cloned())
            }
            Record::SetXattr {
                ino,
                name,
                value,
                tick,
            } => edit_attrs(set, ino, tick, |n| {
                n.xattrs.insert(name.to_string(), value.to_vec());
            }),
            Record::RemoveXattr { ino, name, tick } => edit_attrs(set, ino, tick, |n| {
                n.xattrs.remove(name);
            }),
            Record::Commit(ref subs) => {
                // All-or-nothing is a property of the *frame*: a Commit
                // that made it into the log is applied in full (decode
                // rejects nesting, so recursion is one level deep).
                for s in subs {
                    self.apply_record_locked(set, s);
                }
                true
            }
            Record::Snapshot(_) => false, // installed by the restore driver
        }
    }

    /// The commit point of every live mutation: apply `rec` through the
    /// mutator and append its frame, both under the caller's shard locks —
    /// so the log is a linearization of the tree — and before the caller
    /// retires any dentry (`bump_gen`) or emits any event. The caller has
    /// re-verified under those locks that the record's targets exist.
    /// Proc maintenance and proc-covered paths are applied but not logged,
    /// for the same reason they are not counted: introspection must not
    /// disturb (or bloat) what it measures, and the proc subtree is
    /// derived state re-created on mount.
    pub(super) fn commit(&self, set: &mut ShardSet, path: &str, rec: &Record) {
        let applied = self.apply_record_locked(set, rec);
        debug_assert!(applied, "live record missed its target: {rec:?}");
        self.jrnl(path, rec);
    }

    /// A descriptor on `ino` closed: unpin it, and drop it if that was the
    /// last reference to an unlinked file (the other half of the orphan
    /// rule). Returns whether the inode was dropped. Not a record: an
    /// orphan's content is lost at the crash boundary by design.
    pub(super) fn unpin(set: &mut ShardSet, ino: Ino) -> bool {
        // The inode may already be gone: rmdir removes an open directory's
        // inode outright (directories have no orphan keep-alive).
        let Ok(node) = set.inode_mut(ino) else {
            return false;
        };
        node.open_count -= 1;
        reap(set, ino);
        set.inode(ino).is_err()
    }
}
