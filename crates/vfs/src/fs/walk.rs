//! Path resolution: the hop-by-hop walk behind every path-addressed and
//! descriptor-relative operation, the dcache fill it performs on the way,
//! and the permission helpers mutators re-check under their shard locks.

use std::collections::{BTreeMap, VecDeque};

use super::{Filesystem, MAX_SYMLINK_HOPS};
use crate::acl::check_access;
use crate::dcache::{CachedKind, Dentry, ParentPerm};
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::path::{VPath, NAME_MAX, PATH_MAX};
use crate::proc::ProcDepth;
use crate::shard::{Inode, NodeKind, ShardSet};
use crate::types::{Access, Credentials, Fd, Ino, ROOT_INO};

/// Resolution of a path into its (canonical) parent directory and final
/// component.
pub(super) struct Resolved {
    pub parent_ino: Ino,
    pub parent_path: VPath,
    pub name: String,
    /// Inode of the final component, if it exists (symlinks NOT followed;
    /// callers follow explicitly when they need to).
    pub target: Option<Ino>,
}

impl Resolved {
    /// The canonical path of the final component (the parent itself when
    /// the walk ended on a directory with no name left).
    pub fn full(&self) -> VPath {
        if self.name.is_empty() {
            self.parent_path.clone()
        } else {
            self.parent_path.join(&self.name)
        }
    }
}

/// Where a descriptor-relative walk starts: an open directory descriptor's
/// inode and open-time path, looked up once per syscall.
pub(super) struct DirAnchor {
    pub ino: Ino,
    pub path: VPath,
}

/// Whether `creds` may `access` the object `node` (mode bits + ACL).
pub(super) fn permits(node: &Inode, creds: &Credentials, access: Access) -> bool {
    check_access(
        creds,
        node.uid,
        node.gid,
        node.mode,
        node.acl.as_ref(),
        access,
    )
}

impl Filesystem {
    /// Permission check against a locked shard set.
    pub(super) fn may_access_set(
        set: &ShardSet,
        ino: Ino,
        creds: &Credentials,
        access: Access,
    ) -> bool {
        set.inode(ino)
            .map(|n| permits(n, creds, access))
            .unwrap_or(false)
    }

    /// Sticky-directory deletion check: in a sticky dir, only the entry's
    /// owner, the dir's owner, or root may remove/rename an entry.
    pub(super) fn sticky_ok_set(
        set: &ShardSet,
        dir: Ino,
        entry_ino: Ino,
        creds: &Credentials,
    ) -> bool {
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
    pub(super) fn resolve_live(
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

    /// One hop's worth of locked reading: under `dir`'s shard read lock,
    /// require a directory the caller may traverse (`ENOTDIR`/`EACCES`) and
    /// let `f` copy out what the hop needs from its entries and `..`
    /// pointer. A directory we were standing in vanishing mid-walk
    /// (impossible with shards=1; a concurrent rmdir otherwise) linearizes
    /// after the removal: `ENOENT`.
    fn with_dir<R>(
        &self,
        dir: Ino,
        dir_path: &VPath,
        creds: &Credentials,
        f: impl FnOnce(&Inode, &BTreeMap<String, Ino>, Ino) -> R,
    ) -> VfsResult<R> {
        self.tables
            .with_inode(dir, |node| match &node.kind {
                NodeKind::Dir { entries, parent } => {
                    if !permits(node, creds, Access::Exec) {
                        return err(Errno::EACCES, dir_path.as_str());
                    }
                    Ok(f(node, entries, *parent))
                }
                _ => err(Errno::ENOTDIR, dir_path.as_str()),
            })
            .unwrap_or_else(|_| err(Errno::ENOENT, dir_path.as_str()))
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
        // The dcache never serves proc-covered paths (nor internal proc
        // maintenance): introspection must not disturb what it measures,
        // and the rendered tree is rewritten too often to be worth caching.
        let use_cache = self.dcache.enabled() && !ProcDepth::active() && !self.proc.covers(orig);

        let mut cur_ino = start_ino;
        let mut cur_path = start_path;
        let mut links = 0u32;
        let found = |parent_ino: Ino, parent_path: &VPath, name: String, target: Option<Ino>| {
            Ok(Resolved {
                parent_ino,
                parent_path: parent_path.clone(),
                name,
                target,
            })
        };

        loop {
            let comp = match work.pop_front() {
                Some(c) => c,
                // Nothing (left) to walk — an empty operand, or symlink
                // expansion ending in a dir: the directory itself.
                None => return found(cur_ino, &cur_path, String::new(), Some(cur_ino)),
            };
            if comp.len() > NAME_MAX {
                return err(Errno::ENAMETOOLONG, orig);
            }

            if comp == ".." {
                // `..` always resolves live: parent pointers are rewritten
                // by rename and are not worth caching.
                cur_ino = self.with_dir(cur_ino, &cur_path, creds, |_, _, parent| parent)?;
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
                    let fill_gen = use_cache.then(|| self.dcache.gen(cur_ino));
                    let (child_ino, perm) =
                        self.with_dir(cur_ino, &cur_path, creds, |node, entries, _| {
                            (
                                entries.get(&key.1).copied(),
                                ParentPerm {
                                    uid: node.uid,
                                    gid: node.gid,
                                    mode: node.mode,
                                    acl: node.acl.clone(),
                                },
                            )
                        })?;
                    let fill = |child: Option<(Ino, CachedKind)>| {
                        if let Some(gen) = fill_gen {
                            let dentry = Dentry { child, gen, perm };
                            self.dcache.insert(cur_ino, (key.0, key.1.clone()), dentry);
                        }
                    };
                    match child_ino {
                        None => {
                            // Negative entry: cache the ENOENT so repeat
                            // probes of absent paths are one hash hit.
                            fill(None);
                            None
                        }
                        Some(ci) => {
                            if fill_gen.is_none() && work.is_empty() && !follow_last {
                                // Nothing needs the child's kind: return the
                                // snapshot without an extra probe, exactly
                                // as the pre-cache walk did.
                                return found(cur_ino, &cur_path, key.1, Some(ci));
                            }
                            match self.tables.with_inode(ci, |n| match &n.kind {
                                NodeKind::Dir { .. } => CachedKind::Dir,
                                NodeKind::Symlink(t) => CachedKind::Symlink(t.clone()),
                                NodeKind::File(_) => CachedKind::File,
                            }) {
                                Ok(kind) => {
                                    // An inode's kind is immutable for the
                                    // lifetime of its number, so caching it
                                    // is safe while the entry validates.
                                    fill(Some((ci, kind.clone())));
                                    Some((ci, kind))
                                }
                                // Child vanished between the two reads;
                                // never cached. A final component returns
                                // the snapshot: mutating callers re-verify
                                // under their shard write-locks.
                                Err(_) if work.is_empty() => {
                                    return found(cur_ino, &cur_path, key.1, Some(ci));
                                }
                                Err(_) => {
                                    return err(Errno::ENOENT, cur_path.join(&key.1).as_str());
                                }
                            }
                        }
                    }
                }
            };

            match child {
                // Follow a symlink always mid-path, at the end only when
                // asked.
                Some((_, CachedKind::Symlink(target))) if follow_last || !work.is_empty() => {
                    links += 1;
                    if links > MAX_SYMLINK_HOPS {
                        return err(Errno::ELOOP, orig);
                    }
                    Self::expand_symlink(&mut work, &mut cur_ino, &mut cur_path, &target);
                }
                _ if work.is_empty() => {
                    return found(cur_ino, &cur_path, key.1, child.map(|(i, _)| i));
                }
                // Intermediate component must exist and be traversable.
                None => return err(Errno::ENOENT, cur_path.join(&key.1).as_str()),
                Some((ci, CachedKind::Dir)) => {
                    cur_path = cur_path.join(&key.1);
                    cur_ino = ci;
                }
                Some(_) => return err(Errno::ENOTDIR, cur_path.join(&key.1).as_str()),
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
    pub(super) fn lookup_live(
        &self,
        path: &VPath,
        creds: &Credentials,
        follow: bool,
    ) -> VfsResult<Ino> {
        let r = self.resolve_live(path, creds, follow)?;
        r.target
            .ok_or_else(|| VfsError::new(Errno::ENOENT, path.as_str()))
    }

    /// The walk anchor of a descriptor-relative syscall: `dir`'s inode and
    /// open-time path, read once (`EBADF` for a closed descriptor; `what`
    /// names the operand in the error). Paths built from it keep the
    /// descriptor's open-time name; like inotify, events for
    /// descriptor-relative mutations therefore fire under the name the
    /// directory had when it was opened.
    pub(super) fn dir_anchor(&self, dir: Fd, what: &str) -> VfsResult<DirAnchor> {
        self.tables
            .with_handle(dir.0, |h| DirAnchor {
                ino: h.ino,
                path: h.path.clone(),
            })
            .ok_or_else(|| VfsError::new(Errno::EBADF, what))
    }

    /// Resolve `rel` (relative; `EINVAL` if absolute) against an open
    /// directory descriptor's anchor. Only the relative components pay
    /// resolution hops. `ENOENT` if the directory was removed, `ENOTDIR` if
    /// the descriptor is not a directory.
    pub(super) fn resolve_at(
        &self,
        at: &DirAnchor,
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
        let is_dir = self
            .tables
            .with_inode(at.ino, |n| matches!(n.kind, NodeKind::Dir { .. }))
            .map_err(|_| VfsError::new(Errno::ENOENT, at.path.as_str()))?;
        if !is_dir {
            return err(Errno::ENOTDIR, at.path.as_str());
        }
        let work: VecDeque<String> = VPath::new(&format!("/{rel}"))
            .components()
            .map(str::to_string)
            .collect();
        self.resolve_from(at.ino, at.path.clone(), work, creds, follow_last, rel)
    }
}
