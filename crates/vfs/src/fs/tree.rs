//! Namespace operations: everything that adds, removes or moves a
//! directory entry (`mkdir`/`rmdir`/`symlink`/`link`/`unlink`/`rename`),
//! the directory listing, and the one object-creation body. Each op
//! resolves, locks, re-verifies and authorizes, then commits a
//! [`Record`] through the one mutator (see `mutate`).

use super::walk::{DirAnchor, Resolved};
use super::{Filesystem, PendingEvent, PendingHook, LINK_MAX};
use crate::counter::OpKind;
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::journal::Record;
use crate::notify::EventKind;
use crate::path::{valid_name, VPath, PATH_MAX};
use crate::shard::{Inode, LockKey, NodeKind, ShardSet};
use crate::types::{Access, Credentials, DirEntry, Fd, FileType, Ino, Mode, ROOT_INO};

/// What [`Filesystem::create_in`] is to create, borrowing its payload from
/// the caller the way the creation record will.
pub(super) enum NewNode<'a> {
    Dir(Mode),
    File(&'a [u8]),
    Symlink(&'a str),
}

impl Filesystem {
    // ----------------------------------------------------------------
    // Shared helpers: entry insert and object creation
    // ----------------------------------------------------------------

    /// `EDQUOT` when the directory `dir` is at
    /// [`super::Limits::max_dir_entries`] — the one place the cap is
    /// compared. Every op that binds a *new* name checks it before building
    /// its record; rebinding an existing name (rename-replace) and moving
    /// within one directory do not grow the directory.
    fn dir_has_room(&self, set: &ShardSet, dir: Ino, dir_path: &VPath) -> VfsResult<()> {
        if set.inode(dir)?.dir_entries()?.len() >= self.limits.max_dir_entries {
            return err(Errno::EDQUOT, dir_path.as_str());
        }
        Ok(())
    }

    /// The one object-creation body behind `mkdir`/`mkdirat`,
    /// `open(O_CREAT)`, `write_batch_at` and `symlink`: fill the free slot
    /// `r` resolved with the object `new` describes. Allocates the inode
    /// number and write-locks its shard together with the parent's (and
    /// `also`, for an open that installs a handle under the same locks),
    /// then re-verifies the slot is still free — `Ok(None)` when a
    /// concurrent create took it, and the caller retries from resolution —
    /// checks Write on the parent (`EACCES`) and the entry cap (`EDQUOT`),
    /// commits the creation record, and retires the parent's dentries, all
    /// under the locks. Returns the still-held locks, the new inode and
    /// its path.
    pub(super) fn create_in(
        &self,
        r: &Resolved,
        new: NewNode,
        creds: &Credentials,
        also: Option<LockKey>,
    ) -> VfsResult<Option<(ShardSet<'_>, Ino, VPath)>> {
        let (parent, ino) = (r.parent_ino, self.tables.alloc_ino());
        let key = LockKey::Ino(ino);
        let mut set = self
            .tables
            .lock(&[LockKey::Ino(parent), key, also.unwrap_or(key)]);
        if !set.entry_is(parent, &r.name, None) {
            return Ok(None);
        }
        if !Self::may_access_set(&set, parent, creds, Access::Write) {
            return err(Errno::EACCES, r.parent_path.as_str());
        }
        let tick = self.clock.tick();
        self.dir_has_room(&set, parent, &r.parent_path)?;
        let full = r.parent_path.join(&r.name);
        let (name, uid, gid) = (r.name.as_str(), creds.uid, creds.gid);
        let rec = match new {
            NewNode::Dir(mode) => Record::Mkdir {
                parent,
                name,
                ino,
                mode,
                uid,
                gid,
                tick,
            },
            NewNode::File(data) => Record::Create {
                parent,
                name,
                ino,
                uid,
                gid,
                data,
                tick,
            },
            NewNode::Symlink(target) => Record::Symlink {
                parent,
                name,
                ino,
                target,
                uid,
                gid,
                tick,
            },
        };
        self.commit(&mut set, full.as_str(), &rec);
        self.bump_gen(parent);
        Ok(Some((set, ino, full)))
    }

    // ----------------------------------------------------------------
    // Directory operations
    // ----------------------------------------------------------------

    /// `mkdir(2)`.
    pub fn mkdir(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Mkdir, path, creds.uid)?;
        self.mkdir_common(None, path, VPath::new(path), mode, creds)
    }

    /// `mkdirat(2)`: create `rel` (relative; `EINVAL` if absolute) under
    /// the directory descriptor `dir`, paying resolution only for the
    /// relative components. Counted as one `mkdir` syscall.
    pub fn mkdirat(&self, dir: Fd, rel: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let at = self.dir_anchor(dir, rel)?;
        let vp = at.path.join_path(rel);
        self.charge_uid(OpKind::Mkdir, vp.as_str(), creds.uid)?;
        self.mkdir_common(Some(&at), rel, vp, mode, creds)
    }

    /// The one body of [`Self::mkdir`]/[`Self::mkdirat`]; the caller has
    /// charged the syscall. `at` set: `path` is relative and resolution
    /// starts at that anchor; `vp` is the full path either way.
    fn mkdir_common(
        &self,
        at: Option<&DirAnchor>,
        path: &str,
        vp: VPath,
        mode: Mode,
        creds: &Credentials,
    ) -> VfsResult<()> {
        if at.is_some() && path.starts_with('/') {
            return err(Errno::EINVAL, path);
        }
        self.validate_mutation(&vp)?;
        let full = loop {
            let r = match at {
                None => self.resolve_live(&vp, creds, false)?,
                Some(a) => self.resolve_at(a, path, creds, false)?,
            };
            if r.name.is_empty() {
                return err(Errno::EEXIST, vp.as_str());
            }
            if !valid_name(&r.name) {
                return err(Errno::EINVAL, vp.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp.as_str());
            }
            let new = NewNode::Dir(Mode(mode.0 & 0o7777));
            if let Some((_, _, full)) = self.create_in(&r, new, creds, None)? {
                break full;
            }
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        self.run_hooks(vec![PendingHook::Mkdir(full)], creds);
        Ok(())
    }

    /// `mkdir -p`: create every missing ancestor; existing directories are
    /// fine, an existing non-directory is `ENOTDIR`/`EEXIST`.
    pub fn mkdir_all(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let vp = VPath::new(path);
        let mut cur = VPath::root();
        for comp in vp.components() {
            cur = cur.join(comp);
            match self.mkdir(cur.as_str(), mode, creds) {
                Ok(()) => {}
                Err(e) if e.errno == Errno::EEXIST => {
                    let st = self.stat(cur.as_str(), creds)?;
                    if !st.is_dir() {
                        return err(Errno::ENOTDIR, cur.as_str());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// `rmdir(2)`. If a registered hook declares `path` recursively
    /// removable (paper: switch directories), the whole subtree is removed.
    pub fn rmdir(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Rmdir, path, creds.uid)?;
        let vp = VPath::new(path);
        self.validate_mutation(&vp)?;
        let recursive = self.active_hooks().iter().any(|h| h.rmdir_recursive(&vp));
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let r = self.resolve_live(&vp, creds, false)?;
            if r.name.is_empty() {
                return err(Errno::EINVAL, vp.as_str()); // refusing to rmdir /
            }
            let ino = r
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vp.as_str()))?;
            // A recursive removal can touch inodes in any shard; take them
            // all. The common (non-recursive) case stays two shards wide.
            let mut set = if recursive {
                self.tables.lock_all()
            } else {
                self.tables
                    .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)])
            };
            if !set.entry_is(r.parent_ino, &r.name, Some(ino)) {
                continue;
            }
            if set.inode(ino)?.file_type() != FileType::Directory {
                return err(Errno::ENOTDIR, vp.as_str());
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, r.parent_ino, ino, creds) {
                return err(Errno::EPERM, vp.as_str());
            }
            let empty = set.inode(ino)?.dir_entries()?.is_empty();
            if !empty && !recursive {
                return err(Errno::ENOTEMPTY, vp.as_str());
            }
            let full = r.parent_path.join(&r.name);
            // The record destroys the subtree it names, so what watchers
            // and the dentry cache must hear about it is gathered first.
            let mut dirs = Vec::new();
            Self::removal_events(&set, ino, &full, &mut events, &mut dirs)?;
            let (parent, name, tick) = (r.parent_ino, r.name.as_str(), self.clock.tick());
            let rec = if empty {
                Record::Rmdir { parent, name, tick }
            } else {
                Record::RmTree { parent, name, tick }
            };
            self.commit(&mut set, full.as_str(), &rec);
            // Retire the removed directories' (negative) dentries as well
            // as the entry under the parent.
            self.bump_gen(parent);
            dirs.into_iter().for_each(|d| self.bump_gen(d));
            break events;
        };
        self.notify.emit_batch(&events);
        Ok(())
    }

    /// Everything removing the directory `ino` at `path` tells watchers,
    /// in order: a `Delete` per object under it, then `DeleteSelf` and
    /// `Delete` of the directory itself; `dirs` collects every directory
    /// whose dentries die. The one event body of a live `rmdir` and a
    /// batch `Remove`. Read-only; a non-empty `ino` requires a lock-all
    /// [`ShardSet`].
    pub(crate) fn removal_events(
        set: &ShardSet,
        ino: Ino,
        path: &VPath,
        events: &mut Vec<PendingEvent>,
        dirs: &mut Vec<Ino>,
    ) -> VfsResult<()> {
        Self::doomed(set, ino, path, events, dirs)?;
        events.push((EventKind::DeleteSelf, path.clone(), None));
        let name = path.file_name().map(str::to_string);
        events.push((EventKind::Delete, path.clone(), name));
        Ok(())
    }

    /// What removing the directory `ino` (at `path`) will take with it:
    /// one `Delete` event per object under it, children before their
    /// directory, and every directory whose dentries die, `ino` included.
    /// Read-only; a non-empty `ino` requires a lock-all [`ShardSet`].
    fn doomed(
        set: &ShardSet,
        ino: Ino,
        path: &VPath,
        events: &mut Vec<PendingEvent>,
        dirs: &mut Vec<Ino>,
    ) -> VfsResult<()> {
        dirs.push(ino);
        for (name, child) in set.inode(ino)?.dir_entries()? {
            let cpath = path.join(name);
            if matches!(set.inode(*child)?.kind, NodeKind::Dir { .. }) {
                Self::doomed(set, *child, &cpath, events, dirs)?;
            }
            events.push((EventKind::Delete, cpath, Some(name.clone())));
        }
        Ok(())
    }

    /// `readdir(3)`: list a directory (requires Read access).
    pub fn readdir(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<DirEntry>> {
        self.pre_access(path);
        self.charge_uid(OpKind::Readdir, path, creds.uid)?;
        let snapshot = self.read_inode(&VPath::new(path), creds, |node| {
            dir_snapshot(node).map_err(|_| VfsError::new(Errno::ENOTDIR, path))
        })?;
        Ok(self.list_entries(snapshot))
    }

    /// The one listing body behind [`Self::readdir`] and
    /// [`Self::readdir_fd`]: turn an entries snapshot (copied under one
    /// shard lock by the caller) into [`DirEntry`]s. File types are a
    /// snapshot per entry; an entry whose inode vanished mid-listing
    /// reports as a regular file, matching the unlocked readdir/stat gap
    /// real applications live with.
    pub(super) fn list_entries(&self, snapshot: Vec<(String, Ino)>) -> Vec<DirEntry> {
        snapshot
            .into_iter()
            .map(|(name, ino)| {
                // An inode's kind is immutable for the lifetime of its
                // number, so any completed attribute fill answers it even
                // when the block's stamp is stale — a warm listing costs
                // one lock for the entries snapshot and zero per entry.
                // A miss pays the locked read and fills the block.
                let file_type = self.readpath.kind_of(ino).unwrap_or_else(|| {
                    self.stat_locked_and_fill(ino)
                        .map_or(FileType::Regular, |st| st.file_type)
                });
                DirEntry {
                    name,
                    ino,
                    file_type,
                }
            })
            .collect()
    }

    // ----------------------------------------------------------------
    // Symlinks & hard links
    // ----------------------------------------------------------------

    /// `symlink(2)`: create `linkpath` pointing at `target` (not required to
    /// exist). Registered hooks may veto schema-invalid links.
    pub fn symlink(&self, target: &str, linkpath: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Symlink, linkpath, creds.uid)?;
        let vp = VPath::new(linkpath);
        self.validate_mutation(&vp)?;
        self.validate_with_hooks(|h| h.validate_symlink(self, &vp, target))?;
        let full = loop {
            let r = self.resolve_live(&vp, creds, false)?;
            if r.name.is_empty() || !valid_name(&r.name) {
                return err(Errno::EINVAL, vp.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp.as_str());
            }
            if let Some((_, _, full)) = self.create_in(&r, NewNode::Symlink(target), creds, None)? {
                break full;
            }
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        Ok(())
    }

    /// `readlink(2)`.
    pub fn readlink(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        self.charge_uid(OpKind::Readlink, path, creds.uid)?;
        let vp = VPath::new(path);
        loop {
            let ino = self.lookup_live(&vp, creds, false)?;
            match self.tables.with_inode(ino, |node| match &node.kind {
                NodeKind::Symlink(t) => Ok(t.clone()),
                _ => Err(VfsError::new(Errno::EINVAL, path)),
            }) {
                Ok(r) => return r,
                Err(_) => continue,
            }
        }
    }

    /// `link(2)`: hard link (regular files only, as on Linux).
    pub fn link(&self, existing: &str, newpath: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Link, newpath, creds.uid)?;
        let vp_old = VPath::new(existing);
        let vp_new = VPath::new(newpath);
        self.validate_mutation(&vp_new)?;
        // Linkable: a regular file below the hard-link ceiling.
        let linkable = |n: &Inode| {
            if !matches!(n.kind, NodeKind::File(_)) {
                return err(Errno::EPERM, existing);
            }
            if n.nlink >= LINK_MAX {
                return err(Errno::EMLINK, existing);
            }
            Ok(())
        };
        let full = loop {
            let src = self.lookup_live(&vp_old, creds, true)?;
            // Source-kind checks precede resolution of the new path (error
            // priority: linking a directory reports EPERM even when the new
            // path is bad).
            match self.tables.with_inode(src, linkable) {
                Ok(r) => r?,
                Err(_) => continue,
            }
            let r = self.resolve_live(&vp_new, creds, false)?;
            if r.name.is_empty() || !valid_name(&r.name) {
                return err(Errno::EINVAL, vp_new.as_str());
            }
            if r.target.is_some() {
                return err(Errno::EEXIST, vp_new.as_str());
            }
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(src), LockKey::Ino(r.parent_ino)]);
            if !set.entry_is(r.parent_ino, &r.name, None) {
                continue;
            }
            match set.inode(src) {
                Ok(node) => linkable(node)?,
                Err(_) => continue, // source vanished: retry (may now be ENOENT)
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            let tick = self.clock.tick();
            self.dir_has_room(&set, r.parent_ino, &r.parent_path)?;
            let full = r.parent_path.join(&r.name);
            let rec = Record::Link {
                parent: r.parent_ino,
                name: &r.name,
                ino: src,
                tick,
            };
            self.commit(&mut set, full.as_str(), &rec);
            self.bump_gen(r.parent_ino);
            break full;
        };
        self.notify.emit(EventKind::Create, &full, full.file_name());
        Ok(())
    }

    // ----------------------------------------------------------------
    // Unlink / rename
    // ----------------------------------------------------------------

    /// `unlink(2)`.
    pub fn unlink(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Unlink, path, creds.uid)?;
        self.unlink_common(None, path, VPath::new(path), creds)
    }

    /// `unlinkat(2)`: remove `rel` (relative; `EINVAL` if absolute) under
    /// the directory descriptor `dir` — the [`Self::mkdirat`] twin. Counted
    /// as one `unlink` syscall.
    pub fn unlinkat(&self, dir: Fd, rel: &str, creds: &Credentials) -> VfsResult<()> {
        let at = self.dir_anchor(dir, rel)?;
        let vp = at.path.join_path(rel);
        self.charge_uid(OpKind::Unlink, vp.as_str(), creds.uid)?;
        self.unlink_common(Some(&at), rel, vp, creds)
    }

    /// The one body of [`Self::unlink`]/[`Self::unlinkat`]; the caller has
    /// charged the syscall. `at`/`path`/`vp` as in [`Self::mkdir_common`].
    fn unlink_common(
        &self,
        at: Option<&DirAnchor>,
        path: &str,
        vp: VPath,
        creds: &Credentials,
    ) -> VfsResult<()> {
        self.validate_mutation(&vp)?;
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let r = match at {
                None => self.resolve_live(&vp, creds, false)?,
                Some(a) => self.resolve_at(a, path, creds, false)?,
            };
            if r.name.is_empty() {
                // `/` has no parent entry, so the `entry_is` re-check below
                // could never hold and the loop would spin.
                return err(Errno::EISDIR, vp.as_str());
            }
            let ino = r
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vp.as_str()))?;
            let mut set = self
                .tables
                .lock(&[LockKey::Ino(r.parent_ino), LockKey::Ino(ino)]);
            if !set.entry_is(r.parent_ino, &r.name, Some(ino)) {
                continue;
            }
            if matches!(set.inode(ino)?.kind, NodeKind::Dir { .. }) {
                return err(Errno::EISDIR, vp.as_str());
            }
            if !Self::may_access_set(&set, r.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, r.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, r.parent_ino, ino, creds) {
                return err(Errno::EPERM, vp.as_str());
            }
            let full = r.parent_path.join(&r.name);
            let rec = Record::Unlink {
                parent: r.parent_ino,
                name: &r.name,
                tick: self.clock.tick(),
            };
            self.commit(&mut set, full.as_str(), &rec);
            // Gone unless another link or an open descriptor still holds it.
            if set.inode(ino).is_err() {
                events.push((EventKind::DeleteSelf, full.clone(), None));
            }
            self.bump_gen(r.parent_ino);
            events.push((EventKind::Delete, full, Some(r.name)));
            break events;
        };
        self.notify.emit_batch(&events);
        Ok(())
    }

    /// `rename(2)`, with POSIX replace semantics: an existing target is
    /// atomically replaced when types are compatible (file→file,
    /// dir→empty dir); a directory cannot be moved into its own subtree.
    pub fn rename(&self, from: &str, to: &str, creds: &Credentials) -> VfsResult<()> {
        self.charge_uid(OpKind::Rename, from, creds.uid)?;
        let vf = VPath::new(from);
        let vt = VPath::new(to);
        self.validate_mutation(&vf)?;
        self.validate_mutation(&vt)?;
        let events = loop {
            let mut events: Vec<PendingEvent> = Vec::new();
            let rf = self.resolve_live(&vf, creds, false)?;
            let src = rf
                .target
                .ok_or_else(|| VfsError::new(Errno::ENOENT, vf.as_str()))?;
            if rf.name.is_empty() {
                return err(Errno::EINVAL, vf.as_str());
            }
            let rt = self.resolve_live(&vt, creds, false)?;
            if rt.name.is_empty() || !valid_name(&rt.name) {
                return err(Errno::EINVAL, vt.as_str());
            }
            let src_is_dir = match self
                .tables
                .with_inode(src, |n| matches!(n.kind, NodeKind::Dir { .. }))
            {
                Ok(b) => b,
                Err(_) => continue, // source vanished; retry resolves ENOENT
            };
            // Directory renames serialize on a dedicated mutex (the
            // in-process `s_vfs_rename_mutex`): the path-prefix cycle check
            // below is computed from two independent resolutions, and two
            // concurrent cross-directory renames could each pass it while
            // jointly detaching a cycle. Under the mutex, an inode-based
            // ancestry walk is race-free: no other directory can be
            // reparented while we hold it.
            let _rename_guard = if src_is_dir {
                Some(self.rename_lock.lock())
            } else {
                None
            };
            let mut cycle = false;
            if src_is_dir {
                let mut anc = rt.parent_ino;
                let mut hops = 0usize;
                loop {
                    if anc == src {
                        cycle = true;
                        break;
                    }
                    if anc == ROOT_INO || hops > PATH_MAX {
                        break;
                    }
                    anc = match self.tables.with_inode(anc, |n| match &n.kind {
                        NodeKind::Dir { parent, .. } => Some(*parent),
                        _ => None,
                    }) {
                        Ok(Some(p)) => p,
                        _ => break, // vanished: the entry verify below retries
                    };
                    hops += 1;
                }
            }
            let mut keys = vec![
                LockKey::Ino(rf.parent_ino),
                LockKey::Ino(rt.parent_ino),
                LockKey::Ino(src),
            ];
            if let Some(dst) = rt.target {
                keys.push(LockKey::Ino(dst));
            }
            let mut set = self.tables.lock(&keys);
            if !set.entry_is(rf.parent_ino, &rf.name, Some(src))
                || !set.entry_is(rt.parent_ino, &rt.name, rt.target)
            {
                continue;
            }
            if !Self::may_access_set(&set, rf.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, rf.parent_path.as_str());
            }
            if !Self::may_access_set(&set, rt.parent_ino, creds, Access::Write) {
                return err(Errno::EACCES, rt.parent_path.as_str());
            }
            if !Self::sticky_ok_set(&set, rf.parent_ino, src, creds) {
                return err(Errno::EPERM, vf.as_str());
            }
            let src_full = rf.parent_path.join(&rf.name);
            let dst_full = rt.parent_path.join(&rt.name);
            if src_full == dst_full {
                return Ok(()); // no-op rename to self
            }
            if src_is_dir && (dst_full.starts_with(&src_full) || cycle) {
                return err(Errno::EINVAL, vt.as_str());
            }

            // Only a cross-directory move to a fresh name grows the
            // destination directory.
            if rt.target.is_none() && rf.parent_ino != rt.parent_ino {
                self.dir_has_room(&set, rt.parent_ino, &rt.parent_path)?;
            }

            // An existing destination is replaced when the kinds agree.
            if let Some(dst) = rt.target {
                if dst == src {
                    return Ok(()); // hard links to the same inode: no-op
                }
                let dst_is_dir = matches!(set.inode(dst)?.kind, NodeKind::Dir { .. });
                match (src_is_dir, dst_is_dir) {
                    (true, false) => return err(Errno::ENOTDIR, vt.as_str()),
                    (false, true) => return err(Errno::EISDIR, vt.as_str()),
                    (true, true) if !set.inode(dst)?.dir_entries()?.is_empty() => {
                        return err(Errno::ENOTEMPTY, vt.as_str());
                    }
                    _ => {}
                }
                events.push((EventKind::Delete, dst_full.clone(), Some(rt.name.clone())));
            }

            let rec = Record::Rename {
                from_parent: rf.parent_ino,
                from_name: &rf.name,
                to_parent: rt.parent_ino,
                to_name: &rt.name,
                tick: self.clock.tick(),
            };
            self.commit(&mut set, src_full.as_str(), &rec);
            // Both parents changed their entry sets; a replaced directory
            // additionally loses its own (negative) dentries. Entries keyed
            // under the *moved* inode stay warm on purpose — its
            // `(ino, component)` mappings are unaffected by the move.
            self.bump_gen(rf.parent_ino);
            self.bump_gen(rt.parent_ino);
            if let Some(dst) = rt.target {
                self.bump_gen(dst);
            }
            events.push((EventKind::MovedFrom, src_full, Some(rf.name)));
            events.push((EventKind::MovedTo, dst_full, Some(rt.name)));
            break events;
        };
        self.notify.emit_batch(&events);
        Ok(())
    }
}

/// A directory's `(name, inode)` pairs, copied out under the caller's shard
/// lock (`ENOTDIR` for any other kind).
pub(super) fn dir_snapshot(node: &Inode) -> VfsResult<Vec<(String, Ino)>> {
    Ok(node
        .dir_entries()?
        .iter()
        .map(|(n, i)| (n.clone(), *i))
        .collect())
}
