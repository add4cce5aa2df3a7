//! The open-file table and data I/O: `open` and its `*at` forms, the
//! `read`/`write` families, `close`/`fsync`/`fstat`, descriptor listing,
//! the vectored `write_batch_at`/`read_batch_at` pair, and the whole-file
//! conveniences.
//!
//! Every descriptor syscall enters through [`Filesystem::fd_enter`] (one
//! lock-free identity read, one charge) and every positional/sequential
//! pair shares one body ([`Filesystem::read_at`], [`Filesystem::write_at`]).

use super::tree::{dir_snapshot, NewNode};
use super::walk::DirAnchor;
use super::{Filesystem, PendingEvent, PendingHook};
use crate::counter::OpKind;
use crate::error::{err, Errno, VfsError, VfsResult};
use crate::journal::Record;
use crate::notify::EventKind;
use crate::path::{valid_name, VPath};
use crate::readpath::{HandleMeta, HandleRead};
use crate::shard::{Inode, LockKey, NodeKind, OpenFile, ShardSet, Tables};
use crate::types::{Access, Credentials, DirEntry, Fd, FileStat, OpenFlags};

/// RAII reservation of one slot in the global open-handle table. Keeps the
/// `ENFILE` bound exact without a cross-shard pass: the slot is taken up
/// front and released on every error path, or committed when the handle is
/// actually inserted.
struct HandleSlot<'a> {
    tables: &'a Tables,
    committed: bool,
}

impl<'a> HandleSlot<'a> {
    fn reserve(tables: &'a Tables, cap: usize, path: &str) -> VfsResult<Self> {
        if !tables.try_reserve_handle(cap) {
            return err(Errno::ENFILE, path);
        }
        Ok(HandleSlot {
            tables,
            committed: false,
        })
    }

    fn commit(&mut self) {
        self.committed = true;
    }
}

impl Drop for HandleSlot<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.tables.release_handle_slot();
        }
    }
}

/// Whether an open may (or must) land on a directory.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DirMode {
    /// Regular `open`: a directory target is `EISDIR`.
    Forbid,
    /// `O_DIRECTORY` open: a non-directory target is `ENOTDIR`.
    Require,
}

impl Filesystem {
    // ----------------------------------------------------------------
    // Opening
    // ----------------------------------------------------------------

    /// `open(2)`.
    pub fn open(&self, path: &str, flags: OpenFlags, creds: &Credentials) -> VfsResult<Fd> {
        self.pre_access(path);
        self.charge_uid(OpKind::Open, path, creds.uid)?;
        self.open_common(None, path, VPath::new(path), flags, creds, DirMode::Forbid)
    }

    /// Open a *directory* descriptor (`O_DIRECTORY`): the anchor for the
    /// descriptor-relative calls ([`Self::openat`], [`Self::mkdirat`],
    /// [`Self::readdir_fd`], [`Self::write_batch_at`]). Requires read
    /// permission on the directory; `ENOTDIR` if `path` is not one. The
    /// descriptor tracks the *inode*: renaming the directory does not
    /// invalidate it.
    pub fn open_dir(&self, path: &str, creds: &Credentials) -> VfsResult<Fd> {
        self.pre_access(path);
        self.charge_uid(OpKind::Open, path, creds.uid)?;
        let flags = OpenFlags::read_only();
        self.open_common(None, path, VPath::new(path), flags, creds, DirMode::Require)
    }

    /// `openat(2)`: open `rel` (a relative path; `EINVAL` if absolute)
    /// resolved from the directory descriptor `dir`. Only the relative
    /// components pay resolution hops — the prefix was resolved once at
    /// [`Self::open_dir`]. Flags behave exactly as in [`Self::open`].
    pub fn openat(
        &self,
        dir: Fd,
        rel: &str,
        flags: OpenFlags,
        creds: &Credentials,
    ) -> VfsResult<Fd> {
        self.openat_common(dir, rel, flags, creds, DirMode::Forbid)
    }

    /// [`Self::openat`] for a subdirectory: returns a new directory
    /// descriptor (`ENOTDIR` if `rel` is not a directory).
    pub fn openat_dir(&self, dir: Fd, rel: &str, creds: &Credentials) -> VfsResult<Fd> {
        self.openat_common(dir, rel, OpenFlags::read_only(), creds, DirMode::Require)
    }

    /// The `*at` entry: look the directory descriptor up once, charge one
    /// `openat` under the full path, and open from that anchor.
    fn openat_common(
        &self,
        dir: Fd,
        rel: &str,
        flags: OpenFlags,
        creds: &Credentials,
        dir_mode: DirMode,
    ) -> VfsResult<Fd> {
        let at = self.dir_anchor(dir, rel)?;
        let full = at.path.join_path(rel);
        self.pre_access(full.as_str());
        self.charge_uid(OpKind::Openat, full.as_str(), creds.uid)?;
        self.open_common(Some(&at), rel, full, flags, creds, dir_mode)
    }

    /// The one body of the path- and descriptor-relative opens. `at` set:
    /// `path` is relative and resolution starts at that anchor; `vp` is
    /// the full path either way. The caller has already charged the
    /// syscall.
    fn open_common(
        &self,
        at: Option<&DirAnchor>,
        path: &str,
        vp: VPath,
        flags: OpenFlags,
        creds: &Credentials,
        dir_mode: DirMode,
    ) -> VfsResult<Fd> {
        if at.is_some() && path.starts_with('/') {
            return err(Errno::EINVAL, path);
        }
        if flags.write || flags.create || flags.truncate || flags.append {
            self.validate_mutation(&vp)?;
        }
        // One slot in the global handle table, reserved up front (`ENFILE`)
        // and released by Drop on every error path below.
        let mut slot = HandleSlot::reserve(&self.tables, self.limits.max_open_files, vp.as_str())?;
        let resolve = || match at {
            None => self.resolve_live(&vp, creds, true),
            Some(a) => self.resolve_at(a, path, creds, true),
        };
        let (fd, created, modified) = loop {
            let mut r = resolve()?;
            let id = self.tables.alloc_fd();
            // The create path re-resolves after running hooks; a target
            // that raced into existence there is opened without truncation.
            let mut truncate_ok = true;
            match r.target {
                Some(_) if flags.create && flags.excl => {
                    return err(Errno::EEXIST, vp.as_str());
                }
                Some(_) => {}
                None => {
                    if !flags.create {
                        return err(Errno::ENOENT, vp.as_str());
                    }
                    if !valid_name(&r.name) {
                        return err(Errno::EINVAL, vp.as_str());
                    }
                    // validate_create hooks may read (or create!) the file;
                    // no locks are held here, so they may re-enter freely.
                    self.validate_with_hooks(|h| h.validate_create(self, &r.full()))?;
                    r = resolve()?;
                    if r.target.is_some() && flags.excl {
                        return err(Errno::EEXIST, vp.as_str());
                    }
                    truncate_ok = false;
                }
            }
            let full = r.full();

            // Each arm leaves the target inode locked together with the new
            // handle's shard; the shared tail below installs the handle.
            let (mut set, ino, created, modified) = match r.target {
                Some(ino) => {
                    let mut modified = false;
                    let mut set = self.tables.lock(&[LockKey::Ino(ino), LockKey::Fd(id)]);
                    let is_dir = match set.inode(ino) {
                        Ok(n) => matches!(n.kind, NodeKind::Dir { .. }),
                        Err(_) => continue, // vanished: re-resolve
                    };
                    match (is_dir, dir_mode) {
                        (true, DirMode::Forbid) => return err(Errno::EISDIR, vp.as_str()),
                        (false, DirMode::Require) => return err(Errno::ENOTDIR, vp.as_str()),
                        _ => {}
                    }
                    if flags.read && !Self::may_access_set(&set, ino, creds, Access::Read) {
                        return err(Errno::EACCES, vp.as_str());
                    }
                    if flags.write && !Self::may_access_set(&set, ino, creds, Access::Write) {
                        return err(Errno::EACCES, vp.as_str());
                    }
                    if flags.truncate && flags.write && truncate_ok {
                        let tick = self.clock.tick();
                        if matches!(&set.inode(ino)?.kind, NodeKind::File(d) if !d.is_empty()) {
                            let rec = Record::Truncate { ino, len: 0, tick };
                            self.commit(&mut set, vp.as_str(), &rec);
                            modified = true;
                        }
                    }
                    (set, ino, None, modified)
                }
                None => {
                    let also = Some(LockKey::Fd(id));
                    match self.create_in(&r, NewNode::File(&[]), creds, also)? {
                        Some((set, ino, created)) => (set, ino, Some(created), false),
                        None => continue, // lost the create race: re-resolve
                    }
                }
            };
            // Per-uid handle budget, charged at the last fallible point so
            // a failed open never leaks a slot.
            self.rctl.charge_open(creds.uid.0, vp.as_str())?;
            set.inode_mut(ino)?.open_count += 1;
            let hpath = full.as_str().to_owned();
            set.insert_handle_reserved(
                id,
                OpenFile {
                    ino,
                    flags,
                    offset: 0,
                    path: full,
                    wrote: false,
                    owner: creds.uid,
                },
            );
            self.readpath
                .publish_handle(id, ino, creds.uid, flags, hpath);
            slot.commit();
            break (Fd(id), created, modified);
        };
        if let Some(p) = created {
            self.notify.emit(EventKind::Create, &p, p.file_name());
            self.run_hooks(vec![PendingHook::Create(p)], creds);
        }
        if modified {
            self.notify.emit(EventKind::Modify, &vp, None);
        }
        Ok(fd)
    }

    // ----------------------------------------------------------------
    // Descriptor identity
    // ----------------------------------------------------------------

    /// A descriptor's immutable identity (target inode, owner, flags,
    /// open-time path): lock-free from its handle block when warm, one
    /// handle-table read lock otherwise. `None`: not an open descriptor.
    /// A handle's target inode never changes, so the snapshot stays valid
    /// for the whole syscall; only offset/data need the shard locks.
    fn handle_meta(&self, fd: Fd) -> Option<HandleMeta> {
        match self.readpath.read_handle(fd.0) {
            HandleRead::Open(m) => Some(m),
            HandleRead::Fallback => self.tables.with_handle(fd.0, |h| HandleMeta {
                ino: h.ino,
                owner: h.owner,
                flags: h.flags,
                path: h.path.as_str().to_owned(),
            }),
        }
    }

    /// Entry of every descriptor syscall: identify `fd` (`EBADF` when it is
    /// not open), then charge `op` to the handle's owner under its
    /// open-time path.
    fn fd_enter(&self, fd: Fd, op: OpKind) -> VfsResult<HandleMeta> {
        let meta = self
            .handle_meta(fd)
            .ok_or_else(|| VfsError::new(Errno::EBADF, "fd"))?;
        self.charge_uid(op, &meta.path, meta.owner)?;
        Ok(meta)
    }

    /// Tear one handle out of the table under `set` (which must cover the
    /// fd's and its inode's shards): retire its identity block, release
    /// the owner's handle budget, unpin the inode and drop it if that was
    /// the last reference to an unlinked file. Returns the handle and
    /// whether its inode was dropped; `None` if `fd` is not open.
    pub(super) fn release_handle(&self, set: &mut ShardSet, fd: u64) -> Option<(OpenFile, bool)> {
        let h = set.remove_handle(fd)?;
        self.readpath.close_handle(fd);
        self.rctl.release_open(h.owner.0);
        let dropped = Self::unpin(set, h.ino);
        Some((h, dropped))
    }

    /// The commit point of a written handle: `CloseWrite` to watchers,
    /// `post_close_write` to hooks. Runs outside every shard lock.
    fn commit_written(&self, path: VPath, creds: &Credentials) {
        self.notify
            .emit(EventKind::CloseWrite, &path, path.file_name());
        self.run_hooks(vec![PendingHook::CloseWrite(path)], creds);
    }

    // ----------------------------------------------------------------
    // Reading and writing
    // ----------------------------------------------------------------

    /// `read(2)`: up to `len` bytes from the handle's offset.
    pub fn read(&self, fd: Fd, len: usize) -> VfsResult<Vec<u8>> {
        self.read_at(fd, None, len)
    }

    /// `pread(2)`: up to `len` bytes at `offset`, without moving the
    /// handle's offset. One charged `read` syscall.
    pub fn pread(&self, fd: Fd, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.read_at(fd, Some(offset), len)
    }

    /// The one read body. `pos` set: positional — the copy needs only the
    /// inode's shard read lock and the offset stays put. `pos` unset:
    /// sequential from the handle's offset, which advances, so handle and
    /// inode are write-locked together. A directory descriptor is `EISDIR`.
    fn read_at(&self, fd: Fd, pos: Option<u64>, len: usize) -> VfsResult<Vec<u8>> {
        let meta = self.fd_enter(fd, OpKind::Read)?;
        if !meta.flags.read {
            return err(Errno::EBADF, meta.path);
        }
        let copy = |node: &Inode, off: u64| match &node.kind {
            NodeKind::File(d) => {
                let start = (off as usize).min(d.len());
                let end = (start + len).min(d.len());
                Ok(d[start..end].to_vec())
            }
            _ => err(Errno::EISDIR, meta.path.as_str()),
        };
        if let Some(off) = pos {
            return match self.tables.with_inode(meta.ino, |node| copy(node, off)) {
                Ok(r) => r,
                Err(_) => err(Errno::EBADF, "fd"),
            };
        }
        let mut set = self
            .tables
            .lock(&[LockKey::Fd(fd.0), LockKey::Ino(meta.ino)]);
        let off = match set.handle(fd.0) {
            Some(h) => h.offset,
            None => return err(Errno::EBADF, "fd"), // closed concurrently
        };
        let data = copy(set.inode(meta.ino)?, off)?;
        if let Some(h) = set.handle_mut(fd.0) {
            h.offset += data.len() as u64;
        }
        Ok(data)
    }

    /// `write(2)` at the handle's offset (end of file with `append`).
    pub fn write(&self, fd: Fd, data: &[u8]) -> VfsResult<usize> {
        self.write_at(fd, None, data)
    }

    /// `pwrite(2)`: write `data` at `offset`, without moving the handle's
    /// offset. One charged `write` syscall.
    pub fn pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> VfsResult<usize> {
        self.write_at(fd, Some(offset), data)
    }

    /// The one write body: place the write, bound it, commit its record,
    /// notify. `pos` set: positional, the handle's offset stays put. `pos` unset: at the
    /// handle's offset (end of file with `append`), which advances past
    /// the written bytes. A directory descriptor is `EISDIR`.
    fn write_at(&self, fd: Fd, pos: Option<u64>, data: &[u8]) -> VfsResult<usize> {
        let meta = self.fd_enter(fd, OpKind::Write)?;
        if !meta.flags.write {
            return err(Errno::EBADF, meta.path);
        }
        let ino = meta.ino;
        let path;
        {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            let h_off = match set.handle(fd.0) {
                Some(h) => h.offset,
                None => return err(Errno::EBADF, "fd"), // closed concurrently
            };
            let NodeKind::File(d) = &set.inode(ino)?.kind else {
                return err(Errno::EISDIR, "fd");
            };
            let offset = match pos {
                Some(off) => off,
                None if meta.flags.append => d.len() as u64,
                None => h_off,
            };
            let end = match offset.checked_add(data.len() as u64) {
                Some(end) if end <= self.limits.max_file_size => end,
                _ => return err(Errno::ENOSPC, "fd"),
            };
            let h = set.handle_mut(fd.0).expect("handle verified above");
            if pos.is_none() {
                h.offset = end;
            }
            // An empty write changes no byte, so close has nothing to
            // commit — unless the open truncated (`: > file` commits an
            // empty file; `printf '' >> file` commits nothing).
            h.wrote |= !data.is_empty() || meta.flags.truncate;
            path = h.path.clone();
            let rec = Record::Write {
                ino,
                offset,
                data,
                tick: self.clock.tick(),
            };
            self.commit(&mut set, path.as_str(), &rec);
        }
        self.notify.emit(EventKind::Modify, &path, None);
        Ok(data.len())
    }

    /// `lseek(2)` (absolute positioning only; returns the new offset).
    pub fn seek(&self, fd: Fd, offset: u64) -> VfsResult<u64> {
        let mut set = self.tables.lock(&[LockKey::Fd(fd.0)]);
        let h = set
            .handle_mut(fd.0)
            .ok_or_else(|| VfsError::new(Errno::EBADF, "fd"))?;
        h.offset = offset;
        Ok(offset)
    }

    /// `readv(2)`: scatter a sequential read from the handle's offset into
    /// segments of the requested sizes. One charged `read` syscall however
    /// many segments; the offset advances by the total bytes read. Short
    /// reads truncate the tail segments.
    pub fn readv(&self, fd: Fd, lens: &[usize]) -> VfsResult<Vec<Vec<u8>>> {
        let total: usize = lens.iter().sum();
        let data = self.read(fd, total)?;
        let mut out = Vec::with_capacity(lens.len());
        let mut at = 0usize;
        for &l in lens {
            let end = (at + l).min(data.len());
            out.push(data[at.min(data.len())..end].to_vec());
            at = end;
        }
        Ok(out)
    }

    /// `writev(2)`: gather-write the buffers at the handle's offset. One
    /// charged `write` syscall however many buffers.
    pub fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> VfsResult<usize> {
        let flat: Vec<u8> = bufs.concat();
        self.write(fd, &flat)
    }

    // ----------------------------------------------------------------
    // Close, commit, descriptor metadata
    // ----------------------------------------------------------------

    /// `close(2)`. Emits `CloseWrite` (and fires `post_close_write` hooks)
    /// when the handle performed writes.
    pub fn close(&self, fd: Fd, creds: &Credentials) -> VfsResult<()> {
        let ident = self
            .tables
            .with_handle(fd.0, |h| (h.ino, h.path.as_str().to_owned()));
        self.count(OpKind::Close, ident.as_ref().map_or("", |(_, p)| p));
        let Some((ino, _)) = ident else {
            return err(Errno::EBADF, "fd");
        };
        let closed = {
            let mut set = self.tables.lock(&[LockKey::Fd(fd.0), LockKey::Ino(ino)]);
            self.release_handle(&mut set, fd.0)
        };
        match closed {
            Some((h, _)) if h.wrote => self.commit_written(h.path, creds),
            Some(_) => {}
            None => return err(Errno::EBADF, "fd"), // double close race
        }
        Ok(())
    }

    /// `fstat(2)`: stat through a descriptor — no path resolution at all.
    /// One charged `fstat` syscall. A descriptor's identity is immutable,
    /// so a warm fstat is fully lock-free: handle block + attribute block.
    pub fn fstat(&self, fd: Fd) -> VfsResult<FileStat> {
        let meta = self.fd_enter(fd, OpKind::Fstat)?;
        self.stat_ino(meta.ino)
            .map_err(|_| VfsError::new(Errno::EBADF, meta.path))
    }

    /// `fsync(2)` as yanc's *commit without close*: if the handle has
    /// written since open (or since the last fsync), fire the `CloseWrite`
    /// event and `post_close_write` hooks now, keeping the descriptor open
    /// for further writes. This is what lets a long-lived flow descriptor
    /// commit many updates without re-paying open/close.
    pub fn fsync(&self, fd: Fd, creds: &Credentials) -> VfsResult<()> {
        let meta = self.fd_enter(fd, OpKind::Fsync)?;
        let (wrote, path);
        {
            let mut set = self
                .tables
                .lock(&[LockKey::Fd(fd.0), LockKey::Ino(meta.ino)]);
            let h = match set.handle_mut(fd.0) {
                Some(h) => h,
                None => return err(Errno::EBADF, "fd"),
            };
            wrote = std::mem::take(&mut h.wrote);
            path = h.path.clone();
        }
        if wrote {
            self.commit_written(path, creds);
        }
        Ok(())
    }

    /// `readdir` through a directory descriptor: no path resolution. One
    /// charged `readdir` syscall. Listing permission was checked when the
    /// descriptor was opened, as POSIX does.
    pub fn readdir_fd(&self, fd: Fd) -> VfsResult<Vec<DirEntry>> {
        let meta = self.fd_enter(fd, OpKind::Readdir)?;
        let snapshot = match self.tables.with_inode(meta.ino, dir_snapshot) {
            Ok(r) => r.map_err(|_| VfsError::new(Errno::ENOTDIR, meta.path))?,
            Err(_) => return err(Errno::ENOENT, meta.path),
        };
        Ok(self.list_entries(snapshot))
    }

    // ----------------------------------------------------------------
    // Vectored descriptor-relative write
    // ----------------------------------------------------------------

    /// Vectored descriptor-relative write: **one** charged `write` syscall
    /// submits a whole batch of file writes relative to an open directory
    /// descriptor — the vectored-I/O principle applied at directory
    /// granularity (cf. io_uring submission batching). Each entry is
    /// created or replaced wholesale and committed, as if written by
    /// `open(write_create)` + `write` + `close`, emitting `Create` (for
    /// new files) and `CloseWrite`; entry names may be relative
    /// multi-component paths. Entries apply *in order* and the batch is
    /// not transactional: on error, earlier entries remain applied (their
    /// events already fired) and the error names the failing entry.
    ///
    /// This is the syscall-count lever of experiment E21: a flow install
    /// that costs ~28 path-addressed syscalls costs `mkdirat` +
    /// `write_batch_at` = 2 through a flows-directory descriptor, while
    /// staying fully introspectable as files (unlike the libyanc ring,
    /// which bypasses the fs entirely).
    pub fn write_batch_at(
        &self,
        dir: Fd,
        entries: &[(&str, &[u8])],
        creds: &Credentials,
    ) -> VfsResult<usize> {
        let at = self.dir_anchor(dir, "fd")?;
        self.charge_uid(OpKind::Write, at.path.as_str(), creds.uid)?;
        let mut events: Vec<PendingEvent> = Vec::new();
        let mut hooks: Vec<PendingHook> = Vec::new();
        let mut res = Ok(());
        let mut done = 0usize;
        for (rel, data) in entries {
            if let Err(e) = self.batch_write_one(&at, rel, data, creds, &mut events, &mut hooks) {
                res = Err(e);
                break;
            }
            done += 1;
        }
        self.notify.emit_batch(&events);
        self.run_hooks(hooks, creds);
        res.map(|()| done)
    }

    /// One entry of [`Self::write_batch_at`]; gathers events/hooks for the
    /// caller to emit as a batch. Not charged.
    fn batch_write_one(
        &self,
        at: &DirAnchor,
        rel: &str,
        data: &[u8],
        creds: &Credentials,
        events: &mut Vec<PendingEvent>,
        hooks: &mut Vec<PendingHook>,
    ) -> VfsResult<()> {
        if data.len() as u64 > self.limits.max_file_size {
            return err(Errno::ENOSPC, rel);
        }
        loop {
            let r = self.resolve_at(at, rel, creds, true)?;
            if r.name.is_empty() {
                return err(Errno::EISDIR, rel);
            }
            let full = r.parent_path.join(&r.name);
            self.validate_mutation(&full)?;
            let name = full.file_name().map(str::to_string);
            match r.target {
                Some(ino) => {
                    let mut set = self.tables.lock(&[LockKey::Ino(ino)]);
                    match set.inode(ino) {
                        Err(_) => continue, // vanished: re-resolve
                        Ok(n) if !matches!(n.kind, NodeKind::File(_)) => {
                            return err(Errno::EISDIR, full.as_str());
                        }
                        Ok(_) => {}
                    }
                    if !Self::may_access_set(&set, ino, creds, Access::Write) {
                        return err(Errno::EACCES, full.as_str());
                    }
                    let rec = Record::SetContent {
                        ino,
                        data,
                        tick: self.clock.tick(),
                    };
                    self.commit(&mut set, full.as_str(), &rec);
                    drop(set);
                    events.push((EventKind::Modify, full.clone(), None));
                }
                None => {
                    if !valid_name(&r.name) {
                        return err(Errno::EINVAL, rel);
                    }
                    self.validate_with_hooks(|h| h.validate_create(self, &full))?;
                    if self
                        .create_in(&r, NewNode::File(data), creds, None)?
                        .is_none()
                    {
                        continue; // lost the create race: re-resolve
                    }
                    events.push((EventKind::Create, full.clone(), name.clone()));
                    hooks.push(PendingHook::Create(full.clone()));
                }
            }
            events.push((EventKind::CloseWrite, full.clone(), name));
            hooks.push(PendingHook::CloseWrite(full));
            return Ok(());
        }
    }

    // ----------------------------------------------------------------
    // Vectored descriptor-relative read
    // ----------------------------------------------------------------

    /// Vectored descriptor-relative read, the twin of
    /// [`Self::write_batch_at`]: **one** charged `read` syscall returns the
    /// whole contents of every file in `names`, in order, each resolved
    /// from the directory descriptor `dir` (names may be relative
    /// multi-component paths). No handle is created. Each entry needs what
    /// `openat` + `read` would need: traversal to it and Read permission
    /// on it (`EACCES`); a directory is `EISDIR`. Contents are copied under
    /// the file's shard read lock. The call fails fast: the first entry
    /// that cannot be read ends it with an error naming that entry.
    pub fn read_batch_at(
        &self,
        dir: Fd,
        names: &[&str],
        creds: &Credentials,
    ) -> VfsResult<Vec<Vec<u8>>> {
        let at = self.dir_anchor(dir, "fd")?;
        self.charge_uid(OpKind::Read, at.path.as_str(), creds.uid)?;
        let read_one = |rel: &&str| {
            let full = at.path.join_path(rel);
            self.pre_access(full.as_str());
            let lookup = || {
                let r = self.resolve_at(&at, rel, creds, true)?;
                r.target
                    .ok_or_else(|| VfsError::new(Errno::ENOENT, full.as_str()))
            };
            self.read_node(lookup, full.as_str(), creds, |node| match &node.kind {
                NodeKind::File(d) => Ok(d.clone()),
                _ => err(Errno::EISDIR, full.as_str()),
            })
        };
        names.iter().map(read_one).collect()
    }

    // ----------------------------------------------------------------
    // Whole-file convenience (each layer counts its constituent syscalls,
    // like a real open/write/close sequence would)
    // ----------------------------------------------------------------

    /// Read a whole file. The read is sized by a preceding `stat`, so
    /// bytes appended concurrently between the two calls are not observed
    /// (matching the common `stat`+`read` user-space pattern).
    pub fn read_file(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        let fd = self.open(path, OpenFlags::read_only(), creds)?;
        let size = {
            // One read sized by stat, one close: 3 "syscalls" total with the
            // open — the realistic small-file sequence.
            let st = self.stat(path, creds)?;
            st.size as usize
        };
        let out = self.read(fd, size.max(1));
        let _ = self.close(fd, creds);
        out
    }

    /// Read a whole file as UTF-8 (lossy).
    pub fn read_to_string(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        Ok(String::from_utf8_lossy(&self.read_file(path, creds)?).into_owned())
    }

    /// Create/truncate `path` and write `data` — the `echo x > file` shape.
    pub fn write_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        self.open_write_close(path, OpenFlags::write_create(), data, creds)
    }

    /// Append `data` to `path`, creating it if needed (`echo x >> file`).
    pub fn append_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        self.open_write_close(path, OpenFlags::append_create(), data, creds)
    }

    fn open_write_close(
        &self,
        path: &str,
        flags: OpenFlags,
        data: &[u8],
        creds: &Credentials,
    ) -> VfsResult<()> {
        let fd = self.open(path, flags, creds)?;
        let r = self.write(fd, data);
        let c = self.close(fd, creds);
        r?;
        c
    }
}
