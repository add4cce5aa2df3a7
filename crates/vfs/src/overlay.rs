//! # Overlay (union) mounts: copy-on-write views with atomic commit
//!
//! Linux-overlayfs semantics built *on top of* the plain tree (paper §3.4,
//! §5.3): one or more **read-only lower layers** and a **writable upper
//! layer** are merged into a single view. Reads fall through to the
//! topmost layer that has the object; the first write **copies up** the
//! object (and its directory chain) into the upper layer; deletes leave a
//! **whiteout** (`.wh.<name>`) in the upper layer; a directory that must
//! stop merging with its lower twins carries the **opaque** xattr.
//!
//! The layers are ordinary directories of the one [`Filesystem`], so every
//! mechanism from earlier PRs composes by construction rather than by
//! special case:
//!
//! * **dcache** — lookups inside a view hit real per-layer inodes, so the
//!   cache keys are `(layer dir ino, name)`: already layer-aware. A
//!   whiteout is a *positive* entry for `.wh.x`, not a negative entry for
//!   `x`, and commit mutates the real base/upper dirs, bumping their
//!   generations — stale merged answers are impossible.
//! * **journal** — copy-up chains and view commits go through
//!   `Filesystem::apply_batch`, which journals the whole plan as one
//!   `Commit` frame. A crash replays a copy-up or a view commit
//!   fully-applied or fully-absent, never half.
//! * **rctl** — every batched step is charged to the *writer's* uid before
//!   application, so copy-up cost lands on the tenant who wrote.
//! * **notify** — upper-layer paths are private to the view, so watching
//!   the upper tree observes exactly this view's writes and nothing else.
//!
//! **Atomic view commit** generalises the paper's rename-commit: the app
//! stages edits in its upper layer, validates them, then
//! [`Overlay::commit`] computes a diff plan (upserts for upper objects,
//! removes for whiteouts) *plus* the clearing of the upper layer, and
//! applies all of it as one `apply_batch` transaction — a single
//! linearization point under `lock_all`, one journal frame, permission-
//! checked against the base tree (per-tenant authority enforced at the
//! filesystem boundary, not in every app).
//!
//! Documented deviations from kernel overlayfs: directory renames return
//! `EXDEV` (as overlayfs itself does without `redirect_dir`), file renames
//! materialise as create+delete in the event stream, and resolution that
//! passes *through* a lower-layer symlink pointing outside the copied-up
//! region delegates into the lower tree, where writes fail with `EROFS`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::acl::{check_access, Acl};
use crate::error::{err, Errno, VfsResult};
use crate::fs::{Filesystem, WatchBuilder};
use crate::journal::{BatchOp, BatchReport};
use crate::path::VPath;
use crate::types::{
    Access, Credentials, DirEntry, Fd, FileStat, FileType, Gid, Mode, OpenFlags, Uid,
};

/// Prefix marking a whiteout entry in an upper layer: `.wh.<name>` hides
/// `<name>` in every lower layer. Names with this prefix are reserved —
/// the overlay rejects them with `EINVAL`, exactly like kernel overlayfs.
pub const WHITEOUT_PREFIX: &str = ".wh.";

/// Xattr marking an upper directory *opaque*: lower directories of the
/// same name are not merged through it.
pub const OPAQUE_XATTR: &str = "trusted.overlay.opaque";

/// Maximum symlink hops [`Overlay`] itself follows while locating a
/// write target (each hop re-resolves through the merged view).
const MAX_OVERLAY_HOPS: u32 = 8;

#[derive(Debug, Default)]
struct Counters {
    copy_ups: AtomicU64,
    copy_up_bytes: AtomicU64,
    whiteouts: AtomicU64,
    opaques: AtomicU64,
    commits: AtomicU64,
    commit_records: AtomicU64,
}

/// Point-in-time snapshot of one overlay's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Objects copied from a lower layer into the upper layer.
    pub copy_ups: u64,
    /// File-content bytes moved by those copy-ups.
    pub copy_up_bytes: u64,
    /// Whiteout entries created (deletes of lower-layer objects).
    pub whiteouts: u64,
    /// Directories marked opaque.
    pub opaques: u64,
    /// Successful [`Overlay::commit`] calls.
    pub commits: u64,
    /// Journal sub-records produced by those commits.
    pub commit_records: u64,
}

/// Outcome of one atomic view commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitReport {
    /// Journal sub-records in the single `Commit` frame.
    pub records: usize,
    /// File-content bytes written into the base tree.
    pub bytes: u64,
    /// Whiteouts translated into base-tree removals.
    pub whiteouts: usize,
    /// Top-level upper-layer entries cleared by the same transaction.
    pub cleared: usize,
}

/// A copy-on-write union view over directories of one [`Filesystem`].
///
/// Cloning is cheap and shares the counters; the layers themselves live in
/// the filesystem, so a clone is another handle onto the same view.
#[derive(Clone)]
pub struct Overlay {
    fs: Arc<Filesystem>,
    lowers: Vec<VPath>,
    upper: VPath,
    counters: Arc<Counters>,
}

/// Where a merged-view path resolved to.
enum Loc {
    /// Resolution passed through a non-directory intermediate and was
    /// rebased wholly into one layer; the bool says it was the upper
    /// (writable) layer.
    Delegate(VPath, bool),
    /// Normal case: per-layer knowledge about the final component.
    Merged(Merged),
}

/// Per-layer state of one merged path's final component.
struct Merged {
    /// The (possibly not-yet-existing) upper-layer path.
    up: VPath,
    /// `lstat` of `up` when it exists.
    up_st: Option<FileStat>,
    /// A whiteout in the upper parent hides all lower objects.
    wh: bool,
    /// Topmost surviving lower object.
    low: Option<(VPath, FileStat)>,
    /// Every lower directory merged at this path, in priority order
    /// (empty when hidden by a whiteout or an opaque upper directory).
    low_dirs: Vec<VPath>,
}

impl Merged {
    /// The layer object the merged view presents here, if any.
    fn visible(&self) -> Option<(&VPath, &FileStat)> {
        if let Some(st) = &self.up_st {
            return Some((&self.up, st));
        }
        if self.wh {
            return None;
        }
        self.low.as_ref().map(|(p, s)| (p, s))
    }
}

/// `.wh.<name>`.
fn wh_name(name: &str) -> String {
    format!("{WHITEOUT_PREFIX}{name}")
}

/// The whiteout path shadowing `upper_path`.
fn wh_path(upper_path: &VPath) -> VPath {
    let name = upper_path.file_name().unwrap_or("");
    upper_path.parent().join(&wh_name(name))
}

/// Lexically squash an overlay-relative path into components: `.` drops,
/// `..` pops (the overlay root is its own parent, as for a chroot), and
/// reserved whiteout names are rejected.
fn squash(path: &str) -> VfsResult<Vec<String>> {
    let vp = VPath::new(path);
    let mut out: Vec<String> = Vec::new();
    for c in vp.components() {
        match c {
            "." => {}
            ".." => {
                out.pop();
            }
            _ if c.starts_with(WHITEOUT_PREFIX) => return err(Errno::EINVAL, path),
            _ => out.push(c.to_string()),
        }
    }
    Ok(out)
}

/// Join the remaining components onto a layer path.
fn join_rest(base: &VPath, rest: &[String]) -> VPath {
    let mut p = base.clone();
    for c in rest {
        p = p.join(c);
    }
    p
}

/// Overlay-relative absolute path from squashed components.
fn opath(comps: &[String]) -> VPath {
    join_rest(&VPath::root(), comps)
}

impl Overlay {
    /// Build a view: `lowers` are merged top-first (index 0 wins), `upper`
    /// receives all writes. The layer directories need not exist yet; see
    /// [`Overlay::ensure_upper`].
    ///
    /// # Panics
    /// When `lowers` is empty — a union of nothing is a plain directory,
    /// use a bind mount for that.
    pub fn new(fs: Arc<Filesystem>, lowers: &[&str], upper: &str) -> Overlay {
        assert!(!lowers.is_empty(), "overlay needs at least one lower layer");
        Overlay {
            fs,
            lowers: lowers.iter().map(|p| VPath::new(p)).collect(),
            upper: VPath::new(upper),
            counters: Arc::new(Counters::default()),
        }
    }

    /// Create the upper directory (if missing) and hand it to `owner`, so
    /// an unprivileged tenant can write in its own view.
    pub fn ensure_upper(&self, owner: &Credentials) -> VfsResult<()> {
        let root = Credentials::root();
        self.fs
            .mkdir_all(self.upper.as_str(), Mode::DIR_DEFAULT, &root)?;
        if !owner.is_root() {
            self.fs
                .chown(self.upper.as_str(), Some(owner.uid), Some(owner.gid), &root)?;
        }
        Ok(())
    }

    /// The underlying filesystem.
    pub fn filesystem(&self) -> &Arc<Filesystem> {
        &self.fs
    }

    /// The writable upper layer's real path.
    pub fn upper_path(&self) -> &VPath {
        &self.upper
    }

    /// The read-only lower layers' real paths, topmost first.
    pub fn lower_paths(&self) -> &[VPath] {
        &self.lowers
    }

    /// Current activity counters.
    pub fn stats(&self) -> OverlayStats {
        let c = &self.counters;
        OverlayStats {
            copy_ups: c.copy_ups.load(Ordering::Relaxed),
            copy_up_bytes: c.copy_up_bytes.load(Ordering::Relaxed),
            whiteouts: c.whiteouts.load(Ordering::Relaxed),
            opaques: c.opaques.load(Ordering::Relaxed),
            commits: c.commits.load(Ordering::Relaxed),
            commit_records: c.commit_records.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Is this (existing) upper directory opaque?
    fn is_opaque(&self, upper_dir: &VPath, creds: &Credentials) -> bool {
        self.fs
            .get_xattr(upper_dir.as_str(), OPAQUE_XATTR, creds)
            .map(|v| v == b"y")
            .unwrap_or(false)
    }

    /// Resolve an overlay path against all layers. Intermediate symlinks
    /// *within one layer* are handled by delegation (the remainder of the
    /// path is rebased into that layer and the plain fs resolves it);
    /// final-component symlinks are reported as-is (lstat semantics).
    fn walk(&self, path: &str, creds: &Credentials) -> VfsResult<Loc> {
        let comps = squash(path)?;
        let mut upper_path = self.upper.clone();
        let mut upper_live = true;
        let mut lows: Vec<VPath> = self.lowers.clone();
        let n = comps.len();
        if n == 0 {
            let up_st = self.fs.lstat(upper_path.as_str(), creds).ok();
            let low = lows.first().and_then(|p| {
                self.fs
                    .lstat(p.as_str(), creds)
                    .ok()
                    .map(|st| (p.clone(), st))
            });
            return Ok(Loc::Merged(Merged {
                up: upper_path,
                up_st,
                wh: false,
                low,
                low_dirs: lows,
            }));
        }
        for (i, comp) in comps.iter().enumerate() {
            let last = i + 1 == n;
            let wh = upper_live
                && self
                    .fs
                    .exists(upper_path.join(&wh_name(comp)).as_str(), creds);
            let up_child_path = upper_path.join(comp);
            let up_child = if upper_live {
                self.fs.lstat(up_child_path.as_str(), creds).ok()
            } else {
                None
            };
            let mut low_children: Vec<(VPath, FileStat)> = Vec::new();
            if !wh {
                for lp in &lows {
                    let p = lp.join(comp);
                    if let Ok(st) = self.fs.lstat(p.as_str(), creds) {
                        low_children.push((p, st));
                    }
                }
            }
            if last {
                let opaque = matches!(&up_child, Some(st) if st.is_dir())
                    && self.is_opaque(&up_child_path, creds);
                let mut low_dirs = Vec::new();
                if !opaque {
                    for (p, st) in &low_children {
                        if st.is_dir() {
                            low_dirs.push(p.clone());
                        } else {
                            break; // a non-dir lower cuts deeper layers
                        }
                    }
                }
                let low = if opaque {
                    None
                } else {
                    low_children.into_iter().next()
                };
                return Ok(Loc::Merged(Merged {
                    up: up_child_path,
                    up_st: up_child,
                    wh,
                    low,
                    low_dirs,
                }));
            }
            match up_child {
                Some(st) if st.is_dir() => {
                    let opaque = self.is_opaque(&up_child_path, creds);
                    lows = if opaque {
                        Vec::new()
                    } else {
                        let mut v = Vec::new();
                        for (p, cst) in low_children {
                            if cst.is_dir() {
                                v.push(p);
                            } else {
                                break;
                            }
                        }
                        v
                    };
                    upper_path = up_child_path;
                }
                Some(_) => {
                    // A non-dir (symlink or file) mid-path in the upper
                    // layer: the plain fs finishes resolution inside it.
                    return Ok(Loc::Delegate(
                        join_rest(&up_child_path, &comps[i + 1..]),
                        true,
                    ));
                }
                None => {
                    upper_path = up_child_path;
                    if wh || low_children.is_empty() {
                        // Intermediate is missing entirely: the final
                        // component cannot exist in any layer.
                        return Ok(Loc::Merged(Merged {
                            up: join_rest(&upper_path, &comps[i + 1..]),
                            up_st: None,
                            wh: false,
                            low: None,
                            low_dirs: Vec::new(),
                        }));
                    }
                    upper_live = false;
                    let first_is_dir = low_children[0].1.is_dir();
                    if first_is_dir {
                        let mut v = Vec::new();
                        for (p, cst) in low_children {
                            if cst.is_dir() {
                                v.push(p);
                            } else {
                                break;
                            }
                        }
                        lows = v;
                    } else {
                        // Non-dir mid-path in the topmost lower layer:
                        // delegate the remainder into that layer.
                        let (p, _) = low_children.into_iter().next().unwrap();
                        return Ok(Loc::Delegate(join_rest(&p, &comps[i + 1..]), false));
                    }
                }
            }
        }
        unreachable!("loop returns on the last component")
    }

    /// Resolve to the visible layer path or `ENOENT`.
    fn visible_path(&self, path: &str, creds: &Credentials) -> VfsResult<VPath> {
        match self.walk(path, creds)? {
            Loc::Delegate(p, _) => Ok(p),
            Loc::Merged(m) => match m.visible() {
                Some((p, _)) => Ok(p.clone()),
                None => err(Errno::ENOENT, path),
            },
        }
    }

    // ------------------------------------------------------------------
    // Read side
    // ------------------------------------------------------------------

    /// `stat` through the merged view (follows a final symlink).
    pub fn stat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
        let p = self.visible_path(path, creds)?;
        self.fs.stat(p.as_str(), creds)
    }

    /// `lstat` through the merged view.
    pub fn lstat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat> {
        let p = self.visible_path(path, creds)?;
        self.fs.lstat(p.as_str(), creds)
    }

    /// Does the path exist in the merged view?
    pub fn exists(&self, path: &str, creds: &Credentials) -> bool {
        self.stat(path, creds).is_ok()
    }

    /// Read a whole file through the merged view.
    pub fn read_file(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        let p = self.visible_path(path, creds)?;
        self.fs.read_file(p.as_str(), creds)
    }

    /// Read a whole file as UTF-8 through the merged view.
    pub fn read_to_string(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        let p = self.visible_path(path, creds)?;
        self.fs.read_to_string(p.as_str(), creds)
    }

    /// Read a symlink target through the merged view.
    pub fn readlink(&self, path: &str, creds: &Credentials) -> VfsResult<String> {
        let p = self.visible_path(path, creds)?;
        self.fs.readlink(p.as_str(), creds)
    }

    /// Read an extended attribute through the merged view.
    pub fn get_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<Vec<u8>> {
        let p = self.visible_path(path, creds)?;
        self.fs.get_xattr(p.as_str(), name, creds)
    }

    /// Merged directory listing: lower layers bottom-up, upper layer last;
    /// whiteouts hide their lower twins and are themselves invisible.
    pub fn readdir(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<DirEntry>> {
        let m = match self.walk(path, creds)? {
            Loc::Delegate(p, _) => return self.fs.readdir(p.as_str(), creds),
            Loc::Merged(m) => m,
        };
        let Some((vp, vst)) = m.visible() else {
            return err(Errno::ENOENT, path);
        };
        if vst.is_symlink() {
            return self.fs.readdir(vp.as_str(), creds); // fs follows it
        }
        if !vst.is_dir() {
            return err(Errno::ENOTDIR, path);
        }
        let mut merged: BTreeMap<String, DirEntry> = BTreeMap::new();
        for lp in m.low_dirs.iter().rev() {
            for e in self.fs.readdir(lp.as_str(), creds)? {
                if e.name.starts_with(WHITEOUT_PREFIX) {
                    continue;
                }
                merged.insert(e.name.clone(), e);
            }
        }
        if m.up_st.as_ref().map(|s| s.is_dir()).unwrap_or(false) {
            let ups = self.fs.readdir(m.up.as_str(), creds)?;
            for e in &ups {
                if let Some(hidden) = e.name.strip_prefix(WHITEOUT_PREFIX) {
                    merged.remove(hidden);
                }
            }
            for e in ups {
                if e.name.starts_with(WHITEOUT_PREFIX) {
                    continue;
                }
                merged.insert(e.name.clone(), e);
            }
        }
        Ok(merged.into_values().collect())
    }

    /// Watch this view's writes. Upper-layer paths are private to the
    /// view, so events here are exactly this view's mutations — per-view
    /// notification routing with no filtering layer.
    pub fn watch(&self, path: &str) -> WatchBuilder<'_> {
        let comps = squash(path).unwrap_or_default();
        let p = join_rest(&self.upper, &comps);
        self.fs.watch(p.as_str())
    }

    // ------------------------------------------------------------------
    // Copy-up machinery
    // ------------------------------------------------------------------

    /// Collect xattrs (minus the opaque marker) and the ACL of a layer
    /// object, probed as root: the caller already passed the overlay's
    /// permission checks, and copy-up must preserve metadata it could not
    /// necessarily read.
    fn copy_meta(&self, layer_path: &VPath) -> (Vec<(String, Vec<u8>)>, Option<Acl>) {
        let root = Credentials::root();
        let mut xattrs = Vec::new();
        if let Ok(names) = self.fs.list_xattr(layer_path.as_str(), &root) {
            for n in names {
                if n == OPAQUE_XATTR {
                    continue;
                }
                if let Ok(v) = self.fs.get_xattr(layer_path.as_str(), &n, &root) {
                    xattrs.push((n, v));
                }
            }
        }
        let acl = self.fs.get_acl(layer_path.as_str(), &root).unwrap_or(None);
        (xattrs, acl)
    }

    /// Require write+search permission on the *merged* directory at
    /// `dir` — the overlay-level permission gate for create/delete, the
    /// same check kernel overlayfs makes against the merged dir.
    fn require_dir_write(&self, dir: &VPath, creds: &Credentials) -> VfsResult<()> {
        let (p, st) = match self.walk(dir.as_str(), creds)? {
            Loc::Delegate(p, _) => {
                let st = self.fs.stat(p.as_str(), creds)?;
                (p, st)
            }
            Loc::Merged(m) => match m.visible() {
                Some((p, st)) if st.is_symlink() => {
                    let followed = self.fs.stat(p.as_str(), creds)?;
                    (p.clone(), followed)
                }
                Some((p, st)) => (p.clone(), st.clone()),
                None => return err(Errno::ENOENT, dir.as_str()),
            },
        };
        if !st.is_dir() {
            return err(Errno::ENOTDIR, dir.as_str());
        }
        let acl = self
            .fs
            .get_acl(p.as_str(), &Credentials::root())
            .unwrap_or(None);
        let ok = check_access(creds, st.uid, st.gid, st.mode, acl.as_ref(), Access::Write)
            && check_access(creds, st.uid, st.gid, st.mode, acl.as_ref(), Access::Exec);
        if ok {
            Ok(())
        } else {
            err(Errno::EACCES, dir.as_str())
        }
    }

    /// Plan `Mkdir` steps for every upper-chain directory missing along
    /// `comps`, each mirroring the visible lower directory's identity.
    /// Returns the upper path of the last component.
    fn plan_upper_chain(
        &self,
        comps: &[String],
        creds: &Credentials,
        ops: &mut Vec<BatchOp>,
    ) -> VfsResult<VPath> {
        let mut up = self.upper.clone();
        for i in 0..comps.len() {
            let sub = opath(&comps[..=i]);
            let m = match self.walk(sub.as_str(), creds)? {
                Loc::Merged(m) => m,
                Loc::Delegate(..) => return err(Errno::ENOTDIR, sub.as_str()),
            };
            up = m.up.clone();
            match &m.up_st {
                Some(st) if st.is_dir() => {}
                Some(_) => return err(Errno::ENOTDIR, sub.as_str()),
                None => {
                    let low = if m.wh { None } else { m.low.clone() };
                    let Some((lp, lst)) = low else {
                        return err(Errno::ENOENT, sub.as_str());
                    };
                    if !lst.is_dir() {
                        return err(Errno::ENOTDIR, sub.as_str());
                    }
                    let (xattrs, _) = self.copy_meta(&lp);
                    ops.push(BatchOp::Mkdir {
                        path: m.up.clone(),
                        mode: lst.mode,
                        uid: lst.uid,
                        gid: lst.gid,
                        xattrs,
                    });
                }
            }
        }
        Ok(up)
    }

    /// Make `path` writable in the upper layer and return its upper path:
    /// already-upper is a no-op, a lower object is copied up (directory
    /// chain + full content + metadata) in one atomic batch, symlinks are
    /// followed through the merged view. With `create`, an absent path is
    /// prepared for creation (parent chain + whiteout clearing) after a
    /// write-permission check on the merged parent.
    fn prepare_write(&self, path: &str, creds: &Credentials, create: bool) -> VfsResult<VPath> {
        self.prepare_write_hops(path, creds, create, 0)
    }

    fn prepare_write_hops(
        &self,
        path: &str,
        creds: &Credentials,
        create: bool,
        hops: u32,
    ) -> VfsResult<VPath> {
        if hops > MAX_OVERLAY_HOPS {
            return err(Errno::ELOOP, path);
        }
        let comps = squash(path)?;
        let m = match self.walk(path, creds)? {
            Loc::Delegate(p, true) => return Ok(p),
            Loc::Delegate(_, false) => return err(Errno::EROFS, path),
            Loc::Merged(m) => m,
        };
        if let Some(st) = &m.up_st {
            if st.is_symlink() {
                let target = self.fs.readlink(m.up.as_str(), creds)?;
                let next = self.resolve_link(&comps, &target);
                return self.prepare_write_hops(next.as_str(), creds, create, hops + 1);
            }
            return Ok(m.up);
        }
        let low = if m.wh { None } else { m.low.clone() };
        match low {
            Some((lp, lst)) if lst.is_symlink() => {
                let target = self.fs.readlink(lp.as_str(), creds)?;
                let next = self.resolve_link(&comps, &target);
                self.prepare_write_hops(next.as_str(), creds, create, hops + 1)
            }
            Some((_, lst)) if lst.is_dir() => {
                // Directory copy-up (chmod/chown/xattr on a lower dir).
                let mut ops = Vec::new();
                self.plan_upper_chain(&comps, creds, &mut ops)?;
                if !ops.is_empty() {
                    self.fs.apply_batch(&ops, creds, false)?;
                    self.counters.copy_ups.fetch_add(1, Ordering::Relaxed);
                }
                Ok(m.up)
            }
            Some((lp, lst)) => {
                // Regular-file copy-up: chain + content + metadata, one
                // transaction. Content always comes along so a crash
                // between copy-up and the caller's write leaves the view
                // exactly as it was.
                let mut ops = Vec::new();
                self.plan_upper_chain(&comps[..comps.len() - 1], creds, &mut ops)?;
                let data = self.fs.read_file(lp.as_str(), &Credentials::root())?;
                let (xattrs, acl) = self.copy_meta(&lp);
                ops.push(BatchOp::PutFile {
                    path: m.up.clone(),
                    data,
                    mode: lst.mode,
                    uid: lst.uid,
                    gid: lst.gid,
                    xattrs,
                    acl,
                });
                let rep = self.fs.apply_batch(&ops, creds, false)?;
                self.counters.copy_ups.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .copy_up_bytes
                    .fetch_add(rep.bytes, Ordering::Relaxed);
                Ok(m.up)
            }
            None => {
                if !create {
                    return err(Errno::ENOENT, path);
                }
                if comps.is_empty() {
                    return err(Errno::EEXIST, path);
                }
                let parent = &comps[..comps.len() - 1];
                self.require_dir_write(&opath(parent), creds)?;
                let mut ops = Vec::new();
                self.plan_upper_chain(parent, creds, &mut ops)?;
                if m.wh {
                    ops.push(BatchOp::Remove {
                        path: wh_path(&m.up),
                    });
                }
                if !ops.is_empty() {
                    self.fs.apply_batch(&ops, creds, false)?;
                }
                Ok(m.up)
            }
        }
    }

    /// Where a symlink at `comps` points, as an overlay path: absolute
    /// targets restart at the overlay root, relative ones resolve against
    /// the link's parent.
    fn resolve_link(&self, comps: &[String], target: &str) -> VPath {
        if target.starts_with('/') {
            VPath::new(target)
        } else {
            let parent = if comps.is_empty() {
                VPath::root()
            } else {
                opath(&comps[..comps.len() - 1])
            };
            parent.join_path(target)
        }
    }

    // ------------------------------------------------------------------
    // Write side
    // ------------------------------------------------------------------

    /// Open a file in the view. Write-ish flags trigger copy-up (or
    /// creation) first; the descriptor then addresses the upper file.
    pub fn open(&self, path: &str, flags: OpenFlags, creds: &Credentials) -> VfsResult<Fd> {
        if !(flags.write || flags.create || flags.truncate || flags.append) {
            let p = self.visible_path(path, creds)?;
            return self.fs.open(p.as_str(), flags, creds);
        }
        if flags.create && flags.excl && self.exists(path, creds) {
            return err(Errno::EEXIST, path);
        }
        let up = self.prepare_write(path, creds, flags.create)?;
        self.fs.open(up.as_str(), flags, creds)
    }

    /// Create-or-truncate a file with `data` (copy-up first when needed).
    pub fn write_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, true)?;
        self.fs.write_file(up.as_str(), data, creds)
    }

    /// Append to a file (copy-up first when needed).
    pub fn append_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, true)?;
        self.fs.append_file(up.as_str(), data, creds)
    }

    /// Truncate a file in the view.
    pub fn truncate(&self, path: &str, len: u64, creds: &Credentials) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, false)?;
        self.fs.truncate(up.as_str(), len, creds)
    }

    /// Change permission bits (copies the object up first).
    pub fn chmod(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, false)?;
        self.fs.chmod(up.as_str(), mode, creds)
    }

    /// Change ownership (copies the object up first).
    pub fn chown(
        &self,
        path: &str,
        uid: Option<Uid>,
        gid: Option<Gid>,
        creds: &Credentials,
    ) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, false)?;
        self.fs.chown(up.as_str(), uid, gid, creds)
    }

    /// Replace the ACL (copies the object up first).
    pub fn set_acl(&self, path: &str, acl: Option<Acl>, creds: &Credentials) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, false)?;
        self.fs.set_acl(up.as_str(), acl, creds)
    }

    /// Set an extended attribute (copies the object up first).
    pub fn set_xattr(
        &self,
        path: &str,
        name: &str,
        value: &[u8],
        creds: &Credentials,
    ) -> VfsResult<()> {
        let up = self.prepare_write(path, creds, false)?;
        self.fs.set_xattr(up.as_str(), name, value, creds)
    }

    /// Create a directory in the view. Over a whiteout, the new directory
    /// is marked opaque so the deleted lower contents stay hidden.
    pub fn mkdir(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let comps = squash(path)?;
        if comps.is_empty() {
            return err(Errno::EEXIST, path);
        }
        let m = match self.walk(path, creds)? {
            Loc::Delegate(p, true) => return self.fs.mkdir(p.as_str(), mode, creds),
            Loc::Delegate(_, false) => return err(Errno::EROFS, path),
            Loc::Merged(m) => m,
        };
        if m.visible().is_some() {
            return err(Errno::EEXIST, path);
        }
        let parent = &comps[..comps.len() - 1];
        self.require_dir_write(&opath(parent), creds)?;
        let mut ops = Vec::new();
        self.plan_upper_chain(parent, creds, &mut ops)?;
        let mut xattrs = Vec::new();
        if m.wh {
            ops.push(BatchOp::Remove {
                path: wh_path(&m.up),
            });
            xattrs.push((OPAQUE_XATTR.to_string(), b"y".to_vec()));
        }
        ops.push(BatchOp::Mkdir {
            path: m.up.clone(),
            mode,
            uid: creds.uid,
            gid: creds.gid,
            xattrs,
        });
        self.fs.apply_batch(&ops, creds, false)?;
        if m.wh {
            self.counters.opaques.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// `mkdir -p` through the view.
    pub fn mkdir_all(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()> {
        let comps = squash(path)?;
        for i in 0..comps.len() {
            let sub = opath(&comps[..=i]);
            match self.stat(sub.as_str(), creds) {
                Ok(st) if st.is_dir() => {}
                Ok(_) => return err(Errno::ENOTDIR, sub.as_str()),
                Err(_) => self.mkdir(sub.as_str(), mode, creds)?,
            }
        }
        Ok(())
    }

    /// Unlink a file or symlink: an upper object is removed, a lower one
    /// is hidden behind a whiteout — both in one transaction.
    pub fn unlink(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        let comps = squash(path)?;
        if comps.is_empty() {
            return err(Errno::EISDIR, path);
        }
        let m = match self.walk(path, creds)? {
            Loc::Delegate(p, true) => return self.fs.unlink(p.as_str(), creds),
            Loc::Delegate(_, false) => return err(Errno::EROFS, path),
            Loc::Merged(m) => m,
        };
        let Some((_, st)) = m.visible() else {
            return err(Errno::ENOENT, path);
        };
        if st.is_dir() {
            return err(Errno::EISDIR, path);
        }
        let parent = &comps[..comps.len() - 1];
        self.require_dir_write(&opath(parent), creds)?;
        let mut ops = Vec::new();
        if m.up_st.is_some() {
            ops.push(BatchOp::Remove { path: m.up.clone() });
        }
        if m.low.is_some() {
            self.plan_upper_chain(parent, creds, &mut ops)?;
            ops.push(BatchOp::PutFile {
                path: wh_path(&m.up),
                data: Vec::new(),
                mode: Mode(0o000),
                uid: creds.uid,
                gid: creds.gid,
                xattrs: Vec::new(),
                acl: None,
            });
        }
        self.fs.apply_batch(&ops, creds, false)?;
        if m.low.is_some() {
            self.counters.whiteouts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Remove an empty (in the merged view) directory.
    pub fn rmdir(&self, path: &str, creds: &Credentials) -> VfsResult<()> {
        let comps = squash(path)?;
        if comps.is_empty() {
            return err(Errno::EINVAL, path);
        }
        let m = match self.walk(path, creds)? {
            Loc::Delegate(p, true) => return self.fs.rmdir(p.as_str(), creds),
            Loc::Delegate(_, false) => return err(Errno::EROFS, path),
            Loc::Merged(m) => m,
        };
        let Some((_, st)) = m.visible() else {
            return err(Errno::ENOENT, path);
        };
        if !st.is_dir() {
            return err(Errno::ENOTDIR, path);
        }
        if !self.readdir(path, creds)?.is_empty() {
            return err(Errno::ENOTEMPTY, path);
        }
        let parent = &comps[..comps.len() - 1];
        self.require_dir_write(&opath(parent), creds)?;
        let mut ops = Vec::new();
        if m.up_st.is_some() {
            // The physical upper dir may still hold whiteouts; Remove is
            // a subtree remove, which clears them with the dir.
            ops.push(BatchOp::Remove { path: m.up.clone() });
        }
        if m.low.is_some() {
            self.plan_upper_chain(parent, creds, &mut ops)?;
            ops.push(BatchOp::PutFile {
                path: wh_path(&m.up),
                data: Vec::new(),
                mode: Mode(0o000),
                uid: creds.uid,
                gid: creds.gid,
                xattrs: Vec::new(),
                acl: None,
            });
        }
        self.fs.apply_batch(&ops, creds, false)?;
        if m.low.is_some() {
            self.counters.whiteouts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Create a symlink in the view.
    pub fn symlink(&self, target: &str, linkpath: &str, creds: &Credentials) -> VfsResult<()> {
        let comps = squash(linkpath)?;
        if comps.is_empty() {
            return err(Errno::EEXIST, linkpath);
        }
        let m = match self.walk(linkpath, creds)? {
            Loc::Delegate(p, true) => return self.fs.symlink(target, p.as_str(), creds),
            Loc::Delegate(_, false) => return err(Errno::EROFS, linkpath),
            Loc::Merged(m) => m,
        };
        if m.visible().is_some() {
            return err(Errno::EEXIST, linkpath);
        }
        let parent = &comps[..comps.len() - 1];
        self.require_dir_write(&opath(parent), creds)?;
        let mut ops = Vec::new();
        self.plan_upper_chain(parent, creds, &mut ops)?;
        if m.wh {
            ops.push(BatchOp::Remove {
                path: wh_path(&m.up),
            });
        }
        ops.push(BatchOp::PutSymlink {
            path: m.up.clone(),
            target: target.to_string(),
            uid: creds.uid,
            gid: creds.gid,
        });
        self.fs.apply_batch(&ops, creds, false)?;
        Ok(())
    }

    /// Rename within the view. Directories return `EXDEV` (as kernel
    /// overlayfs does without `redirect_dir`); files and symlinks are
    /// re-materialised at the destination and whiteouted at the source in
    /// one transaction, so the view never shows both or neither.
    pub fn rename(&self, from: &str, to: &str, creds: &Credentials) -> VfsResult<()> {
        let fc = squash(from)?;
        let tc = squash(to)?;
        if fc.is_empty() || tc.is_empty() {
            return err(Errno::EINVAL, from);
        }
        let fm = match self.walk(from, creds)? {
            Loc::Delegate(_, _) => return err(Errno::EXDEV, from),
            Loc::Merged(m) => m,
        };
        let (fp, fst) = match fm.visible() {
            Some((p, s)) => (p.clone(), s.clone()),
            None => return err(Errno::ENOENT, from),
        };
        if fc == tc {
            // POSIX: renaming a file onto itself succeeds and does nothing.
            return Ok(());
        }
        if fst.is_dir() {
            return err(Errno::EXDEV, from);
        }
        let tm = match self.walk(to, creds)? {
            Loc::Delegate(_, _) => return err(Errno::EXDEV, to),
            Loc::Merged(m) => m,
        };
        if let Some((_, tst)) = tm.visible() {
            if tst.is_dir() {
                return err(Errno::EISDIR, to);
            }
        }
        self.require_dir_write(&opath(&fc[..fc.len() - 1]), creds)?;
        self.require_dir_write(&opath(&tc[..tc.len() - 1]), creds)?;
        let mut ops = Vec::new();
        self.plan_upper_chain(&tc[..tc.len() - 1], creds, &mut ops)?;
        if tm.wh {
            ops.push(BatchOp::Remove {
                path: wh_path(&tm.up),
            });
        }
        if tm.up_st.is_some() {
            ops.push(BatchOp::Remove {
                path: tm.up.clone(),
            });
        }
        if fst.is_symlink() {
            let target = self.fs.readlink(fp.as_str(), creds)?;
            ops.push(BatchOp::PutSymlink {
                path: tm.up.clone(),
                target,
                uid: fst.uid,
                gid: fst.gid,
            });
        } else {
            let data = self.fs.read_file(fp.as_str(), &Credentials::root())?;
            let (xattrs, acl) = self.copy_meta(&fp);
            ops.push(BatchOp::PutFile {
                path: tm.up.clone(),
                data,
                mode: fst.mode,
                uid: fst.uid,
                gid: fst.gid,
                xattrs,
                acl,
            });
        }
        if fm.up_st.is_some() {
            ops.push(BatchOp::Remove {
                path: fm.up.clone(),
            });
        }
        if fm.low.is_some() {
            self.plan_upper_chain(&fc[..fc.len() - 1], creds, &mut ops)?;
            ops.push(BatchOp::PutFile {
                path: wh_path(&fm.up),
                data: Vec::new(),
                mode: Mode(0o000),
                uid: creds.uid,
                gid: creds.gid,
                xattrs: Vec::new(),
                acl: None,
            });
        }
        self.fs.apply_batch(&ops, creds, false)?;
        if fm.low.is_some() {
            self.counters.whiteouts.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Atomic view commit
    // ------------------------------------------------------------------

    /// Commit the staged upper layer into the (single) lower base tree
    /// and clear the upper layer, all as **one transaction**: upserts for
    /// upper objects, removals for whiteouts, opaque directories replace
    /// their base twins wholesale, and the upper layer's top-level entries
    /// are removed in the same batch. One `lock_all` acquisition is the
    /// linearization point; one journal `Commit` frame makes the whole
    /// thing replay all-or-nothing. Permissions are enforced against the
    /// base tree (`enforce = true`): a tenant can only commit what its
    /// credentials could have written directly — and a denial leaves both
    /// base and staging untouched.
    ///
    /// Committed files get fresh inodes (rename-commit semantics): open
    /// descriptors and watches on old base files keep the old objects.
    /// Requires exactly one lower layer (`EINVAL` otherwise).
    pub fn commit(&self, creds: &Credentials) -> VfsResult<CommitReport> {
        if self.lowers.len() != 1 {
            return err(Errno::EINVAL, self.upper.as_str());
        }
        let base = self.lowers[0].clone();
        let mut ops = Vec::new();
        let mut whiteouts = 0usize;
        self.plan_commit_dir(&VPath::root(), &base, creds, &mut ops, &mut whiteouts)?;
        let mut cleared = 0usize;
        if let Ok(entries) = self.fs.readdir(self.upper.as_str(), creds) {
            for e in entries {
                ops.push(BatchOp::Remove {
                    path: self.upper.join(&e.name),
                });
                cleared += 1;
            }
        }
        let rep: BatchReport = self.fs.apply_batch(&ops, creds, true)?;
        self.counters.commits.fetch_add(1, Ordering::Relaxed);
        self.counters
            .commit_records
            .fetch_add(rep.records as u64, Ordering::Relaxed);
        Ok(CommitReport {
            records: rep.records,
            bytes: rep.bytes,
            whiteouts,
            cleared,
        })
    }

    /// Recursively translate one upper directory into base-tree batch ops.
    fn plan_commit_dir(
        &self,
        rel: &VPath,
        base: &VPath,
        creds: &Credentials,
        ops: &mut Vec<BatchOp>,
        whiteouts: &mut usize,
    ) -> VfsResult<()> {
        let updir = rel
            .rebase(&VPath::root(), &self.upper)
            .unwrap_or_else(|| self.upper.clone());
        let basedir = rel
            .rebase(&VPath::root(), base)
            .unwrap_or_else(|| base.clone());
        let entries = match self.fs.readdir(updir.as_str(), creds) {
            Ok(e) => e,
            Err(e) if e.errno == Errno::ENOENT => return Ok(()), // empty staging
            Err(e) => return Err(e),
        };
        for e in entries {
            if let Some(hidden) = e.name.strip_prefix(WHITEOUT_PREFIX) {
                ops.push(BatchOp::Remove {
                    path: basedir.join(hidden),
                });
                *whiteouts += 1;
                continue;
            }
            let upath = updir.join(&e.name);
            let bpath = basedir.join(&e.name);
            let st = self.fs.lstat(upath.as_str(), creds)?;
            let bst = self.fs.lstat(bpath.as_str(), &Credentials::root()).ok();
            match e.file_type {
                FileType::Directory => {
                    let opaque = self.is_opaque(&upath, creds);
                    let base_is_dir = bst.as_ref().map(|s| s.is_dir()).unwrap_or(false);
                    if opaque || (bst.is_some() && !base_is_dir) {
                        ops.push(BatchOp::Remove {
                            path: bpath.clone(),
                        });
                    }
                    if opaque || !base_is_dir {
                        let (xattrs, _) = self.copy_meta(&upath);
                        ops.push(BatchOp::Mkdir {
                            path: bpath,
                            mode: st.mode,
                            uid: st.uid,
                            gid: st.gid,
                            xattrs,
                        });
                    }
                    self.plan_commit_dir(&rel.join(&e.name), base, creds, ops, whiteouts)?;
                }
                FileType::Regular => {
                    if bst.as_ref().map(|s| s.is_dir()).unwrap_or(false) {
                        ops.push(BatchOp::Remove {
                            path: bpath.clone(),
                        });
                    }
                    let data = self.fs.read_file(upath.as_str(), creds)?;
                    let (xattrs, acl) = self.copy_meta(&upath);
                    ops.push(BatchOp::PutFile {
                        path: bpath,
                        data,
                        mode: st.mode,
                        uid: st.uid,
                        gid: st.gid,
                        xattrs,
                        acl,
                    });
                }
                FileType::Symlink => {
                    if bst.is_some() {
                        ops.push(BatchOp::Remove {
                            path: bpath.clone(),
                        });
                    }
                    let target = self.fs.readlink(upath.as_str(), creds)?;
                    ops.push(BatchOp::PutSymlink {
                        path: bpath,
                        target,
                        uid: st.uid,
                        gid: st.gid,
                    });
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for Overlay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Overlay")
            .field("lowers", &self.lowers)
            .field("upper", &self.upper)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Filesystem>, Overlay, Credentials) {
        let fs = Arc::new(Filesystem::builder().shards(1).build());
        let root = Credentials::root();
        fs.mkdir_all("/base/sw1/flows", Mode::DIR_DEFAULT, &root)
            .unwrap();
        fs.write_file("/base/sw1/flows/f1", b"match=*;act=drop\n", &root)
            .unwrap();
        fs.write_file("/base/sw1/ver", b"1\n", &root).unwrap();
        let ov = Overlay::new(fs.clone(), &["/base"], "/views/t1");
        ov.ensure_upper(&root).unwrap();
        (fs, ov, root)
    }

    #[test]
    fn read_through_and_copy_up() {
        let (fs, ov, root) = setup();
        assert_eq!(ov.read_to_string("/sw1/ver", &root).unwrap(), "1\n");
        assert_eq!(ov.stats().copy_ups, 0);

        ov.write_file("/sw1/ver", b"2\n", &root).unwrap();
        assert_eq!(ov.stats().copy_ups, 1);
        // base untouched, view updated
        assert_eq!(fs.read_to_string("/base/sw1/ver", &root).unwrap(), "1\n");
        assert_eq!(ov.read_to_string("/sw1/ver", &root).unwrap(), "2\n");
        // the copied-up chain mirrors the base dirs
        assert!(fs.exists("/views/t1/sw1/ver", &root));
    }

    #[test]
    fn whiteout_hides_lower_and_merged_readdir() {
        let (fs, ov, root) = setup();
        ov.unlink("/sw1/flows/f1", &root).unwrap();
        assert_eq!(ov.stats().whiteouts, 1);
        assert!(!ov.exists("/sw1/flows/f1", &root));
        assert!(fs.exists("/base/sw1/flows/f1", &root));
        assert!(fs.exists("/views/t1/sw1/flows/.wh.f1", &root));
        // merged readdir: whiteout invisible, f1 hidden
        let names: Vec<String> = ov
            .readdir("/sw1/flows", &root)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.is_empty(), "{names:?}");
        // re-create over the whiteout
        ov.write_file("/sw1/flows/f1", b"new\n", &root).unwrap();
        assert_eq!(ov.read_to_string("/sw1/flows/f1", &root).unwrap(), "new\n");
        assert!(!fs.exists("/views/t1/sw1/flows/.wh.f1", &root));
    }

    #[test]
    fn opaque_dir_stops_merging() {
        let (_fs, ov, root) = setup();
        // delete the dir, then recreate it: must come back empty (opaque)
        ov.unlink("/sw1/flows/f1", &root).unwrap();
        ov.rmdir("/sw1/flows", &root).unwrap();
        assert!(!ov.exists("/sw1/flows", &root));
        ov.mkdir("/sw1/flows", Mode::DIR_DEFAULT, &root).unwrap();
        assert_eq!(ov.stats().opaques, 1);
        assert!(ov.readdir("/sw1/flows", &root).unwrap().is_empty());
    }

    #[test]
    fn whiteout_names_are_reserved() {
        let (_fs, ov, root) = setup();
        assert_eq!(
            ov.write_file("/sw1/.wh.x", b"no", &root).unwrap_err().errno,
            Errno::EINVAL
        );
        assert_eq!(
            ov.mkdir("/sw1/.wh.d", Mode::DIR_DEFAULT, &root)
                .unwrap_err()
                .errno,
            Errno::EINVAL
        );
    }

    #[test]
    fn rename_file_is_atomic_dirs_are_exdev() {
        let (_fs, ov, root) = setup();
        ov.rename("/sw1/flows/f1", "/sw1/flows/f2", &root).unwrap();
        assert!(!ov.exists("/sw1/flows/f1", &root));
        assert_eq!(
            ov.read_to_string("/sw1/flows/f2", &root).unwrap(),
            "match=*;act=drop\n"
        );
        assert_eq!(
            ov.rename("/sw1/flows", "/sw1/flows2", &root)
                .unwrap_err()
                .errno,
            Errno::EXDEV
        );
        // POSIX: self-rename is a successful no-op, never a delete.
        ov.rename("/sw1/flows/f2", "/sw1/flows/f2", &root).unwrap();
        assert_eq!(
            ov.read_to_string("/sw1/flows/f2", &root).unwrap(),
            "match=*;act=drop\n"
        );
        assert_eq!(
            ov.rename("/sw1/flows/nope", "/sw1/flows/nope", &root)
                .unwrap_err()
                .errno,
            Errno::ENOENT
        );
    }

    #[test]
    fn commit_is_atomic_and_clears_staging() {
        let (fs, ov, root) = setup();
        ov.write_file("/sw1/ver", b"2\n", &root).unwrap();
        ov.write_file("/sw1/flows/f9", b"match=ip;act=fwd\n", &root)
            .unwrap();
        ov.unlink("/sw1/flows/f1", &root).unwrap();
        let rep = ov.commit(&root).unwrap();
        assert!(rep.records > 0);
        assert_eq!(rep.whiteouts, 1);
        // base now shows the staged state
        assert_eq!(fs.read_to_string("/base/sw1/ver", &root).unwrap(), "2\n");
        assert!(fs.exists("/base/sw1/flows/f9", &root));
        assert!(!fs.exists("/base/sw1/flows/f1", &root));
        // staging cleared, view == base again
        assert!(fs.readdir("/views/t1", &root).unwrap().is_empty());
        assert_eq!(ov.read_to_string("/sw1/ver", &root).unwrap(), "2\n");
        assert_eq!(ov.stats().commits, 1);
    }

    #[test]
    fn commit_reports_a_removed_directory_as_rmdir_does() {
        use crate::notify::{EventKind, EventMask};
        let (fs, ov, root) = setup();
        ov.unlink("/sw1/flows/f1", &root).unwrap();
        ov.rmdir("/sw1/flows", &root).unwrap();
        let w = fs.watch("/base").subtree().mask(EventMask::ALL);
        let w = w.register().unwrap();
        ov.commit(&root).unwrap();
        // One batch step removes the directory; watchers still hear of
        // every object it held, children first.
        let seen: Vec<_> = w.receiver().try_iter().map(|e| (e.kind, e.path)).collect();
        let removed = [
            (EventKind::Delete, "/base/sw1/flows/f1"),
            (EventKind::DeleteSelf, "/base/sw1/flows"),
            (EventKind::Delete, "/base/sw1/flows"),
        ];
        assert_eq!(seen, removed.map(|(k, p)| (k, VPath::new(p))));
    }

    #[test]
    fn commit_enforces_base_permissions() {
        let (fs, ov, root) = setup();
        let tenant = Credentials::user(7, 7);
        // tenant owns its upper layer but not the base tree
        ov.ensure_upper(&tenant).unwrap();
        fs.chmod("/views/t1", Mode(0o755), &root).unwrap();
        // make base world-readable but not writable; let tenant stage
        fs.chmod("/base/sw1", Mode(0o755), &root).unwrap();
        fs.chmod("/base/sw1/ver", Mode(0o644), &root).unwrap();
        // staging works: copy-up into tenant-owned upper
        assert_eq!(
            ov.write_file("/sw1/newfile", b"x\n", &tenant)
                .unwrap_err()
                .errno,
            Errno::EACCES,
            "creating in a root-owned merged dir must be denied"
        );
        // stage a legal edit path: give tenant a writable base subdir
        fs.mkdir("/base/tenant7", Mode(0o755), &root).unwrap();
        fs.chown("/base/tenant7", Some(Uid(7)), Some(Gid(7)), &root)
            .unwrap();
        ov.write_file("/tenant7/cfg", b"a\n", &tenant).unwrap();
        // but also stage an illegal edit by writing into upper directly as
        // root (simulating a bypass attempt), then commit as tenant
        fs.mkdir_all("/views/t1/sw1", Mode::DIR_DEFAULT, &root)
            .unwrap();
        fs.write_file("/views/t1/sw1/ver", b"9\n", &root).unwrap();
        let e = ov.commit(&tenant).unwrap_err();
        assert_eq!(e.errno, Errno::EACCES);
        // denial left the base untouched — atomicity of the refusal
        assert_eq!(fs.read_to_string("/base/sw1/ver", &root).unwrap(), "1\n");
        assert!(!fs.exists("/base/tenant7/cfg", &root));
    }

    #[test]
    fn multi_lower_merging_and_priority() {
        let fs = Arc::new(Filesystem::builder().shards(1).build());
        let root = Credentials::root();
        fs.mkdir_all("/l0/d", Mode::DIR_DEFAULT, &root).unwrap();
        fs.mkdir_all("/l1/d", Mode::DIR_DEFAULT, &root).unwrap();
        fs.write_file("/l0/d/both", b"top\n", &root).unwrap();
        fs.write_file("/l1/d/both", b"bottom\n", &root).unwrap();
        fs.write_file("/l1/d/only1", b"deep\n", &root).unwrap();
        let ov = Overlay::new(fs.clone(), &["/l0", "/l1"], "/up");
        ov.ensure_upper(&root).unwrap();
        assert_eq!(ov.read_to_string("/d/both", &root).unwrap(), "top\n");
        assert_eq!(ov.read_to_string("/d/only1", &root).unwrap(), "deep\n");
        let names: Vec<String> = ov
            .readdir("/d", &root)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["both".to_string(), "only1".to_string()]);
        // commit requires a single lower
        assert_eq!(ov.commit(&root).unwrap_err().errno, Errno::EINVAL);
    }

    #[test]
    fn copy_up_charges_the_writer() {
        let (fs, ov, root) = setup();
        let tenant = Credentials::user(9, 9);
        fs.rctl().set_limits(
            9,
            crate::rctl::AppLimits {
                syscall_tokens: Some(10_000),
                ..Default::default()
            },
        );
        ov.ensure_upper(&tenant).unwrap();
        fs.chmod("/base/sw1/ver", Mode(0o666), &root).unwrap();
        fs.chmod("/base/sw1", Mode(0o777), &root).unwrap();
        fs.chmod("/base", Mode(0o777), &root).unwrap();
        let before = fs.rctl().usage(9).map(|u| u.charged).unwrap_or(0);
        ov.write_file("/sw1/ver", b"2\n", &tenant).unwrap();
        let after = fs.rctl().usage(9).map(|u| u.charged).unwrap_or(0);
        assert!(
            after > before,
            "copy-up syscalls must land on the writer's uid"
        );
    }
}
