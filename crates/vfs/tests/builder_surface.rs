//! Pins the whole public surface of `Filesystem`, `FsBuilder`,
//! `WatchBuilder` and `WatchGuard`, so "public-API delta = 0" across a
//! refactor is a test, and so future feature flags extend [`FsBuilder`]
//! instead of adding a constructor.
//!
//! Same `cargo public-api`-style technique as `libyanc/tests/api_surface.rs`:
//! the crate source is parsed textually for the first line of every
//! `pub fn` inside each type's inherent `impl` blocks (wherever they live:
//! the `fs/` modules and `journal.rs`) and compared against an explicit
//! allowlist. Behavioural half: each builder switch must actually reach
//! the built filesystem.

use std::collections::BTreeSet;

use yanc_vfs::{Filesystem, Limits};

/// Every file that holds an inherent `impl` of a pinned type.
const SOURCES: &[&str] = &[
    include_str!("../src/fs/mod.rs"),
    include_str!("../src/fs/account.rs"),
    include_str!("../src/fs/walk.rs"),
    include_str!("../src/fs/io.rs"),
    include_str!("../src/fs/attr.rs"),
    include_str!("../src/fs/tree.rs"),
    include_str!("../src/fs/procfs.rs"),
    include_str!("../src/fs/check.rs"),
    include_str!("../src/journal.rs"),
];

/// The pinned surfaces. Adding a method is fine — extend the list;
/// removing or changing a signature must update this test in the same PR.
const EXPECTED_BUILDER_FNS: &[&str] = &[
    "pub fn limits(mut self, limits: Limits) -> Self",
    "pub fn shards(mut self, shards: usize) -> Self",
    "pub fn dcache(mut self, enabled: bool) -> Self",
    "pub fn readpath(mut self, enabled: bool) -> Self",
    "pub fn journal(mut self, enabled: bool) -> Self",
    "pub fn build(self) -> Filesystem",
];

const EXPECTED_WATCH_BUILDER_FNS: &[&str] = &[
    "pub fn subtree(mut self) -> Self",
    "pub fn mask(mut self, mask: EventMask) -> Self",
    "pub fn named(mut self, name: &str) -> Self",
    "pub fn as_creds(mut self, creds: &Credentials) -> Self",
    "pub fn as_uid(self, uid: u32) -> Self",
    "pub fn register(self) -> VfsResult<WatchGuard>",
];

const EXPECTED_WATCH_GUARD_FNS: &[&str] = &[
    "pub fn id(&self) -> WatchId",
    "pub fn receiver(&self) -> &Receiver<Event>",
    "pub fn ready(&self) -> bool",
    "pub fn forget(self) -> (WatchId, Receiver<Event>)",
];

/// Recorded from the commit before `fs.rs` was split (multi-line
/// signatures are pinned by their first line).
const EXPECTED_FILESYSTEM_FNS: &[&str] = &[
    "pub fn new() -> Self",
    "pub fn builder() -> FsBuilder",
    "pub fn dcache_stats(&self) -> DcacheStats",
    "pub fn dcache_enabled(&self) -> bool",
    "pub fn dcache_entries(&self) -> usize",
    "pub fn inode_table_reads(&self) -> u64",
    "pub fn lock_acquisitions(&self) -> u64",
    "pub fn readpath_stats(&self) -> ReadPathStats",
    "pub fn readpath_enabled(&self) -> bool",
    "pub fn shard_count(&self) -> usize",
    "pub fn counters(&self) -> &SyscallCounters",
    "pub fn add_metrics_scope(&self, name: &str, prefix: &str) -> Arc<SyscallCounters>",
    "pub fn notify(&self) -> &NotifyHub",
    "pub fn proc(&self) -> &ProcRegistry",
    "pub fn add_hook(&self, hook: Arc<dyn SemanticHook>)",
    "pub fn watch(&self, path: &str) -> WatchBuilder<'_>",
    "pub fn unwatch(&self, id: WatchId) -> bool",
    "pub fn rctl(&self) -> &Arc<RctlTable>",
    "pub fn set_app_limits(&self, uid: Uid, limits: AppLimits)",
    "pub fn clear_app_limits(&self, uid: Uid)",
    "pub fn open_handle_count(&self) -> usize",
    "pub fn handles_of(&self, uid: Uid) -> usize",
    "pub fn reclaim(&self, uid: Uid) -> ReclaimReport",
    "pub fn poll_create(&self, creds: &Credentials) -> PollSet",
    "pub fn fd_table(&self, uid: Uid) -> Vec<FdInfo>",
    "pub fn mount_proc(&self, prefix: &str) -> VfsResult<()>",
    "pub fn proc_file<F>(&self, path: &str, render: F) -> VfsResult<()>",
    "pub fn stat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat>",
    "pub fn lstat(&self, path: &str, creds: &Credentials) -> VfsResult<FileStat>",
    "pub fn exists(&self, path: &str, creds: &Credentials) -> bool",
    "pub fn canonicalize(&self, path: &str, creds: &Credentials) -> VfsResult<VPath>",
    "pub fn chmod(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()>",
    "pub fn chown(",
    "pub fn set_acl(&self, path: &str, acl: Option<Acl>, creds: &Credentials) -> VfsResult<()>",
    "pub fn get_acl(&self, path: &str, creds: &Credentials) -> VfsResult<Option<Acl>>",
    "pub fn set_xattr(",
    "pub fn get_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<Vec<u8>>",
    "pub fn list_xattr(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<String>>",
    "pub fn remove_xattr(&self, path: &str, name: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn mkdir(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()>",
    "pub fn mkdirat(&self, dir: Fd, rel: &str, mode: Mode, creds: &Credentials) -> VfsResult<()>",
    "pub fn mkdir_all(&self, path: &str, mode: Mode, creds: &Credentials) -> VfsResult<()>",
    "pub fn rmdir(&self, path: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn readdir(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<DirEntry>>",
    "pub fn symlink(&self, target: &str, linkpath: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn readlink(&self, path: &str, creds: &Credentials) -> VfsResult<String>",
    "pub fn link(&self, existing: &str, newpath: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn unlink(&self, path: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn unlinkat(&self, dir: Fd, rel: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn rename(&self, from: &str, to: &str, creds: &Credentials) -> VfsResult<()>",
    "pub fn open(&self, path: &str, flags: OpenFlags, creds: &Credentials) -> VfsResult<Fd>",
    "pub fn open_dir(&self, path: &str, creds: &Credentials) -> VfsResult<Fd>",
    "pub fn openat(",
    "pub fn openat_dir(&self, dir: Fd, rel: &str, creds: &Credentials) -> VfsResult<Fd>",
    "pub fn read(&self, fd: Fd, len: usize) -> VfsResult<Vec<u8>>",
    "pub fn write(&self, fd: Fd, data: &[u8]) -> VfsResult<usize>",
    "pub fn seek(&self, fd: Fd, offset: u64) -> VfsResult<u64>",
    "pub fn close(&self, fd: Fd, creds: &Credentials) -> VfsResult<()>",
    "pub fn pread(&self, fd: Fd, offset: u64, len: usize) -> VfsResult<Vec<u8>>",
    "pub fn pwrite(&self, fd: Fd, offset: u64, data: &[u8]) -> VfsResult<usize>",
    "pub fn readv(&self, fd: Fd, lens: &[usize]) -> VfsResult<Vec<Vec<u8>>>",
    "pub fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> VfsResult<usize>",
    "pub fn fstat(&self, fd: Fd) -> VfsResult<FileStat>",
    "pub fn fsync(&self, fd: Fd, creds: &Credentials) -> VfsResult<()>",
    "pub fn readdir_fd(&self, fd: Fd) -> VfsResult<Vec<DirEntry>>",
    "pub fn write_batch_at(",
    "pub fn read_batch_at(",
    "pub fn truncate(&self, path: &str, len: u64, creds: &Credentials) -> VfsResult<()>",
    "pub fn read_file(&self, path: &str, creds: &Credentials) -> VfsResult<Vec<u8>>",
    "pub fn read_to_string(&self, path: &str, creds: &Credentials) -> VfsResult<String>",
    "pub fn write_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()>",
    "pub fn append_file(&self, path: &str, data: &[u8], creds: &Credentials) -> VfsResult<()>",
    "pub fn check_invariants(&self) -> Result<FsCheckReport, String>",
    "pub fn enable_journal(&self)",
    "pub fn journal_enabled(&self) -> bool",
    "pub fn journal_snapshot(&self)",
    "pub fn set_journal_snapshot_every(&self, every: u64)",
    "pub fn journal_maybe_snapshot(&self) -> bool",
    "pub fn journal_compact(&self) -> u64",
    "pub fn journal_bytes(&self) -> Vec<u8>",
    "pub fn journal_stats(&self) -> JournalStats",
    "pub fn tree_digest(&self) -> u64",
    "pub fn content_digest(&self) -> u64",
    "pub fn restore_from_journal(",
];

/// The first line of every `pub fn` inside `impl <ty>` / `impl <ty><..>`
/// blocks (trait impls excluded), normalized.
fn surface_of(ty: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for src in SOURCES {
        let mut inside = false;
        for line in src.lines() {
            if let Some(head) = line.strip_prefix("impl") {
                let target = head
                    .trim_start_matches(|c: char| c != ' ') // generics on `impl<..>`
                    .trim_start();
                inside = !head.contains(" for ")
                    && target
                        .strip_prefix(ty)
                        .is_some_and(|rest| rest.starts_with([' ', '<', '{']));
            } else if line.starts_with('}') {
                inside = false;
            } else if inside && line.starts_with("    pub fn ") {
                out.insert(line.trim().trim_end_matches('{').trim().to_string());
            }
        }
    }
    out
}

fn assert_pinned(ty: &str, expected: &[&str]) {
    let got = surface_of(ty);
    let want: BTreeSet<String> = expected.iter().map(|s| s.to_string()).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{ty} surface drifted.\nmissing (pinned but absent): {missing:#?}\nextra (present but unpinned): {extra:#?}"
    );
}

#[test]
fn builder_surface_is_pinned() {
    assert_pinned("FsBuilder", EXPECTED_BUILDER_FNS);
}

#[test]
fn filesystem_and_watch_surfaces_are_pinned() {
    assert_pinned("Filesystem", EXPECTED_FILESYSTEM_FNS);
    assert_pinned("WatchBuilder", EXPECTED_WATCH_BUILDER_FNS);
    assert_pinned("WatchGuard", EXPECTED_WATCH_GUARD_FNS);
}

#[test]
fn builder_switches_reach_the_built_filesystem() {
    // Defaults match Filesystem::new().
    let d = Filesystem::builder().build();
    assert!(d.dcache_enabled());
    assert!(d.readpath_enabled());
    assert!(!d.journal_enabled());

    let fs = Filesystem::builder()
        .shards(1)
        .dcache(false)
        .readpath(false)
        .journal(true)
        .build();
    assert_eq!(fs.shard_count(), 1);
    assert!(!fs.dcache_enabled());
    assert!(!fs.readpath_enabled());
    assert!(
        fs.journal_enabled(),
        "journal(true) must enable the journal at build time"
    );
    // The anchor snapshot of the empty tree was captured: mutations from
    // the very first one on are replayable.
    assert!(fs.journal_stats().snapshots >= 1);

    let tight = Filesystem::builder()
        .limits(Limits {
            max_file_size: 3,
            max_dir_entries: 64,
            max_open_files: 64,
        })
        .build();
    let root = yanc_vfs::Credentials::root();
    assert!(tight.write_file("/big", b"oversized", &root).is_err());
    assert!(tight.write_file("/ok", b"ok", &root).is_ok());
}
