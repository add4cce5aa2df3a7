use super::*;
use crate::acl::Acl;
use crate::counter::OpKind;
use crate::error::{err, Errno};
use crate::path::{NAME_MAX, PATH_MAX};
use crate::types::{Fd, OpenFlags};

fn fs() -> Filesystem {
    Filesystem::new()
}

fn root() -> Credentials {
    Credentials::root()
}

#[test]
fn root_exists_and_stats() {
    let f = fs();
    let st = f.stat("/", &root()).unwrap();
    assert!(st.is_dir());
    assert_eq!(st.ino, ROOT_INO);
    assert_eq!(st.nlink, 2);
}

#[test]
fn mkdir_and_readdir() {
    let f = fs();
    f.mkdir("/net", Mode::DIR_DEFAULT, &root()).unwrap();
    f.mkdir("/net/switches", Mode::DIR_DEFAULT, &root())
        .unwrap();
    let names: Vec<String> = f
        .readdir("/net", &root())
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["switches"]);
    assert!(f.stat("/net/switches", &root()).unwrap().is_dir());
}

#[test]
fn mkdir_errors() {
    let f = fs();
    f.mkdir("/a", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(
        f.mkdir("/a", Mode::DIR_DEFAULT, &root()).unwrap_err().errno,
        Errno::EEXIST
    );
    assert_eq!(
        f.mkdir("/missing/x", Mode::DIR_DEFAULT, &root())
            .unwrap_err()
            .errno,
        Errno::ENOENT
    );
    f.write_file("/a/f", b"x", &root()).unwrap();
    assert_eq!(
        f.mkdir("/a/f/sub", Mode::DIR_DEFAULT, &root())
            .unwrap_err()
            .errno,
        Errno::ENOTDIR
    );
}

#[test]
fn mkdir_all_idempotent() {
    let f = fs();
    f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
        .unwrap();
    assert!(f.stat("/net/switches/sw1/flows", &root()).unwrap().is_dir());
    f.write_file("/net/file", b"", &root()).unwrap();
    assert!(f
        .mkdir_all("/net/file/x", Mode::DIR_DEFAULT, &root())
        .is_err());
}

#[test]
fn file_write_read_roundtrip() {
    let f = fs();
    f.write_file("/hello", b"world", &root()).unwrap();
    assert_eq!(f.read_file("/hello", &root()).unwrap(), b"world");
    assert_eq!(f.read_to_string("/hello", &root()).unwrap(), "world");
    let st = f.stat("/hello", &root()).unwrap();
    assert!(st.is_file());
    assert_eq!(st.size, 5);
}

#[test]
fn append_and_truncate() {
    let f = fs();
    f.write_file("/log", b"a", &root()).unwrap();
    f.append_file("/log", b"b", &root()).unwrap();
    assert_eq!(f.read_file("/log", &root()).unwrap(), b"ab");
    f.truncate("/log", 1, &root()).unwrap();
    assert_eq!(f.read_file("/log", &root()).unwrap(), b"a");
    f.truncate("/log", 3, &root()).unwrap();
    assert_eq!(f.read_file("/log", &root()).unwrap(), b"a\0\0");
}

#[test]
fn open_flags_semantics() {
    let f = fs();
    f.write_file("/f", b"data", &root()).unwrap();
    // excl on existing file
    let mut fl = OpenFlags::write_create();
    fl.excl = true;
    assert_eq!(f.open("/f", fl, &root()).unwrap_err().errno, Errno::EEXIST);
    // read on missing file
    assert_eq!(
        f.open("/missing", OpenFlags::read_only(), &root())
            .unwrap_err()
            .errno,
        Errno::ENOENT
    );
    // writing via read-only handle
    let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
    assert_eq!(f.write(fd, b"x").unwrap_err().errno, Errno::EBADF);
    f.close(fd, &root()).unwrap();
    // reading via write-only handle
    let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
    assert_eq!(f.read(fd, 1).unwrap_err().errno, Errno::EBADF);
    f.close(fd, &root()).unwrap();
    // double close
    assert_eq!(f.close(fd, &root()).unwrap_err().errno, Errno::EBADF);
}

#[test]
fn partial_reads_and_seek() {
    let f = fs();
    f.write_file("/f", b"abcdef", &root()).unwrap();
    let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
    assert_eq!(f.read(fd, 2).unwrap(), b"ab");
    assert_eq!(f.read(fd, 2).unwrap(), b"cd");
    f.seek(fd, 1).unwrap();
    assert_eq!(f.read(fd, 100).unwrap(), b"bcdef");
    assert_eq!(f.read(fd, 10).unwrap(), b"");
    f.close(fd, &root()).unwrap();
}

#[test]
fn unlink_semantics() {
    let f = fs();
    f.write_file("/f", b"x", &root()).unwrap();
    f.unlink("/f", &root()).unwrap();
    assert!(!f.exists("/f", &root()));
    assert_eq!(f.unlink("/f", &root()).unwrap_err().errno, Errno::ENOENT);
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(f.unlink("/d", &root()).unwrap_err().errno, Errno::EISDIR);
}

/// `/` has no parent entry to re-check, so `unlink("/")` used to retry
/// forever; it must fail like any other directory, after its one charge.
#[test]
fn unlink_root_is_eisdir_after_one_charged_syscall() {
    for (shards, dcache, readpath) in [
        (8, true, true),
        (8, false, true),
        (8, true, false),
        (1, true, true),
        (1, false, false),
    ] {
        let f = Arc::new(
            Filesystem::builder()
                .shards(shards)
                .dcache(dcache)
                .readpath(readpath)
                .build(),
        );
        let ns = crate::Namespace::new(f.clone());
        let attempts: [&dyn Fn() -> VfsResult<()>; 3] = [
            &|| f.unlink("/", &root()),
            &|| f.unlink("/..", &root()),
            &|| ns.unlink("/", &root()),
        ];
        for unlink_root in attempts {
            let before = f.counters().snapshot();
            assert_eq!(unlink_root().unwrap_err().errno, Errno::EISDIR);
            let used = f.counters().snapshot().since(&before);
            assert_eq!((used.get(OpKind::Unlink), used.total()), (1, 1));
        }
    }
}

#[test]
fn unlink_while_open_keeps_content_until_close() {
    let f = fs();
    f.write_file("/f", b"keep", &root()).unwrap();
    let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
    f.unlink("/f", &root()).unwrap();
    assert!(!f.exists("/f", &root()));
    assert_eq!(f.read(fd, 10).unwrap(), b"keep");
    f.close(fd, &root()).unwrap();
}

#[test]
fn rmdir_requires_empty_without_hook() {
    let f = fs();
    f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(f.rmdir("/d", &root()).unwrap_err().errno, Errno::ENOTEMPTY);
    f.rmdir("/d/sub", &root()).unwrap();
    f.rmdir("/d", &root()).unwrap();
    assert!(!f.exists("/d", &root()));
    assert_eq!(f.rmdir("/", &root()).unwrap_err().errno, Errno::EINVAL);
}

struct RecursiveSwitches;
impl SemanticHook for RecursiveSwitches {
    fn rmdir_recursive(&self, path: &VPath) -> bool {
        path.as_str().starts_with("/switches/")
    }
}

#[test]
fn hook_makes_rmdir_recursive() {
    let f = fs();
    f.add_hook(Arc::new(RecursiveSwitches));
    f.mkdir_all("/switches/sw1/flows/f1", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.write_file("/switches/sw1/flows/f1/version", b"1", &root())
        .unwrap();
    f.rmdir("/switches/sw1", &root()).unwrap();
    assert!(!f.exists("/switches/sw1", &root()));
    // Non-hooked dirs keep POSIX semantics.
    f.mkdir_all("/other/sub", Mode::DIR_DEFAULT, &root())
        .unwrap();
    assert_eq!(
        f.rmdir("/other", &root()).unwrap_err().errno,
        Errno::ENOTEMPTY
    );
}

#[test]
fn symlink_readlink_and_follow() {
    let f = fs();
    f.mkdir_all("/a/b", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/a/b/file", b"via-link", &root()).unwrap();
    f.symlink("/a/b", "/lnk", &root()).unwrap();
    assert_eq!(f.readlink("/lnk", &root()).unwrap(), "/a/b");
    assert_eq!(f.read_file("/lnk/file", &root()).unwrap(), b"via-link");
    let st = f.lstat("/lnk", &root()).unwrap();
    assert!(st.is_symlink());
    let st2 = f.stat("/lnk", &root()).unwrap();
    assert!(st2.is_dir());
    assert_eq!(
        f.readlink("/a/b/file", &root()).unwrap_err().errno,
        Errno::EINVAL
    );
}

#[test]
fn dangling_symlink_and_loop() {
    let f = fs();
    f.symlink("/nowhere", "/dangling", &root()).unwrap();
    assert_eq!(
        f.stat("/dangling", &root()).unwrap_err().errno,
        Errno::ENOENT
    );
    assert!(f.lstat("/dangling", &root()).is_ok());
    f.symlink("/loop2", "/loop1", &root()).unwrap();
    f.symlink("/loop1", "/loop2", &root()).unwrap();
    assert_eq!(f.stat("/loop1", &root()).unwrap_err().errno, Errno::ELOOP);
}

#[test]
fn symlink_chain_resolves_at_exactly_max_hops_and_eloops_one_past() {
    let f = fs();
    f.write_file("/target", b"end", &root()).unwrap();
    f.symlink("/target", "/s1", &root()).unwrap();
    for i in 2..=(MAX_SYMLINK_HOPS + 1) {
        f.symlink(&format!("/s{}", i - 1), &format!("/s{i}"), &root())
            .unwrap();
    }
    // Resolving /sN traverses exactly N links: the bound is inclusive.
    assert_eq!(
        f.read_file(&format!("/s{MAX_SYMLINK_HOPS}"), &root())
            .unwrap(),
        b"end"
    );
    assert_eq!(
        f.stat(&format!("/s{}", MAX_SYMLINK_HOPS + 1), &root())
            .unwrap_err()
            .errno,
        Errno::ELOOP
    );
}

#[test]
fn relative_symlink_resolution() {
    let f = fs();
    f.mkdir_all("/net/switches/sw1/ports/p1", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.mkdir_all("/net/switches/sw2/ports/p2", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.write_file("/net/switches/sw2/ports/p2/status", b"up", &root())
        .unwrap();
    // peer -> ../../../sw2/ports/p2, relative to p1 (the dir holding the
    // link): p1 -> ports -> sw1 -> switches, then down into sw2.
    f.symlink(
        "../../../sw2/ports/p2",
        "/net/switches/sw1/ports/p1/peer",
        &root(),
    )
    .unwrap();
    assert_eq!(
        f.read_file("/net/switches/sw1/ports/p1/peer/status", &root())
            .unwrap(),
        b"up"
    );
    assert_eq!(
        f.canonicalize("/net/switches/sw1/ports/p1/peer", &root())
            .unwrap()
            .as_str(),
        "/net/switches/sw2/ports/p2"
    );
}

struct PortsOnly;
impl SemanticHook for PortsOnly {
    fn validate_symlink(&self, _fs: &Filesystem, path: &VPath, target: &str) -> VfsResult<()> {
        if path.file_name() == Some("peer") && !target.contains("/ports/") {
            return err(Errno::EINVAL, path.as_str());
        }
        Ok(())
    }
}

#[test]
fn hook_vetoes_bad_symlink() {
    let f = fs();
    f.add_hook(Arc::new(PortsOnly));
    f.mkdir_all("/sw/ports/p1", Mode::DIR_DEFAULT, &root())
        .unwrap();
    assert_eq!(
        f.symlink("/sw", "/sw/ports/p1/peer", &root())
            .unwrap_err()
            .errno,
        Errno::EINVAL
    );
    f.symlink("/sw/ports/p2", "/sw/ports/p1/peer", &root())
        .unwrap();
}

#[test]
fn hard_links_share_content() {
    let f = fs();
    f.write_file("/f", b"one", &root()).unwrap();
    f.link("/f", "/g", &root()).unwrap();
    assert_eq!(f.stat("/f", &root()).unwrap().nlink, 2);
    f.write_file("/g", b"two", &root()).unwrap();
    assert_eq!(f.read_file("/f", &root()).unwrap(), b"two");
    f.unlink("/f", &root()).unwrap();
    assert_eq!(f.read_file("/g", &root()).unwrap(), b"two");
    assert_eq!(f.stat("/g", &root()).unwrap().nlink, 1);
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(
        f.link("/d", "/d2", &root()).unwrap_err().errno,
        Errno::EPERM
    );
}

#[test]
fn rename_file_basic_and_replace() {
    let f = fs();
    f.write_file("/a", b"a", &root()).unwrap();
    f.rename("/a", "/b", &root()).unwrap();
    assert!(!f.exists("/a", &root()));
    assert_eq!(f.read_file("/b", &root()).unwrap(), b"a");
    f.write_file("/c", b"c", &root()).unwrap();
    f.rename("/c", "/b", &root()).unwrap();
    assert_eq!(f.read_file("/b", &root()).unwrap(), b"c");
}

#[test]
fn rename_dir_rules() {
    let f = fs();
    f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    // Cannot move a directory into its own subtree.
    assert_eq!(
        f.rename("/d", "/d/sub/d2", &root()).unwrap_err().errno,
        Errno::EINVAL
    );
    // dir onto non-empty dir fails
    f.mkdir_all("/e/x", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(
        f.rename("/d", "/e", &root()).unwrap_err().errno,
        Errno::ENOTEMPTY
    );
    // dir onto empty dir replaces
    f.mkdir("/empty", Mode::DIR_DEFAULT, &root()).unwrap();
    f.rename("/d", "/empty", &root()).unwrap();
    assert!(f.exists("/empty/sub", &root()));
    // file onto dir / dir onto file mismatches
    f.write_file("/file", b"", &root()).unwrap();
    assert_eq!(
        f.rename("/file", "/empty", &root()).unwrap_err().errno,
        Errno::EISDIR
    );
    assert_eq!(
        f.rename("/empty", "/file", &root()).unwrap_err().errno,
        Errno::ENOTDIR
    );
}

#[test]
fn rename_dir_across_parents_fixes_dotdot() {
    let f = fs();
    f.mkdir_all("/p1/d/inner", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.mkdir("/p2", Mode::DIR_DEFAULT, &root()).unwrap();
    f.rename("/p1/d", "/p2/d", &root()).unwrap();
    f.write_file("/p2/marker", b"m", &root()).unwrap();
    // `..` from the moved directory must now reach /p2.
    assert_eq!(f.read_file("/p2/d/../marker", &root()).unwrap(), b"m");
}

#[test]
fn permissions_enforced_for_non_root() {
    let f = fs();
    let alice = Credentials::user(1000, 1000);
    let bob = Credentials::user(1001, 1001);
    f.mkdir("/shared", Mode(0o777), &root()).unwrap();
    f.write_file("/shared/secret", b"s", &root()).unwrap();
    f.chown("/shared/secret", Some(Uid(1000)), Some(Gid(1000)), &root())
        .unwrap();
    f.chmod("/shared/secret", Mode(0o600), &root()).unwrap();
    assert_eq!(f.read_file("/shared/secret", &alice).unwrap(), b"s");
    assert_eq!(
        f.read_file("/shared/secret", &bob).unwrap_err().errno,
        Errno::EACCES
    );
    assert_eq!(
        f.write_file("/shared/secret", b"x", &bob)
            .unwrap_err()
            .errno,
        Errno::EACCES
    );
    // Directory exec required for traversal.
    f.mkdir("/locked", Mode(0o700), &root()).unwrap();
    f.write_file("/locked/f", b"", &root()).unwrap();
    assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
    // Directory write required for create.
    f.mkdir("/ro", Mode(0o755), &root()).unwrap();
    assert_eq!(
        f.write_file("/ro/new", b"", &bob).unwrap_err().errno,
        Errno::EACCES
    );
}

#[test]
fn chmod_chown_authorization() {
    let f = fs();
    let alice = Credentials::user(1000, 1000);
    let bob = Credentials::user(1001, 1001);
    f.write_file("/f", b"", &root()).unwrap();
    f.chown("/f", Some(Uid(1000)), Some(Gid(1000)), &root())
        .unwrap();
    f.chmod("/f", Mode(0o644), &alice).unwrap(); // owner may chmod
    assert_eq!(
        f.chmod("/f", Mode(0o777), &bob).unwrap_err().errno,
        Errno::EPERM
    );
    assert_eq!(
        f.chown("/f", Some(Uid(1001)), None, &bob)
            .unwrap_err()
            .errno,
        Errno::EPERM
    );
    // Owner may change group only to a group they belong to.
    let mut alice2 = alice.clone();
    alice2.groups.push(Gid(50));
    f.chown("/f", None, Some(Gid(50)), &alice2).unwrap();
    assert_eq!(
        f.chown("/f", None, Some(Gid(51)), &alice2)
            .unwrap_err()
            .errno,
        Errno::EPERM
    );
}

#[test]
fn acl_grants_beyond_mode() {
    let f = fs();
    let app = Credentials::user(2000, 2000);
    f.write_file("/flow", b"v", &root()).unwrap();
    f.chmod("/flow", Mode(0o600), &root()).unwrap();
    assert_eq!(f.read_file("/flow", &app).unwrap_err().errno, Errno::EACCES);
    let mut acl = Acl::new();
    acl.set_user(Uid(2000), 0o4);
    f.set_acl("/flow", Some(acl), &root()).unwrap();
    assert_eq!(f.read_file("/flow", &app).unwrap(), b"v");
    assert_eq!(
        f.write_file("/flow", b"w", &app).unwrap_err().errno,
        Errno::EACCES
    );
    assert!(f.get_acl("/flow", &root()).unwrap().is_some());
    f.set_acl("/flow", None, &root()).unwrap();
    assert_eq!(f.read_file("/flow", &app).unwrap_err().errno, Errno::EACCES);
}

#[test]
fn sticky_directory_restricts_deletion() {
    let f = fs();
    let alice = Credentials::user(1000, 1000);
    let bob = Credentials::user(1001, 1001);
    f.mkdir("/tmp", Mode(0o1777), &root()).unwrap();
    f.write_file("/tmp/af", b"", &alice).unwrap();
    assert_eq!(f.unlink("/tmp/af", &bob).unwrap_err().errno, Errno::EPERM);
    f.unlink("/tmp/af", &alice).unwrap();
}

#[test]
fn xattr_roundtrip() {
    let f = fs();
    f.write_file("/f", b"", &root()).unwrap();
    f.set_xattr("/f", "user.consistency", b"eventual", &root())
        .unwrap();
    assert_eq!(
        f.get_xattr("/f", "user.consistency", &root()).unwrap(),
        b"eventual"
    );
    assert_eq!(
        f.list_xattr("/f", &root()).unwrap(),
        vec!["user.consistency"]
    );
    f.remove_xattr("/f", "user.consistency", &root()).unwrap();
    assert_eq!(
        f.get_xattr("/f", "user.consistency", &root())
            .unwrap_err()
            .errno,
        Errno::ENODATA
    );
    assert_eq!(
        f.remove_xattr("/f", "user.consistency", &root())
            .unwrap_err()
            .errno,
        Errno::ENODATA
    );
}

#[test]
fn notify_create_modify_closewrite_delete() {
    let f = fs();
    f.mkdir_all("/net/flows", Mode::DIR_DEFAULT, &root())
        .unwrap();
    let w = f.watch("/net/flows").register().unwrap();
    f.write_file("/net/flows/f1", b"v", &root()).unwrap();
    f.unlink("/net/flows/f1", &root()).unwrap();
    let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::Create));
    assert!(kinds.contains(&EventKind::Modify));
    assert!(kinds.contains(&EventKind::CloseWrite));
    assert!(kinds.contains(&EventKind::Delete));
}

#[test]
fn an_empty_write_commits_only_through_a_truncating_open() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d/cmd", b"x\n", &root()).unwrap();
    let w = f.watch("/d").mask(EventMask::only(EventKind::CloseWrite));
    let w = w.register().unwrap();
    let commits = || w.receiver().try_iter().count();
    // `printf '' >> cmd`: no byte changes, nothing to commit.
    f.append_file("/d/cmd", b"", &root()).unwrap();
    assert_eq!(commits(), 0);
    // `: > cmd`: the open emptied the file, so close commits it.
    f.write_file("/d/cmd", b"", &root()).unwrap();
    assert_eq!(commits(), 1);
    assert_eq!(f.read_file("/d/cmd", &root()).unwrap(), b"");
}

#[test]
fn notify_rename_events() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d/a", b"", &root()).unwrap();
    let w = f.watch("/d").register().unwrap();
    f.rename("/d/a", "/d/b", &root()).unwrap();
    let kinds: Vec<(EventKind, Option<String>)> =
        w.receiver().try_iter().map(|e| (e.kind, e.name)).collect();
    assert!(kinds.contains(&(EventKind::MovedFrom, Some("a".into()))));
    assert!(kinds.contains(&(EventKind::MovedTo, Some("b".into()))));
}

#[test]
fn syscall_counting() {
    let f = fs();
    let before = f.counters().snapshot();
    f.write_file("/f", b"x", &root()).unwrap(); // open+write+close
    let d = f.counters().snapshot().since(&before);
    assert_eq!(d.get(OpKind::Open), 1);
    assert_eq!(d.get(OpKind::Write), 1);
    assert_eq!(d.get(OpKind::Close), 1);
    assert_eq!(d.total(), 3);
}

#[test]
fn limits_enforced() {
    let f = Filesystem::builder()
        .limits(Limits {
            max_file_size: 4,
            max_dir_entries: 2,
            max_open_files: 1,
        })
        .build();
    let r = root();
    assert_eq!(
        f.write_file("/big", b"12345", &r).unwrap_err().errno,
        Errno::ENOSPC
    );
    // The failed write still created the (empty) file — POSIX O_CREAT
    // succeeded before the write hit the size limit. Remove it so the
    // directory-entry quota test starts clean.
    f.unlink("/big", &r).unwrap();
    f.write_file("/a", b"1", &r).unwrap();
    f.write_file("/b", b"1", &r).unwrap();
    assert_eq!(
        f.write_file("/c", b"1", &r).unwrap_err().errno,
        Errno::EDQUOT
    );
    let fd = f.open("/a", OpenFlags::read_only(), &r).unwrap();
    assert_eq!(
        f.open("/b", OpenFlags::read_only(), &r).unwrap_err().errno,
        Errno::ENFILE
    );
    f.close(fd, &r).unwrap();
    // The entry cap binds every way a directory gains an entry, not just
    // create: symlink, hard link, and a cross-directory rename.
    assert_eq!(f.symlink("/a", "/s", &r).unwrap_err().errno, Errno::EDQUOT);
    assert_eq!(f.link("/a", "/l", &r).unwrap_err().errno, Errno::EDQUOT);
    f.unlink("/b", &r).unwrap();
    f.mkdir("/d", Mode::DIR_DEFAULT, &r).unwrap();
    f.write_file("/d/x", b"1", &r).unwrap();
    assert_eq!(f.rename("/d/x", "/y", &r).unwrap_err().errno, Errno::EDQUOT);
    // Renames that do not grow the full directory still work: within it,
    // and onto an entry it already holds.
    f.rename("/a", "/c", &r).unwrap();
    f.rename("/d/x", "/c", &r).unwrap();
    assert_eq!(f.readdir("/", &r).unwrap().len(), 2);
}

struct AutoPopulate;
impl SemanticHook for AutoPopulate {
    fn post_mkdir(&self, fs: &Filesystem, path: &VPath, creds: &Credentials) {
        if path.parent().as_str() == "/views" {
            for sub in ["hosts", "switches", "views"] {
                let _ = fs.mkdir(path.join(sub).as_str(), Mode::DIR_DEFAULT, creds);
            }
        }
    }
}

#[test]
fn post_mkdir_hook_autopopulates_without_recursing() {
    let f = fs();
    f.add_hook(Arc::new(AutoPopulate));
    f.mkdir("/views", Mode::DIR_DEFAULT, &root()).unwrap();
    f.mkdir("/views/v1", Mode::DIR_DEFAULT, &root()).unwrap();
    assert!(f.stat("/views/v1/hosts", &root()).unwrap().is_dir());
    assert!(f.stat("/views/v1/switches", &root()).unwrap().is_dir());
    assert!(f.stat("/views/v1/views", &root()).unwrap().is_dir());
    // The hook's own mkdirs didn't re-trigger (no /views/v1/views/hosts).
    assert!(!f.exists("/views/v1/views/hosts", &root()));
}

#[test]
fn dotdot_resolution() {
    let f = fs();
    f.mkdir_all("/a/b/c", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/a/marker", b"m", &root()).unwrap();
    assert_eq!(f.read_file("/a/b/c/../../marker", &root()).unwrap(), b"m");
    assert_eq!(f.read_file("/../../a/marker", &root()).unwrap(), b"m");
}

#[test]
fn canonicalize_resolves_chains() {
    let f = fs();
    f.mkdir_all("/real/dir", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.symlink("/real", "/l1", &root()).unwrap();
    f.symlink("/l1/dir", "/l2", &root()).unwrap();
    assert_eq!(
        f.canonicalize("/l2", &root()).unwrap().as_str(),
        "/real/dir"
    );
    assert!(f.canonicalize("/nope", &root()).is_err());
}

#[test]
fn proc_total_matches_counters_exactly() {
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    f.mkdir_all("/net/switches/sw1", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.write_file("/net/switches/sw1/hello", b"x", &root())
        .unwrap();
    let expect = f.counters().total();
    assert!(expect > 0);
    let got = f
        .read_to_string("/net/.proc/vfs/syscalls/total", &root())
        .unwrap();
    assert_eq!(got.trim().parse::<u64>().unwrap(), expect);
    // Reading the counter did not disturb it.
    assert_eq!(f.counters().total(), expect);
    // And re-reading reflects new activity but never the reads themselves.
    f.write_file("/net/switches/sw1/hello", b"y", &root())
        .unwrap();
    let expect2 = f.counters().total();
    assert!(expect2 > expect);
    let got2 = f
        .read_to_string("/net/.proc/vfs/syscalls/total", &root())
        .unwrap();
    assert_eq!(got2.trim().parse::<u64>().unwrap(), expect2);
}

#[test]
fn dcache_counters_pin_exactly_via_proc() {
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    f.mkdir_all("/d1/d2", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d1/d2/f", b"x", &root()).unwrap();
    let read = |name: &str| {
        f.read_to_string(&format!("/net/.proc/vfs/dcache/{name}"), &root())
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    // Warm every hop of the path once.
    f.stat("/d1/d2/f", &root()).unwrap();
    let (h0, m0, i0) = (read("hits"), read("misses"), read("invalidates"));
    // Ten fully-warm stats: three hits each (d1, d2, f), zero misses.
    for _ in 0..10 {
        f.stat("/d1/d2/f", &root()).unwrap();
    }
    assert_eq!(read("hits"), h0 + 30);
    assert_eq!(read("misses"), m0);
    // Reading the proc files themselves never disturbs the counters:
    // proc-covered resolution bypasses the cache.
    assert_eq!(read("hits"), h0 + 30);
    // An unlink bumps the parent's generation exactly once…
    f.unlink("/d1/d2/f", &root()).unwrap();
    assert_eq!(read("invalidates"), i0 + 1);
    // …so the next probe hits on d1/d2 but misses on the final
    // component and caches the ENOENT…
    let (m1, n0) = (read("misses"), read("negative"));
    assert_eq!(
        f.stat("/d1/d2/f", &root()).unwrap_err().errno,
        Errno::ENOENT
    );
    assert_eq!(read("misses"), m1 + 1);
    // …and the repeat probe is answered by the negative entry.
    assert_eq!(
        f.stat("/d1/d2/f", &root()).unwrap_err().errno,
        Errno::ENOENT
    );
    assert_eq!(read("negative"), n0 + 1);
    assert!(read("entries") > 0);
    assert_eq!(read("enabled"), 1);
}

#[test]
fn dcache_hits_revalidate_permissions_per_caller() {
    let f = fs();
    let bob = Credentials::user(1001, 1001);
    f.mkdir("/locked", Mode(0o700), &root()).unwrap();
    f.write_file("/locked/f", b"secret", &root()).unwrap();
    // Root's walk warms the (locked, f) entry…
    f.stat("/locked/f", &root()).unwrap();
    // …but a hit can never widen access: bob is re-checked and denied.
    assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
    // chmod bumps the generation, so the relaxed bits are seen at once…
    f.chmod("/locked", Mode(0o755), &root()).unwrap();
    f.stat("/locked/f", &bob).unwrap();
    f.stat("/locked/f", &root()).unwrap();
    // …and re-tightening is honoured on still-warm entries too.
    f.chmod("/locked", Mode(0o700), &root()).unwrap();
    assert_eq!(f.stat("/locked/f", &bob).unwrap_err().errno, Errno::EACCES);
    assert!(f.stat("/locked/f", &root()).is_ok());
}

#[test]
fn dcache_disabled_filesystem_resolves_identically() {
    let on = Filesystem::new();
    let off = Filesystem::builder().dcache(false).build();
    assert!(on.dcache_enabled());
    assert!(!off.dcache_enabled());
    for f in [&on, &off] {
        f.mkdir_all("/a/b", Mode::DIR_DEFAULT, &root()).unwrap();
        f.write_file("/a/b/f", b"v", &root()).unwrap();
        f.stat("/a/b/f", &root()).unwrap();
        f.stat("/a/b/f", &root()).unwrap();
        assert_eq!(
            f.stat("/a/b/nope", &root()).unwrap_err().errno,
            Errno::ENOENT
        );
        f.rename("/a/b/f", "/a/b/g", &root()).unwrap();
        assert_eq!(f.stat("/a/b/f", &root()).unwrap_err().errno, Errno::ENOENT);
        assert_eq!(f.read_file("/a/b/g", &root()).unwrap(), b"v");
    }
    // The disabled cache stayed completely inert.
    assert_eq!(off.dcache_stats(), DcacheStats::default());
    assert_eq!(off.dcache_entries(), 0);
    assert!(on.dcache_stats().hits > 0);
}

#[test]
fn dcache_rename_keeps_moved_subtree_warm_but_retires_old_entry() {
    let f = fs();
    f.mkdir_all("/top/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/top/sub/f", b"v", &root()).unwrap();
    f.stat("/top/sub/f", &root()).unwrap(); // warm
    f.rename("/top", "/newtop", &root()).unwrap();
    assert_eq!(
        f.stat("/top/sub/f", &root()).unwrap_err().errno,
        Errno::ENOENT
    );
    let before = f.dcache_stats();
    // The (top→sub) and (sub→f) hops are keyed by inode, not path:
    // they survive the rename of their ancestor.
    assert_eq!(f.read_file("/newtop/sub/f", &root()).unwrap(), b"v");
    let after = f.dcache_stats();
    assert!(after.hits >= before.hits + 2, "moved subtree went cold");
}

#[test]
fn proc_limits_expose_resolution_bounds() {
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    let read = |name: &str| {
        f.read_to_string(&format!("/net/.proc/vfs/limits/{name}"), &root())
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(read("max_symlink_hops"), u64::from(MAX_SYMLINK_HOPS));
    assert_eq!(read("path_max"), PATH_MAX as u64);
    assert_eq!(read("name_max"), NAME_MAX as u64);
    assert_eq!(read("link_max"), u64::from(LINK_MAX));
    assert_eq!(
        read("max_open_files"),
        Limits::default().max_open_files as u64
    );
}

#[test]
fn proc_mount_is_read_only() {
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    for e in [
        f.write_file("/net/.proc/vfs/syscalls/total", b"0", &root())
            .unwrap_err(),
        f.mkdir("/net/.proc/mine", Mode::DIR_DEFAULT, &root())
            .unwrap_err(),
        f.unlink("/net/.proc/vfs/syscalls/total", &root())
            .unwrap_err(),
        f.truncate("/net/.proc/vfs/syscalls/total", 0, &root())
            .unwrap_err(),
        f.rename("/net/.proc/vfs", "/net/.proc/ufs", &root())
            .unwrap_err(),
    ] {
        assert_eq!(e.errno, Errno::EROFS);
    }
    // Reads still work.
    assert!(f
        .read_to_string("/net/.proc/vfs/syscalls/total", &root())
        .is_ok());
}

#[test]
fn proc_refresh_is_silent_for_watchers() {
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    let w = f.watch("/net").subtree().register().unwrap();
    let _ = f
        .read_to_string("/net/.proc/vfs/syscalls/total", &root())
        .unwrap();
    assert_eq!(w.receiver().try_iter().count(), 0);
}

#[test]
fn proc_has_no_latency_rows() {
    // Time is measured by `benchmark/`, never modelled: the mount renders
    // counts only.
    let f = fs();
    f.mount_proc("/net/.proc").unwrap();
    f.write_file("/data", b"x", &root()).unwrap();
    for p in ["/net/.proc/vfs/latency", "/net/.proc/vfs/latency/write"] {
        assert_eq!(f.stat(p, &root()).unwrap_err().errno, Errno::ENOENT);
    }
}

#[test]
fn metrics_scope_appears_in_proc() {
    let f = fs();
    let scope = f.add_metrics_scope("net", "/net");
    f.mount_proc("/net/.proc").unwrap();
    f.mkdir_all("/net/switches", Mode::DIR_DEFAULT, &root())
        .unwrap();
    f.mkdir_all("/other", Mode::DIR_DEFAULT, &root()).unwrap();
    assert_eq!(scope.get(OpKind::Mkdir), 2); // /net/switches only
    let s = f
        .read_to_string("/net/.proc/scopes/net/total", &root())
        .unwrap();
    assert_eq!(s.trim().parse::<u64>().unwrap(), scope.total());
}

// ---- descriptor-relative I/O ----

#[test]
fn openat_resolves_relative_to_dir_descriptor() {
    let f = fs();
    f.mkdir_all("/net/switches/sw1/flows", Mode::DIR_DEFAULT, &root())
        .unwrap();
    let d = f.open_dir("/net/switches/sw1/flows", &root()).unwrap();
    let fd = f
        .openat(d, "f1", OpenFlags::write_create(), &root())
        .unwrap();
    f.write(fd, b"match=*").unwrap();
    f.close(fd, &root()).unwrap();
    assert_eq!(
        f.read_to_string("/net/switches/sw1/flows/f1", &root())
            .unwrap(),
        "match=*"
    );
    // Multi-component relative paths work too.
    f.mkdirat(d, "sub", Mode::DIR_DEFAULT, &root()).unwrap();
    let fd2 = f
        .openat(d, "sub/f2", OpenFlags::write_create(), &root())
        .unwrap();
    f.close(fd2, &root()).unwrap();
    assert!(f
        .stat("/net/switches/sw1/flows/sub/f2", &root())
        .unwrap()
        .is_file());
    f.close(d, &root()).unwrap();
}

#[test]
fn openat_rejects_absolute_rel_and_bad_fd() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    let d = f.open_dir("/d", &root()).unwrap();
    assert_eq!(
        f.openat(d, "/abs", OpenFlags::read_only(), &root())
            .unwrap_err()
            .errno,
        Errno::EINVAL
    );
    assert_eq!(
        f.openat(Fd(999_999), "x", OpenFlags::read_only(), &root())
            .unwrap_err()
            .errno,
        Errno::EBADF
    );
    // open_dir on a file / open on a dir keep their errnos.
    f.write_file("/d/f", b"x", &root()).unwrap();
    assert_eq!(
        f.open_dir("/d/f", &root()).unwrap_err().errno,
        Errno::ENOTDIR
    );
    assert_eq!(
        f.open("/d", OpenFlags::read_only(), &root())
            .unwrap_err()
            .errno,
        Errno::EISDIR
    );
}

#[test]
fn unlinkat_is_unlink_from_a_dir_descriptor() {
    let f = fs();
    f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d/a", b"x", &root()).unwrap();
    f.write_file("/d/sub/b", b"y", &root()).unwrap();
    let d = f.open_dir("/d", &root()).unwrap();
    let w = f.watch("/d").subtree().mask(EventMask::ALL);
    let w = w.register().unwrap();
    let before = f.counters().snapshot();
    f.unlinkat(d, "a", &root()).unwrap();
    f.unlinkat(d, "sub/b", &root()).unwrap();
    let cost = f.counters().snapshot().since(&before);
    assert_eq!((cost.total(), cost.get(OpKind::Unlink)), (2, 2));
    assert!(!f.exists("/d/a", &root()) && !f.exists("/d/sub/b", &root()));
    // The same events a path-addressed unlink emits, under the full path.
    let seen: Vec<_> = w.receiver().try_iter().map(|e| (e.kind, e.path)).collect();
    assert!(seen.contains(&(EventKind::Delete, VPath::new("/d/a"))));
    assert!(seen.contains(&(EventKind::Delete, VPath::new("/d/sub/b"))));
    // And the same errnos.
    let errno = |rel: &str| f.unlinkat(d, rel, &root()).unwrap_err().errno;
    assert_eq!(errno("a"), Errno::ENOENT);
    assert_eq!(errno("sub"), Errno::EISDIR);
    assert_eq!(errno("/d/sub"), Errno::EINVAL);
    assert_eq!(
        f.unlinkat(Fd(999_999), "a", &root()).unwrap_err().errno,
        Errno::EBADF
    );
    f.close(d, &root()).unwrap();
}

#[test]
fn read_batch_at_is_one_read_and_checks_what_openat_would() {
    let f = fs();
    f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d/a", b"x", &root()).unwrap();
    f.write_file("/d/sub/b", b"yz", &root()).unwrap();
    f.write_file("/d/empty", b"", &root()).unwrap();
    let d = f.open_dir("/d", &root()).unwrap();
    let (handles, before) = (f.open_handle_count(), f.counters().snapshot());
    let got = f.read_batch_at(d, &["a", "sub/b", "empty"], &root());
    assert_eq!(got.unwrap(), [b"x".to_vec(), b"yz".to_vec(), Vec::new()]);
    let cost = f.counters().snapshot().since(&before);
    assert_eq!((cost.total(), cost.get(OpKind::Read)), (1, 1));
    assert_eq!(f.open_handle_count(), handles, "no handle is created");
    // Fails fast, naming the entry that could not be read.
    let fail = |names: &[&str]| f.read_batch_at(d, names, &root()).unwrap_err();
    let e = fail(&["a", "gone", "sub/b"]);
    assert_eq!((e.errno, e.operand.as_str()), (Errno::ENOENT, "/d/gone"));
    assert_eq!(fail(&["sub"]).errno, Errno::EISDIR);
    assert_eq!(fail(&["/d/a"]).errno, Errno::EINVAL);
    // Read permission on the file, as `openat` + `read` would need.
    let alice = Credentials::user(1000, 1000);
    f.chmod("/d/a", Mode(0o600), &root()).unwrap();
    let da = f.open_dir("/d", &alice).unwrap();
    let e = f.read_batch_at(da, &["sub/b", "a"], &alice).unwrap_err();
    assert_eq!((e.errno, e.operand.as_str()), (Errno::EACCES, "/d/a"));
    assert_eq!(f.read_batch_at(da, &["sub/b"], &alice).unwrap(), [b"yz"]);
    assert_eq!(
        f.read_batch_at(Fd(999_999), &["a"], &root())
            .unwrap_err()
            .errno,
        Errno::EBADF
    );
    f.close(da, &alice).unwrap();
    f.close(d, &root()).unwrap();
}

#[test]
fn pread_pwrite_leave_offset_alone() {
    let f = fs();
    f.write_file("/f", b"abcdef", &root()).unwrap();
    let fd = f
        .open(
            "/f",
            OpenFlags {
                read: true,
                write: true,
                ..OpenFlags::read_only()
            },
            &root(),
        )
        .unwrap();
    assert_eq!(f.pread(fd, 2, 3).unwrap(), b"cde");
    f.pwrite(fd, 4, b"XY").unwrap();
    // Sequential read still starts at offset 0.
    assert_eq!(f.read(fd, 6).unwrap(), b"abcdXY");
    // pread past EOF is a short read, not an error.
    assert_eq!(f.pread(fd, 100, 4).unwrap(), b"");
    f.close(fd, &root()).unwrap();
}

#[test]
fn readv_writev_charge_one_syscall_each() {
    let f = fs();
    let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
    let before = f.counters().snapshot();
    f.writev(fd, &[b"ab", b"cd", b"ef"]).unwrap();
    let after = f.counters().snapshot();
    assert_eq!(after.since(&before).get(OpKind::Write), 1);
    assert_eq!(after.since(&before).total(), 1);
    f.close(fd, &root()).unwrap();

    let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
    let before = f.counters().snapshot();
    let segs = f.readv(fd, &[2, 2, 4]).unwrap();
    let after = f.counters().snapshot();
    assert_eq!(after.since(&before).get(OpKind::Read), 1);
    assert_eq!(after.since(&before).total(), 1);
    assert_eq!(segs, vec![b"ab".to_vec(), b"cd".to_vec(), b"ef".to_vec()]);
    f.close(fd, &root()).unwrap();
}

#[test]
fn fstat_follows_the_inode() {
    let f = fs();
    f.write_file("/f", b"abc", &root()).unwrap();
    let fd = f.open("/f", OpenFlags::read_only(), &root()).unwrap();
    let st = f.fstat(fd).unwrap();
    assert!(st.is_file());
    assert_eq!(st.size, 3);
    // Rename does not disturb the descriptor.
    f.rename("/f", "/g", &root()).unwrap();
    assert_eq!(f.fstat(fd).unwrap().ino, st.ino);
    f.close(fd, &root()).unwrap();
    assert_eq!(f.fstat(fd).unwrap_err().errno, Errno::EBADF);
}

#[test]
fn fsync_commits_without_close() {
    let f = fs();
    let w = f
        .watch("/")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let fd = f.open("/f", OpenFlags::write_create(), &root()).unwrap();
    f.write(fd, b"v1").unwrap();
    let _ = w.receiver().try_iter().count();
    f.fsync(fd, &root()).unwrap();
    let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EventKind::CloseWrite), "got {kinds:?}");
    // A second fsync with no intervening write is silent...
    f.fsync(fd, &root()).unwrap();
    assert_eq!(w.receiver().try_iter().count(), 0);
    // ...and close after fsync does not re-fire CloseWrite.
    f.close(fd, &root()).unwrap();
    let kinds: Vec<EventKind> = w.receiver().try_iter().map(|e| e.kind).collect();
    assert!(!kinds.contains(&EventKind::CloseWrite), "got {kinds:?}");
}

#[test]
fn readdir_fd_and_dirfd_survive_sibling_churn() {
    let f = fs();
    f.mkdir_all("/d/sub", Mode::DIR_DEFAULT, &root()).unwrap();
    f.write_file("/d/a", b"", &root()).unwrap();
    let d = f.open_dir("/d", &root()).unwrap();
    let names: Vec<String> = f
        .readdir_fd(d)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, vec!["a", "sub"]);
    f.write_file("/d/b", b"", &root()).unwrap();
    assert_eq!(f.readdir_fd(d).unwrap().len(), 3);
    f.close(d, &root()).unwrap();
}

#[test]
fn readdir_fd_ordering_is_deterministic_regardless_of_insert_order() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    // Insert in scrambled order; listings must come back sorted.
    for name in ["zeta", "alpha", "mike", "bravo", "yankee", "charlie"] {
        f.write_file(&format!("/d/{name}"), b"", &root()).unwrap();
    }
    let d = f.open_dir("/d", &root()).unwrap();
    let names: Vec<String> = f
        .readdir_fd(d)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(
        names,
        vec!["alpha", "bravo", "charlie", "mike", "yankee", "zeta"]
    );
    // Re-reading the same fd is stable.
    let again: Vec<String> = f
        .readdir_fd(d)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert_eq!(names, again);
    f.close(d, &root()).unwrap();
}

#[test]
fn readdir_fd_reflects_create_and_unlink_churn_between_reads() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    for name in ["a", "b", "c"] {
        f.write_file(&format!("/d/{name}"), b"", &root()).unwrap();
    }
    let d = f.open_dir("/d", &root()).unwrap();
    let list = |fd| -> Vec<String> {
        f.readdir_fd(fd)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect()
    };
    assert_eq!(list(d), vec!["a", "b", "c"]);
    // Churn between reads on the same open fd: listings are live.
    f.unlink("/d/b", &root()).unwrap();
    f.write_file("/d/d", b"", &root()).unwrap();
    assert_eq!(list(d), vec!["a", "c", "d"]);
    f.unlink("/d/a", &root()).unwrap();
    f.unlink("/d/c", &root()).unwrap();
    f.unlink("/d/d", &root()).unwrap();
    assert_eq!(list(d), Vec::<String>::new());
    // The fd itself is still a valid handle after its last entry went.
    f.write_file("/d/e", b"", &root()).unwrap();
    assert_eq!(list(d), vec!["e"]);
    f.close(d, &root()).unwrap();
}

#[test]
fn rmdir_then_dir_descriptor_ops_fail_cleanly() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    let d = f.open_dir("/d", &root()).unwrap();
    // A directory descriptor is not a byte stream: every read form says
    // `EISDIR`, sequential and positional alike.
    assert_eq!(f.read(d, 4).unwrap_err().errno, Errno::EISDIR);
    assert_eq!(f.pread(d, 0, 4).unwrap_err().errno, Errno::EISDIR);
    f.rmdir("/d", &root()).unwrap();
    assert_eq!(
        f.openat(d, "x", OpenFlags::write_create(), &root())
            .unwrap_err()
            .errno,
        Errno::ENOENT
    );
    assert_eq!(f.readdir_fd(d).unwrap_err().errno, Errno::ENOENT);
    f.close(d, &root()).unwrap(); // closing the dangling descriptor is fine
}

#[test]
fn write_batch_at_is_one_syscall_and_commits_each_entry() {
    let f = fs();
    f.mkdir_all("/flows", Mode::DIR_DEFAULT, &root()).unwrap();
    let d = f.open_dir("/flows", &root()).unwrap();
    let w = f
        .watch("/flows")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let before = f.counters().snapshot();
    let n = f
        .write_batch_at(
            d,
            &[("f1", b"p=1".as_slice()), ("f2", b"p=2"), ("f1", b"p=9")],
            &root(),
        )
        .unwrap();
    let diff = f.counters().snapshot().since(&before);
    assert_eq!(n, 3);
    assert_eq!(diff.get(OpKind::Write), 1);
    assert_eq!(diff.total(), 1);
    assert_eq!(f.read_to_string("/flows/f1", &root()).unwrap(), "p=9");
    assert_eq!(f.read_to_string("/flows/f2", &root()).unwrap(), "p=2");
    let evs: Vec<(EventKind, String)> = w
        .receiver()
        .try_iter()
        .map(|e| (e.kind, e.path.as_str().to_owned()))
        .collect();
    // Every entry committed: two Creates and three CloseWrites.
    assert_eq!(
        evs.iter().filter(|(k, _)| *k == EventKind::Create).count(),
        2
    );
    assert_eq!(
        evs.iter()
            .filter(|(k, _)| *k == EventKind::CloseWrite)
            .count(),
        3
    );
    f.close(d, &root()).unwrap();
}

#[test]
fn fd_table_reports_per_uid_descriptors() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    f.chmod("/d", Mode(0o777), &root()).unwrap();
    let alice = Credentials::user(7, 7);
    f.write_file("/d/a", b"x", &root()).unwrap();
    f.chmod("/d/a", Mode(0o666), &root()).unwrap();
    let fd = f.open("/d/a", OpenFlags::read_only(), &alice).unwrap();
    let table = f.fd_table(Uid(7));
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].fd, fd.0);
    assert_eq!(table[0].path, "/d/a");
    assert!(table[0].read && !table[0].write);
    assert!(f.fd_table(Uid(8)).is_empty());
    f.close(fd, &alice).unwrap();
    assert!(f.fd_table(Uid(7)).is_empty());
}

#[test]
fn watch_guard_unwatches_on_drop_and_forget_detaches() {
    let f = fs();
    f.mkdir("/d", Mode::DIR_DEFAULT, &root()).unwrap();
    {
        let w = f.watch("/d").register().unwrap();
        f.write_file("/d/f", b"x", &root()).unwrap();
        assert!(w.ready());
    } // dropped: unwatched
    assert_eq!(f.notify().watch_count(), 0);
    let (id, rx) = f.watch("/d").register().unwrap().forget();
    f.write_file("/d/g", b"x", &root()).unwrap();
    assert!(rx.try_iter().count() > 0);
    f.notify().unwatch(id);
}
