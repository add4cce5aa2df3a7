//! The `/net/.proc` introspection tree from the outside: exactness of the
//! counters as seen through the shell (the acceptance check), read-only
//! enforcement at the tool level, and namespace visibility — a chrooted
//! view cannot see `.proc` unless it is explicitly bind-granted.

use yanc_coreutils::Shell;
use yanc_driver::Runtime;
use yanc_openflow::Version;
use yanc_vfs::{Credentials, Errno, Namespace};

fn runtime_with_proc() -> Runtime {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
    rt.pump().unwrap();
    rt.enable_introspection().unwrap();
    rt
}

#[test]
fn cat_proc_total_equals_in_process_counters() {
    let rt = runtime_with_proc();
    let fs = rt.yfs.filesystem().clone();
    let mut sh = Shell::new(fs.clone());
    // Generate some traffic through the shell itself first.
    assert!(sh.run("mkdir /net/scratch").success());
    assert!(sh.run("echo hello > /net/scratch/f").success());
    let out = sh.run("cat /net/.proc/vfs/syscalls/total");
    assert!(out.success(), "{}", out.err);
    assert_eq!(
        out.out.trim(),
        fs.counters().total().to_string(),
        "shell view of the total must match SyscallCounters::total()"
    );
    // And it stays exact on a second reading after more traffic.
    sh.run("echo again > /net/scratch/g");
    let out = sh.run("cat /net/.proc/vfs/syscalls/total");
    assert_eq!(out.out.trim(), fs.counters().total().to_string());
}

#[test]
fn stats_command_summarises_a_live_runtime() {
    let rt = runtime_with_proc();
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    let out = sh.run("stats");
    assert!(out.success(), "{}", out.err);
    for needle in [
        "/net/.proc/vfs/syscalls/total: ",
        "/net/.proc/vfs/notify/watches: ",
        "/net/.proc/drivers/sw1/protocol: OpenFlow 1.0",
        "/net/.proc/drivers/sw1/ready: 1",
        "/net/.proc/dataplane/events: ",
    ] {
        assert!(
            out.out.contains(needle),
            "missing `{needle}` in:\n{}",
            out.out
        );
    }
    // Counts only: no modelled-latency rows, for the vfs or a driver.
    assert!(!out.out.contains("latency"), "{}", out.out);
    for gone in ["/net/.proc/vfs/latency/write", "/net/.proc/drivers/sw1/rtt"] {
        let e = rt.yfs.filesystem().stat(gone, rt.yfs.creds()).unwrap_err();
        assert_eq!(e.errno, Errno::ENOENT, "{gone}");
    }
}

#[test]
fn proc_is_read_only_through_the_shell() {
    let rt = runtime_with_proc();
    let mut sh = Shell::new(rt.yfs.filesystem().clone());
    for cmd in [
        "echo 0 > /net/.proc/vfs/syscalls/total",
        "rm /net/.proc/vfs/syscalls/total",
        "rm -r /net/.proc",
        "mkdir /net/.proc/mine",
        "touch /net/.proc/vfs/x",
        "mv /net/.proc/vfs/syscalls/total /net/elsewhere",
    ] {
        let out = sh.run(cmd);
        assert!(!out.success(), "`{cmd}` must fail on the proc tree");
    }
    // Reads and listings still work.
    assert!(sh.run("ls /net/.proc/vfs/syscalls").success());
    assert!(sh.run("cat /net/.proc/vfs/syscalls/open").success());
}

#[test]
fn proc_mutation_fails_with_erofs_not_a_panic() {
    let rt = runtime_with_proc();
    let fs = rt.yfs.filesystem();
    let creds = Credentials::root();
    let e = fs
        .write_file("/net/.proc/vfs/syscalls/total", b"0", &creds)
        .unwrap_err();
    assert_eq!(e.errno, Errno::EROFS);
    let e = fs
        .unlink("/net/.proc/vfs/syscalls/total", &creds)
        .unwrap_err();
    assert_eq!(e.errno, Errno::EROFS);
    let e = fs
        .rename("/net/.proc/vfs", "/net/elsewhere", &creds)
        .unwrap_err();
    assert_eq!(e.errno, Errno::EROFS);
}

#[test]
fn chrooted_view_cannot_see_proc_unless_granted() {
    let rt = runtime_with_proc();
    let fs = rt.yfs.filesystem().clone();
    let creds = Credentials::root();

    // A tenant chrooted into the switch subtree has no path to `.proc`.
    let ns = Namespace::chroot(fs.clone(), "/net/switches");
    assert!(ns.exists("/sw1", &creds), "tenant sees its own subtree");
    assert!(!ns.exists("/.proc", &creds));
    assert!(!ns.exists("/net/.proc", &creds));
    let names: Vec<String> = ns
        .readdir("/", &creds)
        .unwrap()
        .into_iter()
        .map(|e| e.name)
        .collect();
    assert!(!names.iter().any(|n| n == ".proc"));

    // An explicit read-only bind grants exactly the introspection tree.
    let granted = Namespace::chroot(fs.clone(), "/net/switches").bind_ro("/proc", "/net/.proc");
    let total = granted
        .read_to_string("/proc/vfs/syscalls/total", &creds)
        .unwrap();
    assert_eq!(total.trim(), fs.counters().total().to_string());
    // The grant is still no licence to write: the fs-level hook holds.
    assert!(granted
        .write_file("/proc/vfs/syscalls/total", b"0", &creds)
        .is_err());
}

#[test]
fn proc_files_refresh_between_reads() {
    let rt = runtime_with_proc();
    let fs = rt.yfs.filesystem().clone();
    let creds = Credentials::root();
    let read = |p: &str| -> u64 {
        fs.read_to_string(p, &creds)
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    let before = read("/net/.proc/vfs/syscalls/mkdir");
    fs.mkdir_all("/net/fresh/dir", yanc_vfs::Mode::DIR_DEFAULT, &creds)
        .unwrap();
    let after = read("/net/.proc/vfs/syscalls/mkdir");
    assert!(after > before, "proc is live, not a boot-time snapshot");
}
