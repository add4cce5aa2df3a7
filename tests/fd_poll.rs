//! Descriptor-relative I/O and `yanc_poll` end to end: the E21 syscall
//! claim (fd-relative flow install is ≥5× cheaper than path-per-call), the
//! scheduler contract (an idle poll-aware process consumes zero ticks,
//! pinned through `/net/.proc`), and the multiplexer itself (one PollSet
//! over watch + fd + probe sources, fair under flooding).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use yanc::{FlowSpec, YancApp, YancResult};
use yanc_coreutils::Shell;
use yanc_driver::Runtime;
use yanc_harness::shell_install_flow;
use yanc_init::{ProcessSpec, ProcessState, Supervisor};
use yanc_openflow::{Action, FlowMatch, Ipv4Prefix, Version};
use yanc_packet::MacAddr;
use yanc_vfs::{
    Credentials, EventMask, Fd, Filesystem, Interest, Mode, OpenFlags, PollSource, WatchGuard,
};

fn proc_u64(fs: &Arc<Filesystem>, path: &str) -> u64 {
    fs.read_to_string(path, &Credentials::root())
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{path}: not a number: {e}"))
}

/// A fully-populated match (all 10 fields), `tp_dst` keyed by `i` so every
/// flow is distinct. Rich specs are where path-per-call hurts most: one
/// file per field.
fn rich_spec(i: usize) -> FlowSpec {
    FlowSpec {
        m: FlowMatch {
            in_port: Some(1),
            dl_src: Some(MacAddr::from_seed(1)),
            dl_dst: Some(MacAddr::from_seed(2)),
            dl_type: Some(0x0800),
            nw_tos: Some(0x20),
            nw_proto: Some(6),
            nw_src: Ipv4Prefix::parse("10.0.0.0/24"),
            nw_dst: Ipv4Prefix::parse("10.1.0.0/16"),
            tp_src: Some(1000),
            tp_dst: Some((i % 60_000) as u16),
            ..Default::default()
        },
        actions: vec![Action::out(2)],
        priority: 900,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// E21: the descriptor fast path
// ---------------------------------------------------------------------

#[test]
fn e21_fd_relative_install_is_at_least_5x_cheaper_than_path_per_call() {
    let mut rt = Runtime::new();
    let sw = rt.add_switch_with_driver(0x21, 4, 1, vec![Version::V1_0], Version::V1_0);
    rt.pump().unwrap();
    let fs = rt.yfs.filesystem().clone();
    const N: usize = 1000;

    // Path-per-call is what a shell pays: every field file is a fresh
    // open/write/close from /.
    let mut sh = Shell::new(fs.clone());
    let before = fs.counters().snapshot();
    for i in 0..N {
        let dir = format!("/net/switches/{sw}/flows/p{i}");
        shell_install_flow(&mut sh, &dir, &rich_spec(i));
    }
    let path_cost = fs.counters().snapshot().since(&before).total();

    // Descriptor-relative: one open_dir, then mkdirat + one batched
    // submission per flow.
    let before = fs.counters().snapshot();
    let flows = rt.yfs.open_flows_dir(&sw).unwrap();
    for i in 0..N {
        rt.yfs
            .write_flow_at(flows, &format!("d{i}"), &rich_spec(i))
            .unwrap();
    }
    fs.close(flows, rt.yfs.creds()).unwrap();
    let fd_cost = fs.counters().snapshot().since(&before).total();

    // 5 + 3·13 files = 44 per flow by shell, 6 per flow by descriptor.
    assert_eq!((path_cost, fd_cost), (44 * N as u64, 2 + 6 * N as u64));
    assert!(
        fd_cost * 5 <= path_cost,
        "E21 regression: fd path {fd_cost} syscalls vs path-per-call {path_cost} for {N} flows"
    );

    // Same bytes land on disk either way: the fast path is an encoding of
    // the same protocol, not a different one.
    for i in [0usize, 7, 999] {
        let a = rt.yfs.read_flow(&sw, &format!("p{i}")).unwrap();
        let b = rt.yfs.read_flow(&sw, &format!("d{i}")).unwrap();
        assert_eq!(a.m.tp_dst, b.m.tp_dst);
        assert_eq!(a.m.nw_src, b.m.nw_src);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.priority, b.priority);
        assert_eq!(a.version, b.version);
    }
}

// ---------------------------------------------------------------------
// Zero idle ticks: the scheduler side of yanc_poll
// ---------------------------------------------------------------------

/// A poll-aware daemon: one watch, level-triggered readiness. `primed`
/// keeps the first slice unconditional so a restarted instance drains
/// whatever predates its fresh watch.
struct Mailbox {
    watch: WatchGuard,
    primed: bool,
}

impl YancApp for Mailbox {
    fn name(&self) -> &str {
        "mailbox"
    }

    fn run_once(&mut self) -> YancResult<bool> {
        self.primed = true;
        Ok(self.watch.receiver().try_iter().count() > 0)
    }

    fn ready(&self) -> bool {
        !self.primed || self.watch.ready()
    }
}

#[test]
fn idle_supervised_app_consumes_zero_scheduler_ticks() {
    let rt = Runtime::new();
    rt.yfs.enable_introspection().unwrap();
    let fs = rt.yfs.filesystem().clone();
    let root = Credentials::root();
    fs.mkdir_all("/net/mail", Mode::DIR_DEFAULT, &root).unwrap();
    let mut sup = Supervisor::new(rt.yfs.clone()).unwrap();
    let pid = sup
        .spawn(ProcessSpec::new("mailbox"), |ctx| {
            let watch = ctx
                .yfs
                .filesystem()
                .watch("/net/mail")
                .mask(EventMask::ALL)
                .register()?;
            Ok(Box::new(Mailbox {
                watch,
                primed: false,
            }) as Box<dyn YancApp>)
        })
        .unwrap();

    // The Starting process always gets its priming slice.
    sup.tick();
    assert_eq!(sup.state(pid), Some(ProcessState::Running));
    let runs0 = sup.sched_runs(pid);
    assert_eq!(runs0, 1);

    // Ten idle ticks: not one scheduler slice consumed — every one is
    // recorded as a skip instead.
    for _ in 0..10 {
        sup.tick();
    }
    assert_eq!(sup.sched_runs(pid), runs0);
    assert_eq!(sup.sched_skips(pid), 10);

    // The acceptance pin: the same counters, read through /net/.proc.
    let sched = fs
        .read_to_string(&format!("/net/.proc/apps/{pid}/sched"), &root)
        .unwrap();
    assert_eq!(sched, format!("runs:\t{runs0}\nskips:\t10\n"));

    // One event re-arms readiness; exactly one more slice drains it, then
    // the process goes back to costing nothing.
    fs.write_file("/net/mail/m1", b"hi", &root).unwrap();
    sup.tick();
    assert_eq!(sup.sched_runs(pid), runs0 + 1);
    sup.tick();
    assert_eq!(sup.sched_runs(pid), runs0 + 1);
    assert_eq!(sup.sched_skips(pid), 11);
}

// ---------------------------------------------------------------------
// The multiplexer: heterogeneous sources, one wait, fair rotation
// ---------------------------------------------------------------------

#[test]
fn pollset_multiplexes_watch_fd_and_probe_sources_fairly() {
    let rt = Runtime::new();
    rt.yfs.enable_introspection().unwrap();
    let fs = rt.yfs.filesystem().clone();
    let root = Credentials::root();
    fs.mkdir_all("/net/inbox", Mode::DIR_DEFAULT, &root)
        .unwrap();
    fs.write_file("/net/log", b"0123456789", &root).unwrap();

    let watch = fs
        .watch("/net/inbox")
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let fd = fs.open("/net/log", OpenFlags::read_only(), &root).unwrap();
    let ps = fs.poll_create(&root);
    let t_watch = ps.add(
        PollSource::Watch(watch.receiver().clone()),
        Interest::Readable,
    );
    let t_fd = ps.add(PollSource::Fd(fd), Interest::Readable);
    // The probe floods (a full libyanc ring would look exactly like this);
    // rotation must keep it from starving the other two out of a
    // max_events=1 budget.
    let t_probe = ps.add_probe("ring", || 1_000_000);
    fs.write_file("/net/inbox/m", b"x", &root).unwrap();

    let polls_before = proc_u64(&fs, "/net/.proc/vfs/syscalls/poll");
    let mut seen: HashSet<_> = HashSet::new();
    for _ in 0..3 {
        for ev in ps.wait(1, Duration::ZERO).unwrap() {
            seen.insert(ev.token);
        }
    }
    for t in [t_watch, t_fd, t_probe] {
        assert!(seen.contains(&t), "starved source: {t:?} (saw {seen:?})");
    }
    // Three waits cost exactly three Poll syscalls, visible in /net/.proc —
    // however many sources fired.
    assert_eq!(
        proc_u64(&fs, "/net/.proc/vfs/syscalls/poll"),
        polls_before + 3
    );

    // And the set itself is introspectable.
    let sets = fs.read_to_string("/net/.proc/vfs/pollsets", &root).unwrap();
    assert!(
        sets.contains(&format!("id={} owner=0 sources=3 waits=3", ps.id())),
        "{sets}"
    );
    fs.close(fd, &root).unwrap();
}

// ---------------------------------------------------------------------
// Descriptor-table introspection: .proc/apps/<pid>/fds and lsfd
// ---------------------------------------------------------------------

/// Holds a directory descriptor open for its whole life (the fd shows up
/// in its `.proc` descriptor table).
struct Holder {
    _fd: Fd,
}

impl YancApp for Holder {
    fn name(&self) -> &str {
        "holder"
    }

    fn run_once(&mut self) -> YancResult<bool> {
        Ok(false)
    }
}

#[test]
fn proc_fds_file_and_lsfd_render_the_descriptor_table() {
    let rt = Runtime::new();
    rt.yfs.enable_introspection().unwrap();
    let fs = rt.yfs.filesystem().clone();
    let mut sup = Supervisor::new(rt.yfs.clone()).unwrap();
    let pid = sup
        .spawn(ProcessSpec::new("holder"), |ctx| {
            let fd = ctx
                .yfs
                .filesystem()
                .open_dir("/net/switches", ctx.yfs.creds())?;
            Ok(Box::new(Holder { _fd: fd }) as Box<dyn YancApp>)
        })
        .unwrap();
    sup.tick();

    let text = fs
        .read_to_string(&format!("/net/.proc/apps/{pid}/fds"), &Credentials::root())
        .unwrap();
    assert!(text.contains("/net/switches"), "{text}");
    assert!(text.contains("r-"), "{text}");

    // The one-liner view of the same table.
    let mut sh = Shell::new(fs.clone());
    let out = sh.run(&format!("lsfd {pid}"));
    assert!(out.success(), "{}", out.err);
    assert!(
        out.out.starts_with("PID FD MODE OFFSET PATH\n"),
        "{}",
        out.out
    );
    assert!(out.out.contains("/net/switches"), "{}", out.out);
    // Without a pid it scans every process directory.
    let all = sh.run("lsfd");
    assert!(all.out.contains("/net/switches"), "{}", all.out);
}
