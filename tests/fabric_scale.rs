//! Fabric scale (§8): data-center fat trees brought up, stormed and
//! bulk-programmed under *pinned* deterministic budgets.
//!
//! Four claims, each an exact count rather than a threshold:
//!
//! 1. bring-up is an affine function of the shape — a fixed per-switch
//!    budget (batched materialization) plus a fixed per-port term, with
//!    identical constants at different fabric sizes;
//! 2. bulk flow install through the descriptor fast path costs exactly
//!    6 charged syscalls and 13 notify events per flow (amortized
//!    `open`/`close` aside) no matter how many switches the flows spread
//!    over, and the drivers then pay exactly 4 per installed flow and
//!    nothing per removed one;
//! 3. a packet-in storm costs exactly 5 charged syscalls per packet-in,
//!    whatever the fabric size;
//! 4. an idle fabric costs zero runtime iterations — the event-driven
//!    scheduler never touches a driver without a readiness signal.

use yanc::FlowSpec;
use yanc_dataplane::{FabricTier, FatTree};
use yanc_driver::Runtime;
use yanc_harness::{build_fabric, check_flows};
use yanc_openflow::{port_no, Action, FlowMatch, Version};
use yanc_vfs::{EventMask, OpKind};

/// Build a k-fabric and return (total syscalls, switches, total ports).
fn bringup_cost(k: u16) -> (u64, usize, usize) {
    let mut rt = Runtime::new();
    let before = rt.yfs.filesystem().counters().snapshot();
    let topo = build_fabric(&mut rt, k, Version::V1_3);
    let used = rt
        .yfs
        .filesystem()
        .counters()
        .snapshot()
        .since(&before)
        .total();
    let ports = topo.switches.len() * k as usize;
    (used, topo.switches.len(), ports)
}

#[test]
fn bringup_budget_is_affine_in_switches_and_ports() {
    let (t4, s4, p4) = bringup_cost(4);
    let (t6, s6, p6) = bringup_cost(6);
    let (t8, s8, p8) = bringup_cost(8);
    println!("k=4: {t4} syscalls / {s4} switches / {p4} ports");
    println!("k=6: {t6} syscalls / {s6} switches / {p6} ports");
    println!("k=8: {t8} syscalls / {s8} switches / {p8} ports");
    // Solve total = A*switches + B*ports from k=4 and k=6, then demand
    // k=8 lands exactly on the same line. Any per-switch path-addressed
    // regression in the handshake shows up as a residual here.
    let a = ((t4 as i64) * (p6 as i64) - (t6 as i64) * (p4 as i64)) as f64
        / ((s4 as i64) * (p6 as i64) - (s6 as i64) * (p4 as i64)) as f64;
    let b = (t4 as f64 - a * s4 as f64) / p4 as f64;
    println!("per-switch A = {a}, per-port B = {b}");
    let predicted = a * s8 as f64 + b * p8 as f64;
    assert_eq!(predicted.round() as u64, t8, "A={a} B={b}");
    // And pin the constants themselves: 14 charged syscalls per switch
    // (batched switch + port materialization, packet_out seed, watch and
    // proc plumbing) plus 2 per port. A change here is a change to the
    // §8 bring-up cost model and must be deliberate.
    assert_eq!(a, 14.0, "per-switch bring-up budget drifted");
    assert_eq!(b, 2.0, "per-port bring-up budget drifted");
}

fn flood() -> FlowSpec {
    FlowSpec {
        m: FlowMatch::any(),
        actions: vec![Action::out(port_no::FLOOD)],
        ..Default::default()
    }
}

#[test]
fn bulk_install_costs_two_syscalls_per_flow() {
    let mut rt = Runtime::new();
    let topo = build_fabric(&mut rt, 4, Version::V1_3);
    let ft = FatTree::new(4);
    let edges: Vec<String> = ft
        .switches()
        .iter()
        .filter(|s| s.tier == FabricTier::Edge)
        .map(|s| s.name.clone())
        .collect();
    assert_eq!(edges.len(), 8);
    // Exactly one watch per driver: every write in the system is tested
    // against every watch.
    let watches = rt.yfs.filesystem().notify().watch_count();
    assert_eq!(watches, topo.switches.len());
    const FLOWS_PER_SWITCH: usize = 8;
    let flows = (edges.len() * FLOWS_PER_SWITCH) as u64;
    let fs = rt.yfs.filesystem().clone();
    let hub = fs.notify();
    let delivered_before = hub.delivered_events();
    let watch = rt
        .yfs
        .filesystem()
        .watch("/net/switches")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    let before = rt.yfs.filesystem().counters().snapshot();
    for sw in &edges {
        let fd = rt.yfs.open_flows_dir(sw).unwrap();
        for i in 0..FLOWS_PER_SWITCH {
            let mut spec = flood();
            spec.m.in_port = Some(1 + (i % 4) as u16);
            spec.priority = 100 + i as u16;
            rt.yfs.write_flow_at(fd, &format!("f{i}"), &spec).unwrap();
        }
        rt.yfs.filesystem().close(fd, rt.yfs.creds()).unwrap();
    }
    let used = rt
        .yfs
        .filesystem()
        .counters()
        .snapshot()
        .since(&before)
        .total();
    // Exactly 6 charged syscalls per flow — `mkdirat` + one batched
    // field write, plus the schema hook seeding `version`/`counters` —
    // and open/close once per switch, regardless of fabric size. (Same
    // rate the E21/E23 experiments pin for a single switch.)
    assert_eq!(
        used,
        (edges.len() * (2 + 6 * FLOWS_PER_SWITCH)) as u64,
        "descriptor fast-path install budget drifted"
    );
    // Notify traffic is an exact per-flow rate too (the flows-dir
    // open/close itself queues nothing).
    let emitted = watch.receiver().try_iter().count() as u64;
    assert_eq!(
        emitted,
        13 * flows,
        "bulk install notify rate drifted from 13 events/flow"
    );
    drop(watch);
    // Of those, each driver's one watch queues the two `version` commits
    // (the schema hook's seed and the batch's last file) and nothing else.
    let driver_events = hub.delivered_events() - delivered_before - emitted;
    assert_eq!(
        driver_events,
        2 * flows,
        "driver queues: 2 events per install"
    );
    // The drivers pick every install up from the watch stream: one read
    // of each flow through the held flows-dir descriptor, coalescing both
    // commits — openat + readdir + one batched read + close.
    let before = rt.yfs.filesystem().counters().snapshot();
    rt.pump().unwrap();
    let sync = rt.yfs.filesystem().counters().snapshot().since(&before);
    let per_op = [OpKind::Openat, OpKind::Readdir, OpKind::Read, OpKind::Close];
    assert_eq!(
        (sync.total(), per_op.map(|op| sync.get(op))),
        (4 * flows, [flows; 4]),
        "driver sync budget drifted: {}",
        sync.report()
    );
    for sw in &edges {
        let mut names = rt.yfs.list_flows(sw).unwrap();
        names.sort();
        assert_eq!(names.len(), FLOWS_PER_SWITCH);
        for i in 0..FLOWS_PER_SWITCH {
            assert_eq!(rt.yfs.flow_version(sw, &format!("f{i}")).unwrap(), 1);
        }
    }
    check_flows(&rt).unwrap();
    // Removal: one `version` Delete per flow reaches the drivers, and
    // withdrawing the switch entries costs them no syscall at all.
    let delivered_before = hub.delivered_events();
    for sw in &edges {
        for i in 0..FLOWS_PER_SWITCH {
            rt.yfs.delete_flow(sw, &format!("f{i}")).unwrap();
        }
    }
    assert_eq!(hub.delivered_events() - delivered_before, flows);
    let before = rt.yfs.filesystem().counters().snapshot();
    rt.pump().unwrap();
    let withdraw = rt.yfs.filesystem().counters().snapshot().since(&before);
    assert_eq!(withdraw.total(), 0, "{}", withdraw.report());
    for sw in &edges {
        assert!(rt.yfs.list_flows(sw).unwrap().is_empty());
    }
    check_flows(&rt).unwrap();
    drop(topo);
}

/// One ping per edge switch, no flows installed anywhere: every ping
/// ARPs, misses, and becomes exactly one packet-in at its edge, and each
/// packet-in costs a fixed number of charged syscalls whatever the fabric
/// size: the driver's publish is open + list + close on `events/`, one
/// `mkdirat` for the one subscriber and one batch.
#[test]
fn packet_in_storm_costs_5_syscalls_per_packet_in() {
    for k in [4u16, 6] {
        let mut rt = Runtime::new();
        let topo = build_fabric(&mut rt, k, Version::V1_3);
        let sub = rt.yfs.subscribe_events("storm").unwrap();
        let half = (k / 2) as usize;
        let n_edges = k as usize * half;
        let before = rt.yfs.filesystem().counters().total();
        for e in 0..n_edges {
            // hosts are pod-major, k/2 consecutive slots per edge
            let (src, _) = topo.hosts[e * half];
            let (_, dst_ip) = topo.hosts[e * half + 1];
            rt.net.host_ping(src, dst_ip, 1);
        }
        rt.pump().unwrap();
        let storm_syscalls = rt.yfs.filesystem().counters().total() - before;
        assert_eq!(sub.poll().len(), n_edges, "one packet-in per stormed edge");
        assert_eq!(storm_syscalls, 5 * n_edges as u64, "k={k}");
    }
}

// ---------------------------------------------------------------------
// The pump's schedule, replayed (§5 scheduler).
//
// A seeded workload must reproduce the recorded serial trace bit for
// bit: sweep counts, scheduler ledger, per-op syscall totals and both
// `/net` digests. Each sweep reads every driver's readiness and runs the
// ready ones once, in index order, on the calling thread; the schedule
// digest pins that order.
// ---------------------------------------------------------------------

/// The replay workload: bring up a k=4 fabric, packet-in storm from
/// every host, bulk flow installs through the fs, a stats poll, and a
/// final guaranteed-idle pump, with the flow oracle after every pump
/// phase. Returns per-phase sweep counts and, per [`OpKind::all`] row,
/// the syscalls the oracle was charged.
fn replay_workload(rt: &mut Runtime) -> (Vec<u32>, Vec<u64>) {
    let mut sweeps = Vec::new();
    let mut oracle = vec![0; OpKind::all().len()];
    let mut phase = |rt: &mut Runtime, pump: fn(&mut Runtime) -> yanc::YancResult<u32>| {
        sweeps.push(pump(rt).unwrap());
        let before = rt.yfs.filesystem().counters().snapshot();
        check_flows(rt).unwrap_or_else(|e| panic!("after phase {}: {e}", sweeps.len()));
        let cost = rt.yfs.filesystem().counters().snapshot().since(&before);
        for (spent, op) in oracle.iter_mut().zip(OpKind::all()) {
            *spent += cost.get(*op);
        }
    };
    let topo = build_fabric(rt, 4, Version::V1_3);
    let hosts = topo.hosts.clone();
    for (i, &(h, _)) in hosts.iter().enumerate() {
        let (_, dst) = hosts[(i + 1) % hosts.len()];
        rt.net.host_ping(h, dst, (i + 1) as u16);
    }
    phase(rt, Runtime::pump);
    // Targeted (non-flooding) flows: a fat tree has loops, so fabric-wide
    // flood rules would turn the second storm into a broadcast storm.
    for &d in &topo.switches {
        let sw = format!("sw{d:x}");
        let spec = FlowSpec {
            m: FlowMatch {
                tp_dst: Some(4022),
                ..Default::default()
            },
            actions: vec![Action::out(1)],
            priority: 50,
            ..Default::default()
        };
        rt.yfs.write_flow(&sw, "steer", &spec).unwrap();
    }
    phase(rt, Runtime::pump);
    for (i, &(h, _)) in hosts.iter().enumerate() {
        let (_, dst) = hosts[(i + 3) % hosts.len()];
        rt.net.host_ping(h, dst, (100 + i) as u16);
    }
    phase(rt, Runtime::pump);
    phase(rt, Runtime::poll_stats);
    phase(rt, Runtime::pump);
    (sweeps, oracle)
}

/// Everything the replay pins: per-phase sweeps, the sched ledger,
/// per-op charged syscall counts (the oracle's reads left out), and two
/// digests of `/net` — `content`
/// (names + bytes + ownership, schedule-independent) and `schedule`
/// (full `tree_digest`, which additionally pins inode numbers and
/// mtime/ctime ticks, i.e. the exact order the tree was built in).
#[derive(Debug, PartialEq, Eq)]
struct ReplayTrace {
    sweeps: Vec<u32>,
    runs: u64,
    skips: u64,
    idle_pumps: u64,
    per_op: Vec<(&'static str, u64)>,
    content: u64,
    schedule: u64,
}

fn trace(rt: &mut Runtime) -> ReplayTrace {
    use std::sync::atomic::Ordering;
    let sched = rt.sched_stats();
    let (sweeps, oracle) = replay_workload(rt);
    let snap = rt.yfs.filesystem().counters().snapshot();
    ReplayTrace {
        sweeps,
        runs: sched.runs.load(Ordering::Relaxed),
        skips: sched.skips.load(Ordering::Relaxed),
        idle_pumps: sched.idle_pumps.load(Ordering::Relaxed),
        per_op: OpKind::all()
            .iter()
            .zip(oracle)
            .map(|(op, spent)| (op.name(), snap.get(*op) - spent))
            .collect(),
        content: rt.yfs.filesystem().content_digest(),
        schedule: rt.yfs.filesystem().tree_digest(),
    }
}

/// The trace of the serial pump (one thread walking the driver vector in
/// index order), recorded from `driver::Runtime` at the last commit that
/// still had a separate serial runtime; `content` and the skip and idle
/// counts are from then. `schedule` was re-recorded when
/// `write_flow` and `publish_packet_in` went through the one materializer.
/// The per-op table, `sweeps` and `runs` were re-recorded when the drivers
/// moved onto held descriptors and one filtered watch: the table's total
/// fell from 1,709 to 1,109 (`openat` rose from 0 to 40, every other row
/// fell or stayed), and the drivers stopped waking for their own `error`
/// reports (136 → 116 runs). Both digests are FNV-1a over the tree, so the
/// values are machine-independent.
fn recorded_serial_trace() -> ReplayTrace {
    ReplayTrace {
        sweeps: vec![1, 1, 1, 1, 0],
        runs: 116,
        skips: 24,
        idle_pumps: 1,
        per_op: vec![
            ("stat", 4),
            ("open", 232),
            ("close", 232),
            ("read", 40),
            ("write", 180),
            ("mkdir", 289),
            ("rmdir", 0),
            ("unlink", 0),
            ("rename", 0),
            ("symlink", 0),
            ("readlink", 0),
            ("link", 0),
            ("readdir", 92),
            ("setattr", 0),
            ("xattr", 0),
            ("truncate", 0),
            ("openat", 40),
            ("fstat", 0),
            ("fsync", 0),
            ("poll", 0),
        ],
        content: 7208839857400366974,
        schedule: 11024292241210552446,
    }
}

/// Charged syscalls of one `write_counters_batch` carrying `n` counters.
fn counters_batch_syscalls(n: usize) -> u64 {
    let mut rt = Runtime::new();
    let sw = rt.add_switch_with_driver(0xA, 4, 1, vec![Version::V1_3], Version::V1_3);
    rt.pump().unwrap();
    let entries: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("counters/c{i}"), i as u64))
        .collect();
    let before = rt.yfs.filesystem().counters().total();
    rt.yfs
        .write_counters_batch(&rt.yfs.switch_dir(&sw), &entries)
        .unwrap();
    rt.yfs.filesystem().counters().total() - before
}

#[test]
fn pump_replays_the_recorded_serial_trace() {
    assert_eq!(trace(&mut Runtime::new()), recorded_serial_trace());
    // The replay's stats poll lands each of its 40 replies through one
    // `write_counters_batch` against the switch directory: 3 charged
    // syscalls however many counters ride in it.
    assert_eq!(counters_batch_syscalls(16), 3);
    assert_eq!(counters_batch_syscalls(1), 3);
}

#[test]
fn idle_fabric_costs_zero_runtime_iterations() {
    let mut rt = Runtime::new();
    rt.enable_introspection().unwrap();
    build_fabric(&mut rt, 6, Version::V1_3); // 45 switches, quiesced
    rt.pump().unwrap();
    let sched_path = "/net/.proc/driver/sched";
    let read_counter = |rt: &Runtime, key: &str| -> u64 {
        let text = rt
            .yfs
            .filesystem()
            .read_to_string(sched_path, rt.yfs.creds())
            .unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    let runs_before = read_counter(&rt, "runs");
    let idle_before = read_counter(&rt, "idle_pumps");
    let iterations = rt.pump().unwrap();
    assert_eq!(iterations, 0, "idle fabric must cost zero sweeps");
    assert_eq!(read_counter(&rt, "runs"), runs_before, "a driver ran idle");
    assert_eq!(read_counter(&rt, "idle_pumps"), idle_before + 1);
}
