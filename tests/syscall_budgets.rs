//! E4/E5 syscall budgets as regression tests: the tables printed by
//! `bench control_plane` and `bench packetin_and_notify` (and recorded in
//! EXPERIMENTS.md) are pinned here, with every count read back through
//! the `/net/.proc` introspection tree rather than the in-process
//! counters — so the test also proves the proc view is exact.

use std::sync::Arc;

use bytes::Bytes;

use yanc::{FlowSpec, PacketInRecord, YancFs};
use yanc_coreutils::Shell;
use yanc_driver::Runtime;
use yanc_harness::shell_install_flow;
use yanc_openflow::{Action, FlowMatch, Ipv4Prefix, Version};
use yanc_packet::MacAddr;
use yanc_vfs::{Credentials, Filesystem};

/// `cat`-equivalent: read a proc file and parse it as a number. Proc
/// paths are exempt from syscall accounting, so this never perturbs the
/// budgets being measured.
fn proc_u64(fs: &Arc<Filesystem>, path: &str) -> u64 {
    fs.read_to_string(path, &Credentials::root())
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{path}: not a number: {e}"))
}

/// A spec with exactly `k` populated match fields (mirrors the E4 bench).
fn spec_with_fields(k: usize) -> FlowSpec {
    type FieldSetter = Box<dyn Fn(&mut FlowMatch)>;
    let mut m = FlowMatch::any();
    let setters: Vec<FieldSetter> = vec![
        Box::new(|m| m.in_port = Some(1)),
        Box::new(|m| m.dl_src = Some(MacAddr::from_seed(1))),
        Box::new(|m| m.dl_dst = Some(MacAddr::from_seed(2))),
        Box::new(|m| m.dl_type = Some(0x0800)),
        Box::new(|m| m.nw_tos = Some(0x20)),
        Box::new(|m| m.nw_proto = Some(6)),
        Box::new(|m| m.nw_src = Ipv4Prefix::parse("10.0.0.0/24")),
        Box::new(|m| m.nw_dst = Ipv4Prefix::parse("10.1.0.0/16")),
        Box::new(|m| m.tp_src = Some(1000)),
        Box::new(|m| m.tp_dst = Some(22)),
    ];
    for s in setters.iter().take(k) {
        s(&mut m);
    }
    FlowSpec {
        m,
        actions: vec![Action::out(2)],
        priority: 500,
        ..Default::default()
    }
}

#[test]
fn e4_commit_syscall_budget_via_proc() {
    // EXPERIMENTS.md E4, what a shell pays: `mkdir` (5 with the hook's
    // `version` + `counters/`) + 3 per `echo >` — 14 fixed + 3 per match
    // field. The library route (`write_flow` = open_flows_dir +
    // write_flow_at + close) pays 8 whatever the field count.
    for (k, shell_expected) in [(1usize, 17u64), (4, 26), (7, 35), (10, 44)] {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        rt.enable_introspection().unwrap();
        let fs = rt.yfs.filesystem();
        let mut sh = Shell::new(fs.clone());
        let total = || proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        let spec = spec_with_fields(k);
        let before = total();
        shell_install_flow(&mut sh, "/net/switches/sw1/flows/sh", &spec);
        let by_shell = total() - before;
        let before = total();
        rt.yfs.write_flow("sw1", "lib", &spec).unwrap();
        let by_library = total() - before;
        assert_eq!(
            (by_shell, by_library),
            (shell_expected, 8),
            "flow commit with {k} match fields"
        );
        // Two routes, one protocol: the same flow either way.
        assert_eq!(
            rt.yfs.read_flow("sw1", "sh").unwrap(),
            rt.yfs.read_flow("sw1", "lib").unwrap()
        );
    }
}

#[test]
fn e5_fanout_syscall_budget_via_proc() {
    // EXPERIMENTS.md E5: open + list + close on `events/`, one batch, and
    // one `mkdirat` per subscriber — linear fan-out, slope 1.
    for n in [1usize, 2, 4, 8, 16, 32] {
        let yfs = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        yfs.enable_introspection().unwrap();
        let _subs: Vec<_> = (0..n)
            .map(|i| yfs.subscribe_events(&format!("app{i}")).unwrap())
            .collect();
        let rec = PacketInRecord {
            switch: "sw1".into(),
            in_port: 1,
            buffer_id: None,
            reason: "no_match".into(),
            data: Bytes::from(vec![0u8; 256]),
        };
        let fs = yfs.filesystem();
        let before = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        yfs.publish_packet_in(&rec).unwrap();
        let after = proc_u64(fs, "/net/.proc/vfs/syscalls/total");
        assert_eq!(after - before, n as u64 + 4, "publish to {n} subscribers");
    }
}

#[test]
fn e4_budget_is_unchanged_by_introspection() {
    // The proc mount must be an observer: the same workload costs the
    // same number of syscalls with and without it.
    let run = |introspect: bool| -> u64 {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        if introspect {
            rt.enable_introspection().unwrap();
        }
        let before = rt.yfs.filesystem().counters().snapshot();
        rt.yfs
            .write_flow("sw1", "f", &spec_with_fields(10))
            .unwrap();
        rt.yfs
            .filesystem()
            .counters()
            .snapshot()
            .since(&before)
            .total()
    };
    assert_eq!(run(false), run(true));
}
