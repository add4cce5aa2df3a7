//! Failure injection across the stack: controller crashes, malformed
//! inputs, resource exhaustion, link flaps. The system must degrade
//! loudly-but-gracefully — errors surface as files or errno, never as
//! panics or silent corruption.

use yanc::FlowSpec;
use yanc_driver::Runtime;
use yanc_openflow::{port_no, Action, FlowMatch, Version};
use yanc_vfs::{Credentials, Errno, Filesystem, Limits, Mode, Uid};

fn two_hosts() -> (Runtime, u64, u64) {
    let mut rt = Runtime::new();
    rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_0], Version::V1_0);
    let h1 = rt.net.add_host("h1", "10.0.0.1".parse().unwrap());
    let h2 = rt.net.add_host("h2", "10.0.0.2".parse().unwrap());
    rt.net.attach_host(h1, (0x1, 1), None);
    rt.net.attach_host(h2, (0x1, 2), None);
    rt.pump().unwrap();
    rt.yfs
        .write_flow(
            "sw1",
            "flood",
            &FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(port_no::FLOOD)],
                priority: 1,
                ..Default::default()
            },
        )
        .unwrap();
    rt.pump().unwrap();
    (rt, h1, h2)
}

#[test]
fn controller_crash_and_recovery() {
    let (mut rt, h1, _h2) = two_hosts();
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 1);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 1);

    // Controller dies: driver dropped, channel detached.
    rt.drivers.clear();
    rt.net.detach_controller(0x1);
    // Existing hardware flows keep forwarding (headless data plane).
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 2);
    rt.pump().unwrap();
    assert_eq!(
        rt.net.hosts[&h1].ping_replies.len(),
        2,
        "data plane survives controller loss"
    );

    // A flow committed while the controller is dead reaches the fs only.
    rt.yfs
        .write_flow(
            "sw1",
            "ssh",
            &FlowSpec {
                m: FlowMatch {
                    tp_dst: Some(22),
                    ..Default::default()
                },
                actions: vec![Action::out(2)],
                priority: 77,
                ..Default::default()
            },
        )
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);

    // New controller: re-handshake; the driver resyncs fs state into the
    // switch (including the flow written during the outage).
    rt.swap_driver(0x1, Version::V1_0);
    rt.pump().unwrap();
    assert!(rt.drivers[0].lock().ready());
    assert_eq!(
        rt.net.switches[&0x1].flow_count(),
        2,
        "fs flows resynced after recovery"
    );
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 3);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 3);
}

#[test]
fn malformed_committed_flow_reports_error_file() {
    let (mut rt, _h1, _h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    fs.mkdir("/net/switches/sw1/flows/bad", Mode::DIR_DEFAULT, &creds)
        .unwrap();
    fs.write_file(
        "/net/switches/sw1/flows/bad/match.dl_src",
        b"not-a-mac",
        &creds,
    )
    .unwrap();
    fs.write_file("/net/switches/sw1/flows/bad/version", b"1", &creds)
        .unwrap();
    rt.pump().unwrap();
    // Not installed; the reason is in the directory.
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1); // just the flood flow
    let err = fs
        .read_to_string("/net/switches/sw1/flows/bad/error", &creds)
        .unwrap();
    assert!(err.contains("dl_src"), "{err}");
}

#[test]
fn garbage_packet_out_lines_are_ignored() {
    let (mut rt, _h1, h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let creds = rt.yfs.creds().clone();
    let delivered_before = rt.net.hosts[&h2].frames_received;
    fs.append_file(
        "/net/switches/sw1/packet_out",
        b"this is not a packet-out line\nbuffer=zzz in_port=bad\n",
        &creds,
    )
    .unwrap();
    rt.pump().unwrap(); // no panic, nothing sent
    assert_eq!(rt.net.hosts[&h2].frames_received, delivered_before);
}

#[test]
fn quota_exhaustion_surfaces_as_enospc() {
    let fs = std::sync::Arc::new(
        Filesystem::builder()
            .limits(Limits {
                max_file_size: 1 << 20,
                max_dir_entries: 12,
                max_open_files: 1 << 10,
            })
            .build(),
    );
    let yfs = yanc::YancFs::init(fs, "/net").unwrap();
    yfs.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
    // Filling the flows directory eventually hits EDQUOT, reported as a
    // typed error, not a panic or partial corruption.
    let mut hit_quota = false;
    for i in 0..16 {
        match yfs.write_flow("sw1", &format!("f{i}"), &FlowSpec::default()) {
            Ok(_) => {}
            Err(yanc::YancError::Vfs(e)) => {
                assert!(matches!(e.errno, Errno::EDQUOT | Errno::ENOSPC), "{e}");
                hit_quota = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(hit_quota, "quota should have been reached");
}

#[test]
fn link_flap_is_reported_through_port_status_files() {
    let (mut rt, h1, _h2) = two_hosts();
    let status = |rt: &Runtime| -> String {
        rt.yfs
            .filesystem()
            .read_to_string(
                "/net/switches/sw1/ports/p2/config.port_status",
                rt.yfs.creds(),
            )
            .unwrap()
    };
    assert_eq!(status(&rt), "up");
    rt.net.set_link_up(
        yanc_dataplane::Endpoint::Switch { dpid: 0x1, port: 2 },
        false,
    );
    rt.pump().unwrap();
    assert_eq!(status(&rt), "down");
    // Traffic toward the dead link goes nowhere, quietly.
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 9);
    rt.pump().unwrap();
    assert!(rt.net.hosts[&h1].ping_replies.is_empty());
    // Link heals.
    rt.net.set_link_up(
        yanc_dataplane::Endpoint::Switch { dpid: 0x1, port: 2 },
        true,
    );
    rt.pump().unwrap();
    assert_eq!(status(&rt), "up");
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 10);
    rt.pump().unwrap();
    // Both pings complete: the one queued behind the unresolved ARP during
    // the outage flushes as soon as resolution succeeds, plus the new one.
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 2);
}

#[test]
fn unwritable_flow_dir_denies_but_never_wedges_the_driver() {
    let (mut rt, h1, _h2) = two_hosts();
    let fs = rt.yfs.filesystem().clone();
    let admin = Credentials::root();
    // Lock the flows dir; an unprivileged app fails cleanly…
    fs.chmod("/net/switches/sw1/flows", Mode(0o500), &admin)
        .unwrap();
    let app = rt.yfs.with_creds(Credentials::user(4000, 4000));
    let err = app
        .write_flow("sw1", "nope", &FlowSpec::default())
        .unwrap_err();
    assert!(matches!(err, yanc::YancError::Vfs(e) if e.errno == Errno::EACCES));
    // …and the driver keeps serving traffic afterwards.
    rt.net.host_ping(h1, "10.0.0.2".parse().unwrap(), 1);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 1);
}

/// A driver holds two descriptors on its switch (`flows/` and
/// `packet_out`). Swapping or re-attaching drivers must hand them back:
/// after three of each, the table is where it started.
#[test]
fn swaps_and_reattaches_hand_back_the_drivers_descriptors() {
    for workers in [1, 2] {
        let mut rt = Runtime::with_workers(workers);
        rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_0], Version::V1_0);
        rt.pump().unwrap();
        let fs = rt.yfs.filesystem().clone();
        let held = |fs: &Filesystem| -> Vec<String> {
            let mut paths: Vec<String> = fs.fd_table(Uid(0)).into_iter().map(|f| f.path).collect();
            paths.sort();
            paths
        };
        let start = (fs.open_handle_count(), held(&fs));
        assert_eq!(
            start.1,
            ["/net/switches/sw1/flows", "/net/switches/sw1/packet_out"]
        );
        for _ in 0..3 {
            rt.swap_driver(0x1, Version::V1_0);
            rt.pump().unwrap();
        }
        assert_eq!((fs.open_handle_count(), held(&fs)), start, "after swaps");
        for _ in 0..3 {
            // A 1.3 driver fails against this 1.0-only switch; the
            // supervisor's re-attach brings a 1.0 driver back.
            rt.swap_driver(0x1, Version::V1_3);
            rt.pump().unwrap();
            assert_eq!(rt.reattach_failed(), 1);
            rt.pump().unwrap();
        }
        assert_eq!(
            (fs.open_handle_count(), held(&fs)),
            start,
            "after reattaches"
        );
        assert_eq!(fs.notify().watch_count(), 1, "one watch, the live driver's");
        let flood = FlowSpec {
            m: FlowMatch::any(),
            actions: vec![Action::out(port_no::FLOOD)],
            ..Default::default()
        };
        rt.yfs.write_flow("sw1", "flood", &flood).unwrap();
        rt.pump().unwrap();
        assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
        yanc_harness::check_flows(&rt).unwrap();
    }
}

/// Removing a switch directory orphans what its driver holds. The flow
/// still reaches the switch once the directory is back: through a new
/// driver's handshake, or — with the old driver kept — because it
/// re-opens its `flows/` and `packet_out` by path.
#[test]
fn a_recreated_switch_directory_is_reopened_by_path() {
    let flood = FlowSpec {
        m: FlowMatch::any(),
        actions: vec![Action::out(port_no::FLOOD)],
        ..Default::default()
    };
    // Re-handshake through a swapped driver.
    let (mut rt, _h1, _h2) = two_hosts();
    rt.yfs.remove_switch("sw1").unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 0, "flows withdrawn");
    rt.swap_driver(0x1, Version::V1_0);
    rt.pump().unwrap();
    rt.yfs.write_flow("sw1", "flood", &flood).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    yanc_harness::check_flows(&rt).unwrap();

    // The same driver, the directory re-created under it.
    let (mut rt, _h1, h2) = two_hosts();
    rt.yfs.remove_switch("sw1").unwrap();
    rt.pump().unwrap();
    rt.yfs.create_switch("sw1", 0x1, 0, 0, 0, 1, None).unwrap();
    rt.yfs.write_flow("sw1", "flood", &flood).unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0x1].flow_count(), 1);
    yanc_harness::check_flows(&rt).unwrap();
    let frame = yanc_packet::build_udp(
        yanc_packet::MacAddr::from_seed(7),
        rt.net.hosts[&h2].mac,
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1,
        2,
        bytes::Bytes::from_static(b"again"),
    );
    rt.yfs
        .packet_out("sw1", None, port_no::NONE, "2", &frame)
        .unwrap();
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&h2].udp_received.len(), 1);
}
