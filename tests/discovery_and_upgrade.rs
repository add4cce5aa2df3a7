//! E6 + E8 + E13: LLDP topology discovery converges to ground truth on
//! every standard topology; switches upgrade protocol versions live under
//! traffic; the full reactive stack routes all pairs.

use std::collections::BTreeSet;

use yanc_apps::{RouterDaemon, TopologyDaemon};
use yanc_driver::Runtime;
use yanc_harness::{
    build_fat_tree, build_line, build_ring, build_tree, ping_all_pairs, settle, PumpApp, Topo,
};
use yanc_openflow::Version;

/// Ground-truth directed link set from the simulator.
fn truth(rt: &Runtime) -> BTreeSet<(String, u16, String, u16)> {
    let mut out = BTreeSet::new();
    for l in rt.net.links() {
        if let (
            yanc_dataplane::Endpoint::Switch { dpid: da, port: pa },
            yanc_dataplane::Endpoint::Switch { dpid: db, port: pb },
        ) = (l.a, l.b)
        {
            out.insert((format!("sw{da:x}"), pa, format!("sw{db:x}"), pb));
            out.insert((format!("sw{db:x}"), pb, format!("sw{da:x}"), pa));
        }
    }
    out
}

fn discover(rt: &mut Runtime) -> BTreeSet<(String, u16, String, u16)> {
    let mut topod = TopologyDaemon::new(rt.yfs.clone()).unwrap();
    topod.probe().unwrap();
    settle(rt, &mut [&mut topod as &mut dyn PumpApp]);
    rt.yfs.topology().unwrap().into_iter().collect()
}

fn check_discovery(mut rt: Runtime, _topo: Topo) {
    let want = truth(&rt);
    let got = discover(&mut rt);
    assert_eq!(got, want, "discovered topology must equal ground truth");
}

#[test]
fn e8_discovery_on_line() {
    let mut rt = Runtime::new();
    let topo = build_line(&mut rt, 5, Version::V1_0);
    check_discovery(rt, topo);
}

#[test]
fn e8_discovery_on_ring() {
    let mut rt = Runtime::new();
    let topo = build_ring(&mut rt, 6, Version::V1_3);
    check_discovery(rt, topo);
}

#[test]
fn e8_discovery_on_tree_and_fat_tree() {
    let mut rt = Runtime::new();
    let topo = build_tree(&mut rt, 3, 2, Version::V1_0);
    check_discovery(rt, topo);
    let mut rt2 = Runtime::new();
    let topo2 = build_fat_tree(&mut rt2, 2, Version::V1_3);
    check_discovery(rt2, topo2);
}

#[test]
fn e8_discovery_mixed_protocol_fabric() {
    // Half the fabric speaks 1.0, half 1.3 — drivers differ per switch,
    // discovery doesn't care (§4.1: "multiple protocols may be used
    // simultaneously").
    let mut rt = Runtime::new();
    for d in 1..=4u64 {
        let v = if d % 2 == 0 {
            Version::V1_3
        } else {
            Version::V1_0
        };
        rt.add_switch_with_driver(d, 4, 1, vec![v], v);
    }
    for d in 1..=3u64 {
        rt.net.link_switches((d, 2), (d + 1, 3), None);
    }
    rt.pump().unwrap();
    let want = truth(&rt);
    let got = discover(&mut rt);
    assert_eq!(got, want);
}

#[test]
fn e6_live_upgrade_under_traffic() {
    // A 3-switch line carries pings; each switch is firmware-upgraded to
    // 1.3 and re-attached to a 1.3 driver, one at a time; traffic keeps
    // working after every step and the fs reflects the protocol change.
    let mut rt = Runtime::new();
    let topo = build_line(&mut rt, 3, Version::V1_0);
    yanc_harness::record_topology(&mut rt);
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    let (h1, _) = topo.hosts[0];
    let (_, ip2) = topo.hosts[1];

    let mut seq = 0u16;
    let mut ping_works = |rt: &mut Runtime, router: &mut RouterDaemon| {
        seq += 1;
        rt.net.host_ping(h1, ip2, seq);
        settle(rt, &mut [router as &mut dyn PumpApp]);
        rt.net.hosts[&h1]
            .ping_replies
            .iter()
            .any(|(_, s)| *s == seq)
    };
    assert!(ping_works(&mut rt, &mut router), "baseline ping");

    for d in 1..=3u64 {
        rt.net
            .switches
            .get_mut(&d)
            .unwrap()
            .set_supported(vec![Version::V1_0, Version::V1_3]);
        rt.swap_driver(d, Version::V1_3);
        rt.pump().unwrap();
        let proto = rt
            .yfs
            .filesystem()
            .read_to_string(&format!("/net/switches/sw{d}/protocol"), rt.yfs.creds())
            .unwrap();
        assert_eq!(proto, "OpenFlow 1.3", "switch sw{d} upgraded");
        assert!(
            ping_works(&mut rt, &mut router),
            "ping after upgrading sw{d}"
        );
    }
    // All switches upgraded; all drivers are 1.3; router state survived.
    assert!(rt.drivers.iter().all(|d| d.lock().version == Version::V1_3));
}

#[test]
fn e13_reactive_router_all_pairs_on_fat_tree() {
    let mut rt = Runtime::new();
    let topo = build_fat_tree(&mut rt, 2, Version::V1_3);
    let mut topod = TopologyDaemon::new(rt.yfs.clone()).unwrap();
    topod.probe().unwrap();
    settle(&mut rt, &mut [&mut topod as &mut dyn PumpApp]);
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    let (sent, answered) = ping_all_pairs(
        &mut rt,
        &topo,
        &mut [
            &mut topod as &mut dyn PumpApp,
            &mut router as &mut dyn PumpApp,
        ],
    );
    assert_eq!(sent, answered, "every host pair must connect");
    assert!(router.paths_installed > 0);
    // Paths are exact-match entries with idle timeouts: advancing virtual
    // time far enough empties the tables (and the fs flow dirs).
    rt.advance(3600).unwrap();
    settle(&mut rt, &mut [&mut router as &mut dyn PumpApp]);
    let remaining: usize = topo
        .switches
        .iter()
        .map(|d| rt.net.switches[d].flow_count())
        .sum();
    // Only the permanent LLDP capture flows survive.
    assert_eq!(remaining, topo.switches.len());
}
