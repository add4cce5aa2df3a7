//! E28: the router routes from a notify-coherent `TopologyView`.
//!
//! The view is a cache of `/net`'s `peer` symlinks, so every test here
//! compares it with what a fresh scan says: the one-shot
//! `shortest_path(&YancFs, ..)` and live `YancFs::peer` reads are the
//! oracle. Counts are charged syscalls and notify counters, never time.

use std::collections::BTreeSet;
use std::sync::Arc;

use yanc::{FlowSpec, PortSpec, YancFs};
use yanc_apps::{shortest_path, RouterDaemon, TopologyDaemon, TopologyView};
use yanc_coreutils::Shell;
use yanc_driver::Runtime;
use yanc_harness::{build_fabric, build_line, record_topology, settle, PumpApp};
use yanc_openflow::{Action, FlowMatch, Version};
use yanc_packet::MacAddr;
use yanc_vfs::{CounterSnapshot, Credentials, EventKind, EventMask, Filesystem, Mode};
use yanc_vfs::{Overlay, WatchGuard};

const PORTS: u16 = 4;

/// `n` switches `s0..` with ports `p1..=p4` and no links.
fn bare_world(n: usize) -> YancFs {
    let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
    for i in 0..n {
        add_switch(&y, &format!("s{i}"));
    }
    y
}

fn add_switch(y: &YancFs, name: &str) {
    y.create_switch(name, 1, 0, 0, 0, 1, None).unwrap();
    let ports: Vec<PortSpec> = (1..=PORTS)
        .map(|port_no| PortSpec {
            port_no,
            hw_addr: "02:00:00:00:00:01".into(),
            link_up: true,
            ..Default::default()
        })
        .collect();
    y.create_ports(name, &ports).unwrap();
}

/// `s0 -p2…p1- s1 -p2…p1- s2 …`, both directions recorded.
fn link_line(y: &YancFs, n: usize) {
    for i in 0..n - 1 {
        let (a, b) = (format!("s{i}"), format!("s{}", i + 1));
        y.set_peer(&a, 2, &b, 1).unwrap();
        y.set_peer(&b, 1, &a, 2).unwrap();
    }
}

/// Deterministic xorshift; the seed is the test's only source of variety.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Every answer the view gives must be the answer a fresh scan gives.
fn assert_matches_oracle(view: &mut TopologyView, y: &YancFs, step: &str) {
    let switches = y.list_switches().unwrap();
    for from in &switches {
        for to in &switches {
            assert_eq!(
                view.shortest_path(from, to).unwrap(),
                shortest_path(y, from, to).unwrap(),
                "path {from} -> {to} after {step}"
            );
        }
    }
    let mut edge_view = BTreeSet::new();
    let mut edge_live = BTreeSet::new();
    for sw in &switches {
        for port in y.list_ports(sw).unwrap() {
            if !view.has_peer(sw, port).unwrap() {
                edge_view.insert((sw.clone(), port));
            }
            if y.peer(sw, port).unwrap().is_none() {
                edge_live.insert((sw.clone(), port));
            }
        }
    }
    assert_eq!(edge_view, edge_live, "edge ports after {step}");
}

// ---------------------------------------------------------------------
// (a) coherence under churn
// ---------------------------------------------------------------------

#[test]
fn view_equals_oracle_after_every_kind_of_topology_change() {
    for seed in [1u64, 2, 3] {
        let y = bare_world(6);
        let fs = y.filesystem().clone();
        let root = Credentials::root();
        fs.mkdir_all("/views", Mode::DIR_DEFAULT, &root).unwrap();
        let mut sh = Shell::new(fs.clone());
        let mut view = TopologyView::new(y.clone()).unwrap();
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed);
        // A switch is either `s<i>` or, after `mv`, `t<i>`.
        let mut names: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
        let mut seen = BTreeSet::new();
        for step in 0..240 {
            let (a, b) = (rng.below(6), rng.below(6));
            let (pa, pb) = (rng.below(4) as u16 + 1, rng.below(4) as u16 + 1);
            let link = format!("/net/switches/{}/ports/p{pa}/peer", names[a]);
            let target = format!("/net/switches/{}/ports/p{pb}", names[b]);
            let kind = rng.below(9);
            // Any of these may fail (the port or switch may be gone, the
            // link may exist): a refused change is a change the view must
            // not invent either.
            let what = match kind {
                0 | 1 => {
                    let _ = y.set_peer(&names[a], pa, &names[b], pb);
                    let _ = y.set_peer(&names[b], pb, &names[a], pa);
                    "set_peer"
                }
                2 => {
                    let _ = y.clear_peer(&names[a], pa);
                    "clear_peer"
                }
                3 => {
                    sh.run(&format!("ln -s {target} {link}"));
                    "ln -s"
                }
                4 => {
                    sh.run(&format!("rm {link}"));
                    "rm"
                }
                5 => {
                    let flipped = match names[a].split_at(1) {
                        ("s", i) => format!("t{i}"),
                        (_, i) => format!("s{i}"),
                    };
                    let out = sh.run(&format!(
                        "mv /net/switches/{} /net/switches/{flipped}",
                        names[a]
                    ));
                    if out.success() {
                        names[a] = flipped;
                    }
                    "mv switch"
                }
                6 => {
                    // Recursive rmdir of a port, or of a whole switch.
                    if rng.below(3) == 0 {
                        let _ = y.remove_switch(&names[a]);
                    } else {
                        let _ = fs.rmdir(y.port_dir(&names[a], pa).as_str(), &root);
                    }
                    "rmdir"
                }
                7 => {
                    // Put back whatever rmdir took.
                    add_switch(&y, &names[a]);
                    "re-create"
                }
                _ => {
                    let upper = format!("/views/v{seed}_{step}");
                    let ov = Overlay::new(fs.clone(), &["/net/switches"], &upper);
                    ov.ensure_upper(&root).unwrap();
                    let staged =
                        ov.symlink(&target, &format!("/{}/ports/p{pa}/peer", names[a]), &root);
                    if staged.is_ok() {
                        let _ = ov.commit(&root);
                    }
                    "overlay commit"
                }
            };
            seen.insert(what);
            assert_matches_oracle(&mut view, &y, &format!("step {step} ({what}), seed {seed}"));
        }
        assert_eq!(seen.len(), 8, "every kind of change ran: {seen:?}");
        // It is a cache: a still fabric is never rescanned.
        let rebuilds = view.rebuilds;
        assert!(rebuilds < view.lookups / 10, "{rebuilds} rebuilds");
        assert_matches_oracle(&mut view, &y, "quiescence");
        assert_eq!(view.rebuilds, rebuilds);
    }
}

// ---------------------------------------------------------------------
// (b) cost follows the path, not the fabric
// ---------------------------------------------------------------------

/// Ping across pods on a k-ary fat tree and return what the router was
/// charged for each `run_once` that installed exactly one path and
/// flooded nothing.
fn warm_install_costs(k: u16) -> Vec<CounterSnapshot> {
    let mut rt = Runtime::new();
    let topo = build_fabric(&mut rt, k, Version::V1_3);
    record_topology(&mut rt);
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    let fs = rt.yfs.filesystem().clone();
    let (src, _) = topo.hosts[0];
    let (_, dst_ip) = *topo.hosts.last().unwrap();
    rt.net.host_ping(src, dst_ip, 1);
    let mut costs = Vec::new();
    let mut idle = 0;
    while idle < 2 {
        let net = rt.pump().unwrap();
        let (paths, floods) = (router.paths_installed, router.floods);
        let before = fs.counters().snapshot();
        let worked = router.run_once();
        if router.paths_installed == paths + 1 && router.floods == floods {
            costs.push(fs.counters().snapshot().since(&before));
        }
        idle = if net <= 1 && !worked { idle + 1 } else { 0 };
    }
    assert_eq!(rt.net.hosts[&src].ping_replies, vec![(dst_ip, 1)]);
    // One scan for the whole exchange, on the first packet-in.
    assert_eq!(router.topology.rebuilds, 1);
    assert_eq!(router.topology.revalidations, 0);
    costs
}

#[test]
fn warm_path_install_costs_the_same_at_k4_and_k8() {
    let small = warm_install_costs(4);
    let large = warm_install_costs(8);
    assert!(small.len() >= 2, "{} warm installs", small.len());
    let report = |c: &[CounterSnapshot]| c.iter().map(|s| s.report()).collect::<Vec<_>>();
    assert_eq!(
        small,
        large,
        "{:?}\nvs\n{:?}",
        report(&small),
        report(&large)
    );
    // edge → agg → core → agg → edge: four links to validate, five flows
    // to write, and the only directories listed are the router's own event
    // queue and the packet-in entry it reads (the one reader lists an
    // object, then reads it in one batch). One scan of the k=8 fabric
    // alone is 721 calls. Every install's cost, exactly:
    assert_eq!(
        report(&small),
        [
            "open=13 close=13 read=1 write=12 mkdir=11 rmdir=1 readlink=4 readdir=2 total=57",
            "open=12 close=12 read=1 write=11 mkdir=10 rmdir=1 readlink=4 readdir=2 total=53",
            "open=12 close=12 read=1 write=11 mkdir=10 rmdir=1 readlink=4 readdir=2 total=53",
        ]
    );
}

// ---------------------------------------------------------------------
// (c) validate on use
// ---------------------------------------------------------------------

#[test]
fn stale_view_costs_a_rescan_never_a_wrong_path() {
    let y = bare_world(4);
    link_line(&y, 3); // s0 - s1 - s2, s3 an island
    let mut view = TopologyView::new(y.clone()).unwrap();
    let want = |p0: u16| {
        Some(vec![
            ("s0".to_string(), 4, p0),
            ("s1".to_string(), 1, 2),
            ("s2".to_string(), 1, 3),
        ])
    };
    assert_eq!(view.plan(("s0", 4), ("s2", 3)).unwrap(), want(2));
    assert_eq!((view.rebuilds, view.revalidations), (1, 0));

    // Renaming a port directory moves a link without touching any entry
    // named `peer`: no watch of the view sees it.
    y.filesystem()
        .rename(
            y.port_dir("s0", 2).as_str(),
            y.port_dir("s0", 9).as_str(),
            y.creds(),
        )
        .unwrap();
    // The graph still says "leave s0 on p2"; the live read of p2's peer
    // disagrees, so the view rescans and answers with p9.
    assert_eq!(view.plan(("s0", 4), ("s2", 3)).unwrap(), want(9));
    assert_eq!((view.rebuilds, view.revalidations), (2, 1));

    // No path: nothing to validate, nothing to rescan.
    assert_eq!(view.plan(("s0", 4), ("s3", 1)).unwrap(), None);
    assert_eq!(view.plan(("s0", 4), ("nowhere", 1)).unwrap(), None);
    assert_eq!((view.rebuilds, view.revalidations), (2, 1));
    // Same switch: no hops, one step.
    assert_eq!(
        view.plan(("s3", 1), ("s3", 2)).unwrap(),
        Some(vec![("s3".to_string(), 1, 2)])
    );
}

#[test]
fn router_floods_when_the_view_has_no_path() {
    // h1 - sw1 - sw2   sw3 - h2: the hosts' switches share no link, but
    // the controller reaches every edge port, so the ping is carried by
    // floods alone and no path is ever installed.
    let mut rt = Runtime::new();
    for dpid in 1..=3u64 {
        rt.add_switch_with_driver(dpid, 4, 1, vec![Version::V1_3], Version::V1_3);
    }
    rt.net.link_switches((1, 2), (2, 3), None);
    let ip = |s: &str| s.parse::<std::net::Ipv4Addr>().unwrap();
    let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
    let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
    rt.net.attach_host(h1, (1, 1), None);
    rt.net.attach_host(h2, (3, 1), None);
    rt.pump().unwrap();
    record_topology(&mut rt);
    let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
    rt.net.host_ping(h1, ip("10.0.0.2"), 1);
    settle(&mut rt, &mut [&mut router as &mut dyn PumpApp]);
    assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
    assert_eq!(router.paths_installed, 0);
    assert!(router.floods >= 4, "{} floods", router.floods);
    assert_eq!(router.topology.rebuilds, 1);
    assert_eq!(router.topology.revalidations, 0);
}

// ---------------------------------------------------------------------
// (d) the name-filtered watch
// ---------------------------------------------------------------------

fn kinds(watch: &WatchGuard) -> Vec<EventKind> {
    watch.receiver().try_iter().map(|e| e.kind).collect()
}

#[test]
fn named_watch_delivers_peer_entries_and_nothing_else() {
    let y = bare_world(2);
    let fs = y.filesystem().clone();
    let watch = fs
        .watch("/net/switches")
        .subtree()
        .named("peer")
        .register()
        .unwrap();
    let peer = y.port_dir("s0", 1).join("peer");
    let aside = y.port_dir("s0", 1).join("peer.old");

    y.set_peer("s0", 1, "s1", 1).unwrap(); // symlink
    assert_eq!(kinds(&watch), [EventKind::Create]);
    fs.rename(peer.as_str(), aside.as_str(), y.creds()).unwrap();
    assert_eq!(kinds(&watch), [EventKind::MovedFrom]);
    fs.rename(aside.as_str(), peer.as_str(), y.creds()).unwrap();
    assert_eq!(kinds(&watch), [EventKind::MovedTo]);
    y.clear_peer("s0", 1).unwrap(); // unlink
    assert_eq!(kinds(&watch), [EventKind::Delete]);
    y.set_peer("s0", 1, "s1", 1).unwrap();
    y.set_peer("s0", 2, "s1", 2).unwrap();
    assert_eq!(kinds(&watch).len(), 2);
    y.remove_switch("s0").unwrap(); // recursive rmdir
    assert_eq!(kinds(&watch), [EventKind::Delete, EventKind::Delete]);

    // The write side of the tree is loud, and the watch hears none of it.
    let spec = |i: u16| FlowSpec {
        m: FlowMatch {
            in_port: Some(i % 4 + 1),
            dl_dst: Some(MacAddr::from_seed(u64::from(i))),
            ..Default::default()
        },
        actions: vec![Action::out(2)],
        priority: 100,
        ..Default::default()
    };
    let flow_round = || {
        let flows = y.open_flows_dir("s1").unwrap();
        for i in 0..64 {
            y.write_flow_at(flows, &format!("f{i}"), &spec(i)).unwrap();
        }
        fs.close(flows, y.creds()).unwrap();
        for i in 0..64 {
            y.delete_flow("s1", &format!("f{i}")).unwrap();
        }
    };
    let hub = fs.notify();
    let (queued, delivered) = (hub.queued_events(), hub.delivered_events());
    flow_round();
    assert_eq!(hub.queued_events(), queued);
    assert_eq!(hub.delivered_events(), delivered);
    assert!(!watch.ready());
    // The same round through an unfiltered subtree watch, for scale.
    let all = fs.watch("/net/switches").subtree().register().unwrap();
    flow_round();
    assert!(kinds(&all).len() > 64 * 8);
    assert!(!watch.ready());
}

// ---------------------------------------------------------------------
// set_peer is idempotent: rediscovery does not disturb the view
// ---------------------------------------------------------------------

#[test]
fn repeated_set_peer_is_silent_and_reprobing_rescans_nothing() {
    let y = bare_world(2);
    let fs = y.filesystem().clone();
    y.set_peer("s0", 1, "s1", 1).unwrap();
    let all = fs
        .watch("/net")
        .subtree()
        .mask(EventMask::ALL)
        .register()
        .unwrap();
    y.set_peer("s0", 1, "s1", 1).unwrap();
    assert_eq!(kinds(&all), []);
    y.set_peer("s0", 1, "s1", 2).unwrap(); // a different port is a change
    assert_eq!(
        kinds(&all),
        [EventKind::DeleteSelf, EventKind::Delete, EventKind::Create]
    );
    assert_eq!(y.peer("s0", 1).unwrap(), Some(("s1".to_string(), 2)));

    // LLDP rediscovery of a converged fabric: every link is found again,
    // from both ends, and no router has to rescan because of it.
    let mut rt = Runtime::new();
    build_line(&mut rt, 4, Version::V1_3);
    let mut topod = TopologyDaemon::new(rt.yfs.clone()).unwrap();
    topod.probe().unwrap();
    settle(&mut rt, &mut [&mut topod as &mut dyn PumpApp]);
    let mut view = TopologyView::new(rt.yfs.clone()).unwrap();
    assert_eq!(view.shortest_path("sw1", "sw4").unwrap().unwrap().len(), 3);
    let links = topod.links_found;
    topod.probe().unwrap();
    settle(&mut rt, &mut [&mut topod as &mut dyn PumpApp]);
    assert!(topod.links_found > links, "the second round found links");
    assert_eq!(view.shortest_path("sw1", "sw4").unwrap().unwrap().len(), 3);
    assert_eq!(view.rebuilds, 1);
}
