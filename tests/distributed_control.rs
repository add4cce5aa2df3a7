//! E11 + E12: the distributed controller (§6) end to end — a flow written
//! on one controller node programs a switch attached to another, across
//! all three DFS backends; plus failure injection.

use yanc::{FlowSpec, YancFs};
use yanc_dfs::{Backend, Cluster};
use yanc_driver::Runtime;
use yanc_openflow::{port_no, Action, FlowMatch, Version};
use yanc_vfs::Credentials;

/// Build: cluster of `n` nodes; node 0 hosts the switch + driver. Every
/// node's replica is yanc-initialized (hooks registered) — on a real
/// deployment each controller machine mounts its own yanc fs.
fn world(n: usize, backend: Backend) -> (Cluster, Runtime) {
    let mut cluster = Cluster::new(n, backend, 150, "/net");
    for node in &cluster.nodes[1..] {
        YancFs::init(node.fs.clone(), "/net").unwrap();
    }
    let mut rt = Runtime::with_fs(cluster.nodes[0].fs.clone());
    rt.add_switch_with_driver(0xd, 4, 1, vec![Version::V1_0], Version::V1_0);
    let h1 = rt.net.add_host("h1", "10.0.0.1".parse().unwrap());
    let h2 = rt.net.add_host("h2", "10.0.0.2".parse().unwrap());
    rt.net.attach_host(h1, (0xd, 1), None);
    rt.net.attach_host(h2, (0xd, 2), None);
    rt.pump().unwrap();
    cluster.pump();
    (cluster, rt)
}

fn remote_write_programs_switch(backend: Backend) {
    let (mut cluster, mut rt) = world(3, backend);
    // The switch skeleton replicated to every node.
    for (i, node) in cluster.nodes.iter().enumerate() {
        assert!(
            node.fs.exists("/net/switches/swd/id", &Credentials::root()),
            "{backend:?}: node {i} missing the switch"
        );
    }
    // Write the flow on node 2, through plain file I/O there.
    let remote = YancFs::new(cluster.nodes[2].fs.clone(), "/net");
    let spec = FlowSpec {
        m: FlowMatch::any(),
        actions: vec![Action::out(port_no::FLOOD)],
        priority: 5,
        ..Default::default()
    };
    remote.write_flow("swd", "flood", &spec).unwrap();
    cluster.pump();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xd].flow_count(), 1, "{backend:?}");
    // Traffic flows.
    rt.net.host_ping(1, "10.0.0.2".parse().unwrap(), 1);
    rt.pump().unwrap();
    assert_eq!(rt.net.hosts[&1].ping_replies.len(), 1, "{backend:?}");
    // Flow delete on the remote node reaches hardware too.
    remote.delete_flow("swd", "flood").unwrap();
    cluster.pump();
    rt.pump().unwrap();
    assert_eq!(rt.net.switches[&0xd].flow_count(), 0, "{backend:?}");
}

#[test]
fn e11_central_backend() {
    remote_write_programs_switch(Backend::Central { primary: 0 });
}

#[test]
fn e11_dht_backend() {
    remote_write_programs_switch(Backend::Dht);
}

#[test]
fn e11_policy_backend() {
    remote_write_programs_switch(Backend::Policy);
}

#[test]
fn e12_backend_latency_tradeoffs() {
    // Central: non-primary writes take 2 hops; primary writes 1 hop.
    let mut central = Cluster::new(4, Backend::Central { primary: 0 }, 100, "/net");
    assert_eq!(central.timed_write(0, "/net/a", b"1"), 100);
    assert_eq!(central.timed_write(3, "/net/b", b"1"), 200);

    // Policy with eventual consistency: any writer is 1 hop.
    let mut pol = Cluster::new(4, Backend::Policy, 100, "/net");
    for n in &pol.nodes {
        n.fs.mkdir_all(
            "/net/counters",
            yanc_vfs::Mode::DIR_DEFAULT,
            &Credentials::root(),
        )
        .unwrap();
        n.fs.set_xattr(
            "/net/counters",
            "user.consistency",
            b"eventual",
            &Credentials::root(),
        )
        .unwrap();
    }
    pol.pump();
    assert_eq!(pol.timed_write(3, "/net/counters/c", b"1"), 100);

    // The central primary carries all forwarded traffic — a hotspot the
    // DHT spreads. Count forwarded ops per backend for the same workload.
    let mut central = Cluster::new(4, Backend::Central { primary: 0 }, 10, "/net");
    let mut dht = Cluster::new(4, Backend::Dht, 10, "/net");
    for i in 0..16 {
        let w = i % 4;
        central.nodes[w]
            .fs
            .write_file(&format!("/net/k{i}"), b"v", &Credentials::root())
            .unwrap();
        dht.nodes[w]
            .fs
            .write_file(&format!("/net/k{i}"), b"v", &Credentials::root())
            .unwrap();
    }
    central.pump();
    dht.pump();
    // Central forwards every non-primary writer's op — always 12 of 16 —
    // and the primary orders all of them (a hotspot). The DHT forwards
    // only when the writer isn't the path's owner; the *ordering work*
    // spreads across nodes even when the forward count is similar.
    assert_eq!(central.stats.forwarded, 12);
    assert!(dht.stats.forwarded <= 16);
    // Both converge identically.
    for i in 0..16 {
        assert!(central.converged(&format!("/net/k{i}")));
        assert!(dht.converged(&format!("/net/k{i}")));
    }
}

#[test]
fn e12_concurrent_conflicting_flow_writes_converge() {
    let mut cluster = Cluster::new(3, Backend::Dht, 50, "/net");
    for n in &cluster.nodes {
        YancFs::init(n.fs.clone(), "/net").unwrap();
    }
    let y0 = YancFs::new(cluster.nodes[0].fs.clone(), "/net");
    let y1 = YancFs::new(cluster.nodes[1].fs.clone(), "/net");
    y0.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
    cluster.pump();
    // Two nodes write the same flow concurrently (before propagation).
    let a = FlowSpec {
        actions: vec![Action::out(1)],
        priority: 10,
        ..Default::default()
    };
    let b = FlowSpec {
        actions: vec![Action::out(2)],
        priority: 20,
        ..Default::default()
    };
    y0.write_flow("sw1", "clash", &a).unwrap();
    y1.write_flow("sw1", "clash", &b).unwrap();
    cluster.pump();
    // LWW: every replica reads the same winner.
    let specs: Vec<FlowSpec> = cluster
        .nodes
        .iter()
        .map(|n| {
            YancFs::new(n.fs.clone(), "/net")
                .read_flow("sw1", "clash")
                .unwrap()
        })
        .collect();
    assert_eq!(specs[0].priority, specs[1].priority);
    assert_eq!(specs[1].priority, specs[2].priority);
    assert_eq!(specs[0].actions, specs[1].actions);
}

#[test]
fn e11_node_failure_does_not_block_the_rest() {
    let (mut cluster, mut rt) = world(3, Backend::Dht);
    cluster.set_down(1);
    // Writes from node 2 still reach node 0's switch.
    let remote = YancFs::new(cluster.nodes[2].fs.clone(), "/net");
    let spec = FlowSpec {
        actions: vec![Action::out(2)],
        priority: 9,
        ..Default::default()
    };
    remote.write_flow("swd", "resilient", &spec).unwrap();
    cluster.pump();
    rt.pump().unwrap();
    // The path's DHT owner may be any node. With node 1 down some ops can
    // be lost (no retransmit in this model — documented); if the *commit*
    // (version=1) made it to node 0 the flow must be in hardware. (The
    // version file existing with "0" only means the mkdir replicated and
    // the local hook seeded it.)
    let committed = cluster.nodes[0]
        .fs
        .read_to_string(
            "/net/switches/swd/flows/resilient/version",
            &Credentials::root(),
        )
        .map(|v| v.trim() == "1")
        .unwrap_or(false);
    if committed {
        assert_eq!(rt.net.switches[&0xd].flow_count(), 1);
    }
    // Healed node resumes receiving new writes.
    cluster.set_up(1);
    remote.write_flow("swd", "after_heal", &spec).unwrap();
    cluster.pump();
    rt.pump().unwrap();
    let ok = cluster.nodes[1].fs.exists(
        "/net/switches/swd/flows/after_heal/version",
        &Credentials::root(),
    );
    // Owner routing may or may not traverse node 1; at minimum the write
    // converges across live nodes.
    assert!(cluster.converged("/net/switches/swd/flows/after_heal/version") || ok);
}
