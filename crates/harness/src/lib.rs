//! # yanc-harness — scenario builders shared by examples, tests and `benchmark/`
//!
//! Standard topologies (line, ring, tree, fat-tree) built on a
//! [`Runtime`], ground-truth topology recording, combined pumping of
//! runtime + applications, and declarative workload descriptions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::net::Ipv4Addr;

use yanc::FlowSpec;
use yanc_apps::{LearningSwitch, RouterDaemon, TopologyDaemon};
use yanc_dataplane::FlowEntry;
use yanc_driver::Runtime;
use yanc_openflow::Version;

/// Anything pumpable alongside the runtime.
pub trait PumpApp {
    /// Process pending work; return whether any was done.
    fn pump_once(&mut self) -> bool;
}

impl PumpApp for RouterDaemon {
    fn pump_once(&mut self) -> bool {
        self.run_once()
    }
}

impl PumpApp for TopologyDaemon {
    fn pump_once(&mut self) -> bool {
        self.run_once()
    }
}

impl PumpApp for LearningSwitch {
    fn pump_once(&mut self) -> bool {
        self.run_once()
    }
}

/// Pump the runtime and a set of applications until everything is quiet.
pub fn settle(rt: &mut Runtime, apps: &mut [&mut dyn PumpApp]) {
    let mut idle_rounds = 0;
    while idle_rounds < 2 {
        let net = rt.pump().unwrap();
        let mut worked = false;
        for a in apps.iter_mut() {
            worked |= a.pump_once();
        }
        if net <= 1 && !worked {
            idle_rounds += 1;
        } else {
            idle_rounds = 0;
        }
    }
}

/// [`settle`] for supervised fleets: step supervisor + runtime together
/// until the network, every process, every pending restart and every
/// scheduled control-plane fault have all quiesced.
///
/// Two consecutive idle steps are required, mirroring [`settle`]: one tick
/// of silence can be a restart backoff hole rather than convergence.
pub fn settle_supervised(rt: &mut Runtime, sup: &mut yanc_init::Supervisor) {
    let mut idle_rounds = 0;
    let mut steps = 0u32;
    while idle_rounds < 2 {
        let worked = sup.step(rt);
        let pending = sup.faults.pending_net() > 0
            || sup
                .processes()
                .iter()
                .any(|(_, _, s)| *s == yanc_init::ProcessState::Backoff);
        if !worked && !pending {
            idle_rounds += 1;
        } else {
            idle_rounds = 0;
        }
        steps += 1;
        assert!(steps < 10_000, "supervised settle did not converge");
    }
}

/// The flow half of the cross-layer oracle: does `/net` agree with what
/// the switches actually hold? For every simulated switch, each committed
/// flow directory under `/net/switches/sw<dpid>/flows` (version ≥ 1, no
/// `error` file) must match exactly one entry of that switch's tables, and
/// each table entry exactly one such directory. Match, priority, actions,
/// timeouts, cookie and goto-table must all agree. `Err` names the first
/// disagreement. Flows installed through a libyanc fastpath have no
/// directory, so a runtime using one fails the check by design.
///
/// The directories are read like any reader would (one `open_dir` and
/// listing per switch, then the 4-call object reader per flow), so the
/// check is charged to the syscall counters.
pub fn check_flows(rt: &Runtime) -> Result<(), String> {
    for (dpid, switch) in &rt.net.switches {
        let sw = format!("sw{dpid:x}");
        let dirs = committed_flows(&rt.yfs, &sw)?;
        let tables = (0..=u8::MAX).map_while(|t| switch.table(t));
        // What each table entry says, in a flow directory's terms.
        let entries: Vec<FlowSpec> = tables
            .flat_map(|t| t.iter())
            .map(|e: &FlowEntry| FlowSpec {
                m: e.m,
                actions: e.actions.clone(),
                priority: e.priority,
                idle_timeout: e.idle_timeout,
                hard_timeout: e.hard_timeout,
                cookie: e.cookie,
                goto_table: e.goto_table,
                version: 0,
            })
            .collect();
        for (name, spec) in &dirs {
            let n = entries.iter().filter(|e| *e == spec).count();
            if n != 1 {
                return Err(format!(
                    "{sw}: flow {name} matches {n} table entries: {spec:?}"
                ));
            }
        }
        for e in &entries {
            let n = dirs.iter().filter(|(_, spec)| spec == e).count();
            if n != 1 {
                return Err(format!(
                    "{sw}: table entry matches {n} flow directories: {e:?}"
                ));
            }
        }
    }
    Ok(())
}

/// The committed flows of `sw` as `(name, spec)`: version ≥ 1 and no
/// `error` report, the version then cleared (a switch entry has none). A
/// switch with no `flows/` directory has none.
fn committed_flows(yfs: &yanc::YancFs, sw: &str) -> Result<Vec<(String, FlowSpec)>, String> {
    let Ok(flows) = yfs.open_flows_dir(sw) else {
        return Ok(Vec::new());
    };
    let fs = yfs.filesystem();
    let read = || {
        let mut out = Vec::new();
        for entry in fs.readdir_fd(flows).map_err(|e| format!("{sw}: {e}"))? {
            let fail = |e: &dyn std::fmt::Display| format!("{sw}: flow {}: {e}", entry.name);
            let fields = yfs
                .get_objects_at(flows, &entry.name)
                .map_err(|e| fail(&e))?;
            if fields.iter().any(|(k, _)| k == "error") {
                continue;
            }
            let files = fields.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            match FlowSpec::from_files(files).map_err(|e| fail(&e))? {
                spec if spec.version == 0 => {}
                spec => out.push((entry.name, FlowSpec { version: 0, ..spec })),
            }
        }
        Ok(out)
    };
    let out = read();
    let _ = fs.close(flows, yfs.creds());
    out
}

/// A built topology: switch dpids plus attached hosts.
pub struct Topo {
    /// Shape label (for reports).
    pub name: String,
    /// Switch datapath ids.
    pub switches: Vec<u64>,
    /// `(host id, ip)` pairs.
    pub hosts: Vec<(u64, Ipv4Addr)>,
}

fn host_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, (i / 250) as u8, (i % 250 + 1) as u8)
}

/// Copy the network's ground-truth links into the fs as `peer` symlinks
/// (what the topology daemon would discover; used directly when discovery
/// itself is not under test).
pub fn record_topology(rt: &mut Runtime) {
    let links: Vec<_> = rt.net.links().to_vec();
    for l in links {
        if let (
            yanc_dataplane::Endpoint::Switch { dpid: da, port: pa },
            yanc_dataplane::Endpoint::Switch { dpid: db, port: pb },
        ) = (l.a, l.b)
        {
            let a = format!("sw{da:x}");
            let b = format!("sw{db:x}");
            let _ = rt.yfs.set_peer(&a, pa, &b, pb);
            let _ = rt.yfs.set_peer(&b, pb, &a, pa);
        }
    }
}

/// Install `spec` as the flow directory `flow_dir` the way an operator at
/// a shell does (paper §3.4): `mkdir`, one `echo … >` per field file, then
/// `echo 1 > version` to commit. One path-resolved call per file — the
/// cost §8.1 worries about, and what E4 prices.
pub fn shell_install_flow(sh: &mut yanc_coreutils::Shell, flow_dir: &str, spec: &yanc::FlowSpec) {
    let out = sh.run(&format!("mkdir {flow_dir}"));
    assert!(out.success(), "mkdir {flow_dir}: {}", out.err);
    // `to_files` puts `version` last; a first commit is version 1.
    for (file, value) in spec.to_files() {
        let value = if file == "version" { "1" } else { &value };
        let out = sh.run(&format!("echo {value} > {flow_dir}/{file}"));
        assert!(out.success(), "echo > {flow_dir}/{file}: {}", out.err);
    }
}

/// A line of `n` switches, one host on each end switch.
/// Port plan: port 1 = host/edge, port 2 = next switch, port 3 = previous.
pub fn build_line(rt: &mut Runtime, n: usize, version: Version) -> Topo {
    assert!(n >= 1);
    let mut switches = Vec::new();
    for i in 0..n {
        let dpid = (i + 1) as u64;
        rt.add_switch_with_driver(dpid, 4, 1, vec![version], version);
        switches.push(dpid);
    }
    for i in 0..n - 1 {
        rt.net
            .link_switches((switches[i], 2), (switches[i + 1], 3), None);
    }
    let mut hosts = Vec::new();
    for (idx, sw) in [(0usize, switches[0]), (1, switches[n - 1])] {
        let ip = host_ip(idx);
        let h = rt.net.add_host(&format!("h{}", idx + 1), ip);
        rt.net.attach_host(h, (sw, 1), None);
        hosts.push((h, ip));
    }
    rt.pump().unwrap();
    Topo {
        name: format!("line-{n}"),
        switches,
        hosts,
    }
}

/// A ring of `n` switches (n ≥ 3), one host per switch.
/// Port plan: 1 = host, 2 = clockwise, 3 = counter-clockwise.
pub fn build_ring(rt: &mut Runtime, n: usize, version: Version) -> Topo {
    assert!(n >= 3);
    let mut switches = Vec::new();
    for i in 0..n {
        let dpid = (i + 1) as u64;
        rt.add_switch_with_driver(dpid, 4, 1, vec![version], version);
        switches.push(dpid);
    }
    for i in 0..n {
        rt.net
            .link_switches((switches[i], 2), (switches[(i + 1) % n], 3), None);
    }
    let mut hosts = Vec::new();
    for (i, &sw) in switches.iter().enumerate() {
        let ip = host_ip(i);
        let h = rt.net.add_host(&format!("h{}", i + 1), ip);
        rt.net.attach_host(h, (sw, 1), None);
        hosts.push((h, ip));
    }
    rt.pump().unwrap();
    Topo {
        name: format!("ring-{n}"),
        switches,
        hosts,
    }
}

/// A complete `fanout`-ary tree of the given `depth` (depth 1 = a single
/// switch), hosts on every leaf switch.
pub fn build_tree(rt: &mut Runtime, depth: u32, fanout: u16, version: Version) -> Topo {
    assert!(depth >= 1 && fanout >= 1);
    let mut switches = Vec::new();
    // Level-order allocation. Ports: 1 = host (leaves), 2..=fanout+1 =
    // children, last port = uplink.
    let n_ports = fanout + 2;
    let total: usize = (0..depth).map(|d| (fanout as usize).pow(d)).sum();
    for i in 0..total {
        let dpid = (i + 1) as u64;
        rt.add_switch_with_driver(dpid, n_ports, 1, vec![version], version);
        switches.push(dpid);
    }
    // Wire parent -> children (level-order heap indexing).
    #[allow(clippy::needless_range_loop)] // index arithmetic names the heap layout
    for i in 0..total {
        let mut next_child: u16 = 0;
        for c in 0..fanout as usize {
            let child = i * fanout as usize + 1 + c;
            if child >= total {
                break;
            }
            next_child += 1;
            let parent_port = 1 + next_child; // 2..=fanout+1
            let uplink = n_ports; // child's last port
            rt.net
                .link_switches((switches[i], parent_port), (switches[child], uplink), None);
        }
    }
    // Hosts at leaves (nodes with no children).
    let mut hosts = Vec::new();
    for (i, &sw) in switches.iter().enumerate() {
        let first_child = i * fanout as usize + 1;
        if first_child >= total {
            let ip = host_ip(hosts.len());
            let h = rt.net.add_host(&format!("h{}", hosts.len() + 1), ip);
            rt.net.attach_host(h, (sw, 1), None);
            hosts.push((h, ip));
        }
    }
    rt.pump().unwrap();
    Topo {
        name: format!("tree-d{depth}f{fanout}"),
        switches,
        hosts,
    }
}

/// A k=4-style folded-Clos ("fat tree") with 2 cores, `pods` pods of
/// 2 aggregation + 2 edge switches, and 2 hosts per edge switch.
pub fn build_fat_tree(rt: &mut Runtime, pods: usize, version: Version) -> Topo {
    assert!(pods >= 1);
    let mut switches = Vec::new();
    let mut next_dpid = 1u64;
    let add = |rt: &mut Runtime, next_dpid: &mut u64, ports: u16| {
        let d = *next_dpid;
        rt.add_switch_with_driver(d, ports, 1, vec![version], version);
        *next_dpid += 1;
        d
    };
    let core: Vec<u64> = (0..2)
        .map(|_| add(rt, &mut next_dpid, (pods * 2) as u16))
        .collect();
    let mut hosts = Vec::new();
    let mut core_next: Vec<u16> = vec![0; 2];
    for _p in 0..pods {
        let aggs: Vec<u64> = (0..2).map(|_| add(rt, &mut next_dpid, 6)).collect();
        let edges: Vec<u64> = (0..2).map(|_| add(rt, &mut next_dpid, 6)).collect();
        // agg i <-> core i (agg port 1).
        for (i, &agg) in aggs.iter().enumerate() {
            core_next[i] += 1;
            rt.net
                .link_switches((core[i], core_next[i]), (agg, 1), None);
        }
        // full mesh agg <-> edge: agg ports 2,3 / edge ports 1,2.
        for (ai, &agg) in aggs.iter().enumerate() {
            for (ei, &edge) in edges.iter().enumerate() {
                rt.net
                    .link_switches((agg, (2 + ei) as u16), (edge, (1 + ai) as u16), None);
            }
        }
        // hosts: edge ports 3,4.
        for &edge in &edges {
            for hp in 0..2u16 {
                let ip = host_ip(hosts.len());
                let h = rt.net.add_host(&format!("h{}", hosts.len() + 1), ip);
                rt.net.attach_host(h, (edge, 3 + hp), None);
                hosts.push((h, ip));
            }
        }
        switches.extend(aggs);
        switches.extend(edges);
    }
    switches.extend(core);
    rt.pump().unwrap();
    Topo {
        name: format!("fat-tree-{pods}pods"),
        switches,
        hosts,
    }
}

/// A full k-ary fat-tree fabric ([`yanc_dataplane::FatTree`]) with one
/// driver per switch: `5k²/4` switches, `k³/4` hosts, full bisection
/// wiring — the data-center-scale shape (§8). The single `pump` at the
/// end runs every handshake to quiescence, so on return the whole fabric
/// is materialized under `/net/switches`.
pub fn build_fabric(rt: &mut Runtime, k: u16, version: Version) -> Topo {
    let ft = yanc_dataplane::FatTree::new(k);
    let mut switches = Vec::with_capacity(ft.n_switches());
    for s in ft.switches() {
        rt.add_switch_with_driver(s.dpid, s.n_ports, 1, vec![version], version);
        switches.push(s.dpid);
    }
    for &(a, b) in ft.links() {
        rt.net.link_switches(a, b, None);
    }
    let mut hosts = Vec::with_capacity(ft.n_hosts());
    for h in ft.hosts() {
        let id = rt.net.add_host(&h.name, h.ip);
        rt.net.attach_host(id, h.edge, None);
        hosts.push((id, h.ip));
    }
    rt.pump().unwrap();
    Topo {
        name: format!("fabric-k{k}"),
        switches,
        hosts,
    }
}

/// Declarative workload/scenario description (serialized into benchmark
/// reports so parameters travel with results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Topology label.
    pub topology: String,
    /// Switch count.
    pub switches: usize,
    /// Host count.
    pub hosts: usize,
    /// Protocol version label.
    pub protocol: String,
    /// Free-form workload note.
    pub workload: String,
}

impl Scenario {
    /// Describe a built topology.
    pub fn of(topo: &Topo, version: Version, workload: &str) -> Scenario {
        Scenario {
            topology: topo.name.clone(),
            switches: topo.switches.len(),
            hosts: topo.hosts.len(),
            protocol: version.to_string(),
            workload: workload.to_string(),
        }
    }
}

/// All-pairs ping among the topology's hosts (sequentially, settling the
/// world between pings). Returns `(sent, answered)`.
pub fn ping_all_pairs(
    rt: &mut Runtime,
    topo: &Topo,
    apps: &mut [&mut dyn PumpApp],
) -> (usize, usize) {
    let mut sent = 0;
    let mut seq = 0u16;
    for (i, &(h_src, _)) in topo.hosts.iter().enumerate() {
        for (j, &(_, ip_dst)) in topo.hosts.iter().enumerate() {
            if i == j {
                continue;
            }
            seq += 1;
            sent += 1;
            rt.net.host_ping(h_src, ip_dst, seq);
            settle(rt, apps);
        }
    }
    let answered: usize = topo
        .hosts
        .iter()
        .map(|(h, _)| rt.net.hosts[h].ping_replies.len())
        .sum();
    (sent, answered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_builds_and_connects() {
        let mut rt = Runtime::new();
        let topo = build_line(&mut rt, 3, Version::V1_0);
        assert_eq!(topo.switches.len(), 3);
        assert_eq!(topo.hosts.len(), 2);
        assert_eq!(rt.yfs.list_switches().unwrap().len(), 3);
        record_topology(&mut rt);
        // fs topology matches: 2 bidirectional links = 4 directed.
        assert_eq!(rt.yfs.topology().unwrap().len(), 4);
    }

    #[test]
    fn ring_and_tree_shapes() {
        let mut rt = Runtime::new();
        let topo = build_ring(&mut rt, 4, Version::V1_3);
        assert_eq!(topo.switches.len(), 4);
        assert_eq!(topo.hosts.len(), 4);
        record_topology(&mut rt);
        assert_eq!(rt.yfs.topology().unwrap().len(), 8);

        let mut rt2 = Runtime::new();
        let tree = build_tree(&mut rt2, 3, 2, Version::V1_0);
        assert_eq!(tree.switches.len(), 7); // 1 + 2 + 4
        assert_eq!(tree.hosts.len(), 4); // hosts at 4 leaves
        record_topology(&mut rt2);
        assert_eq!(rt2.yfs.topology().unwrap().len(), 12); // 6 links
    }

    #[test]
    fn fat_tree_shape() {
        let mut rt = Runtime::new();
        let topo = build_fat_tree(&mut rt, 2, Version::V1_0);
        // 2 core + 2 pods x (2 agg + 2 edge) = 10 switches; 8 hosts.
        assert_eq!(topo.switches.len(), 10);
        assert_eq!(topo.hosts.len(), 8);
        record_topology(&mut rt);
        // links: core-agg 4 + agg-edge mesh 8 = 12 -> 24 directed.
        assert_eq!(rt.yfs.topology().unwrap().len(), 24);
    }

    #[test]
    fn fabric_builds_and_materializes() {
        let mut rt = Runtime::new();
        let topo = build_fabric(&mut rt, 4, Version::V1_3);
        assert_eq!(topo.switches.len(), 20); // 4 core + 4 pods x (2+2)
        assert_eq!(topo.hosts.len(), 16);
        assert_eq!(rt.yfs.list_switches().unwrap().len(), 20);
        for &d in &topo.switches {
            let sw = format!("sw{d:x}");
            assert_eq!(rt.yfs.list_ports(&sw).unwrap().len(), 4);
            assert_eq!(rt.yfs.switch_dpid(&sw).unwrap(), d);
        }
    }

    #[test]
    fn end_to_end_router_on_line() {
        let mut rt = Runtime::new();
        let topo = build_line(&mut rt, 3, Version::V1_0);
        record_topology(&mut rt);
        let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
        let (sent, answered) =
            ping_all_pairs(&mut rt, &topo, &mut [&mut router as &mut dyn PumpApp]);
        assert_eq!(sent, 2);
        assert_eq!(answered, 2, "all pings answered via installed paths");
    }

    #[test]
    fn scenario_serializes() {
        let mut rt = Runtime::new();
        let topo = build_line(&mut rt, 2, Version::V1_0);
        let s = Scenario::of(&topo, Version::V1_0, "ping");
        assert_eq!(s.switches, 2);
        assert!(s.protocol.contains("1.0"));
    }
}
