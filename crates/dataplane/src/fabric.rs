//! Deterministic k-ary fat-tree fabrics (paper §8: data-center scale).
//!
//! A k-ary fat tree is the canonical folded-Clos data-center fabric:
//! `(k/2)²` core switches, `k` pods of `k/2` aggregation + `k/2` edge
//! switches, and `k/2` hosts per edge switch — `5k²/4` switches and
//! `k³/4` hosts, every switch with exactly `k` ports and full bisection
//! bandwidth. [`FatTree::new`] emits the whole shape — switches, hosts
//! and links — as plain data, fully determined by `k`: the same `k`
//! always yields the same dpids, names, addresses and wiring, which is
//! what makes fabric-scale experiments replayable syscall for syscall.
//!
//! Port plan (1-based, like the rest of the simulator):
//!
//! - **edge(p, e)**: ports `1..=k/2` go down to hosts, port `k/2+1+a`
//!   goes up to agg `a` of the same pod;
//! - **agg(p, a)**: port `1+e` goes down to edge `e`, port `k/2+1+j`
//!   goes up to core group `a`, member `j`;
//! - **core(g, j)** (index `g·k/2 + j`): port `1+p` goes down to pod
//!   `p`'s agg `g`.

use std::net::Ipv4Addr;

use yanc_openflow::Version;

use crate::net::Network;

/// Which layer of the fabric a switch sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricTier {
    /// Core (spine) layer.
    Core,
    /// Pod aggregation layer.
    Agg,
    /// Pod edge (top-of-rack) layer.
    Edge,
}

/// One switch of the fabric, as pure data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSwitch {
    /// Datapath id (unique, deterministic: tier tag in the high bits,
    /// pod/index below).
    pub dpid: u64,
    /// The name the driver will materialize it under (`sw{dpid:x}`).
    pub name: String,
    /// Layer.
    pub tier: FabricTier,
    /// Pod number for agg/edge switches; `None` for core.
    pub pod: Option<u16>,
    /// Ports — always `k` in a fat tree.
    pub n_ports: u16,
}

/// One host of the fabric, as pure data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricHost {
    /// Deterministic name `h<pod>_<edge>_<slot>`.
    pub name: String,
    /// Deterministic address `10.<pod>.<edge>.<slot+2>`.
    pub ip: Ipv4Addr,
    /// The `(dpid, port)` edge attachment.
    pub edge: (u64, u16),
}

/// A switch↔switch link: `((dpid, port), (dpid, port))`.
pub type FabricLink = ((u64, u16), (u64, u16));

/// A deterministic k-ary fat-tree shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTree {
    k: u16,
    switches: Vec<FabricSwitch>,
    hosts: Vec<FabricHost>,
    links: Vec<FabricLink>,
}

const CORE_BASE: u64 = 0x1_0000;
const AGG_BASE: u64 = 0x2_0000;
const EDGE_BASE: u64 = 0x3_0000;

fn agg_dpid(pod: u16, a: u16) -> u64 {
    AGG_BASE + ((pod as u64) << 8) + a as u64
}

fn edge_dpid(pod: u16, e: u16) -> u64 {
    EDGE_BASE + ((pod as u64) << 8) + e as u64
}

impl FatTree {
    /// Build the k-ary shape. `k` must be even, `2 ≤ k ≤ 254` (the
    /// address plan packs pod/edge/slot into one `10.x.y.z` octet each).
    pub fn new(k: u16) -> Self {
        assert!(k >= 2 && k % 2 == 0 && k <= 254, "k must be even, 2..=254");
        let h = k / 2; // half-k: group size everywhere
        let mut switches = Vec::new();
        let mut links = Vec::new();
        let mut hosts = Vec::new();

        for c in 0..h * h {
            let dpid = CORE_BASE + c as u64;
            switches.push(FabricSwitch {
                dpid,
                name: format!("sw{dpid:x}"),
                tier: FabricTier::Core,
                pod: None,
                n_ports: k,
            });
        }
        for pod in 0..k {
            for a in 0..h {
                let dpid = agg_dpid(pod, a);
                switches.push(FabricSwitch {
                    dpid,
                    name: format!("sw{dpid:x}"),
                    tier: FabricTier::Agg,
                    pod: Some(pod),
                    n_ports: k,
                });
            }
            for e in 0..h {
                let dpid = edge_dpid(pod, e);
                switches.push(FabricSwitch {
                    dpid,
                    name: format!("sw{dpid:x}"),
                    tier: FabricTier::Edge,
                    pod: Some(pod),
                    n_ports: k,
                });
            }
        }

        for pod in 0..k {
            // edge(p,e) port k/2+1+a  <->  agg(p,a) port 1+e
            for e in 0..h {
                for a in 0..h {
                    links.push(((edge_dpid(pod, e), h + 1 + a), (agg_dpid(pod, a), 1 + e)));
                }
            }
            // agg(p,a) port k/2+1+j  <->  core(a·k/2 + j) port 1+p
            for a in 0..h {
                for j in 0..h {
                    let core = CORE_BASE + (a * h + j) as u64;
                    links.push(((agg_dpid(pod, a), h + 1 + j), (core, 1 + pod)));
                }
            }
            // hosts: edge(p,e) ports 1..=k/2
            for e in 0..h {
                for slot in 0..h {
                    hosts.push(FabricHost {
                        name: format!("h{pod}_{e}_{slot}"),
                        ip: Ipv4Addr::new(10, pod as u8, e as u8, (slot + 2) as u8),
                        edge: (edge_dpid(pod, e), slot + 1),
                    });
                }
            }
        }

        FatTree {
            k,
            switches,
            hosts,
            links,
        }
    }

    /// The arity.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Every switch, core first, then pods in order (agg before edge).
    pub fn switches(&self) -> &[FabricSwitch] {
        &self.switches
    }

    /// Every host, pod-major order.
    pub fn hosts(&self) -> &[FabricHost] {
        &self.hosts
    }

    /// Every switch↔switch link as `((dpid, port), (dpid, port))`.
    pub fn links(&self) -> &[FabricLink] {
        &self.links
    }

    /// `5k²/4`.
    pub fn n_switches(&self) -> usize {
        self.switches.len()
    }

    /// `k³/4`.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Instantiate the shape in a simulated [`Network`]: every switch
    /// (speaking `versions`), every inter-switch link, every host. Does
    /// *not* attach controllers — that is the runtime's job (and the
    /// harness's `build_fabric` does both).
    pub fn materialize(&self, net: &mut Network, versions: &[Version]) {
        for s in &self.switches {
            net.add_switch(s.dpid, &s.name, s.n_ports, 1, versions.to_vec());
        }
        for &(a, b) in &self.links {
            net.link_switches(a, b, None);
        }
        for hst in &self.hosts {
            let id = net.add_host(&hst.name, hst.ip);
            net.attach_host(id, hst.edge, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn counts_match_the_formulas() {
        // k = 32 is the E26 headline shape: 1,280 switches, 8,192 hosts.
        for k in [2u16, 4, 6, 8, 32] {
            let ft = FatTree::new(k);
            let k = k as usize;
            assert_eq!(ft.n_switches(), 5 * k * k / 4);
            assert_eq!(ft.n_hosts(), k * k * k / 4);
            // k³/2 switch-switch links: k³/4 edge-agg + k³/4 agg-core.
            assert_eq!(ft.links().len(), k * k * k / 2);
        }
    }

    #[test]
    fn every_port_wired_exactly_once() {
        let ft = FatTree::new(4);
        let mut used: HashSet<(u64, u16)> = HashSet::new();
        for &(a, b) in ft.links() {
            assert!(used.insert(a), "duplicate endpoint {a:?}");
            assert!(used.insert(b), "duplicate endpoint {b:?}");
        }
        for h in ft.hosts() {
            assert!(used.insert(h.edge), "duplicate endpoint {:?}", h.edge);
        }
        // Full bisection: all k ports of every switch are in use.
        assert_eq!(used.len(), 4 * ft.n_switches());
        for (d, p) in used {
            let sw = ft.switches().iter().find(|s| s.dpid == d).unwrap();
            assert!(p >= 1 && p <= sw.n_ports, "port {p} out of range");
        }
    }

    #[test]
    fn deterministic_and_unique() {
        let a = FatTree::new(6);
        let b = FatTree::new(6);
        assert_eq!(a, b);
        let dpids: HashSet<u64> = a.switches().iter().map(|s| s.dpid).collect();
        assert_eq!(dpids.len(), a.n_switches());
        let ips: HashSet<Ipv4Addr> = a.hosts().iter().map(|h| h.ip).collect();
        assert_eq!(ips.len(), a.n_hosts());
    }

    #[test]
    fn materializes_into_a_network() {
        let ft = FatTree::new(4);
        let mut net = Network::new();
        ft.materialize(&mut net, &[Version::V1_3]);
        assert_eq!(net.links().len(), ft.links().len() + ft.n_hosts());
    }
}
