//! A layer-4 load balancer — one of the "control-plane-centric topics such
//! as load balancing, congestion control, and security" the paper's
//! conclusion says yanc should let researchers focus on.
//!
//! Fully file-configured: the VIP and its backend pool live under
//! `/net/lb/<name>/`:
//!
//! ```text
//! /net/lb/web/
//! ├── vip        → "10.0.0.100"
//! └── servers    → one "ip mac" per line
//! ```
//!
//! The daemon answers ARP for the VIP, and on a TCP SYN to the VIP picks a
//! backend round-robin and installs **two rewrite flows** on the client's
//! edge switch: forward (dst IP/MAC rewritten to the backend) and reverse
//! (src rewritten back to the VIP) — exercising the action-rewrite
//! machinery end to end. Connection counts are written back into
//! `/net/lb/<name>/stats/<backend-ip>` so `cat` shows the balance.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use yanc::{EventSubscription, FlowSpec, Object, PacketInRecord, YancFs};
use yanc_openflow::{port_no, Action, FlowMatch, Ipv4Prefix};
use yanc_packet::{build_arp_reply, EtherType, EthernetFrame, MacAddr, PacketSummary};
use yanc_vfs::Mode;

/// One backend server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// Server IP.
    pub ip: Ipv4Addr,
    /// Server MAC.
    pub mac: MacAddr,
}

/// The load-balancer daemon (serves every pool under `/net/lb/`).
pub struct LoadBalancer {
    yfs: YancFs,
    sub: EventSubscription,
    /// Round-robin cursor per pool.
    cursors: HashMap<String, usize>,
    /// Connections assigned per backend IP (also mirrored to stats files).
    pub assignments: HashMap<Ipv4Addr, u64>,
    vip_mac: MacAddr,
    seq: u64,
}

/// Write a pool definition under `/net/lb/<name>/`.
pub fn define_pool(
    yfs: &YancFs,
    name: &str,
    vip: Ipv4Addr,
    backends: &[Backend],
) -> yanc::YancResult<()> {
    let lb = yfs.root().join("lb");
    let stats = lb.join(name).join("stats");
    yfs.filesystem()
        .mkdir_all(stats.as_str(), Mode::DIR_DEFAULT, yfs.creds())?;
    let servers: String = backends
        .iter()
        .map(|b| format!("{} {}\n", b.ip, b.mac))
        .collect();
    let pool = |_fresh| Ok(vec![("vip", vip.to_string()), ("servers", servers)]);
    yfs.put_objects(&lb, [Object::new(name, pool)])?;
    Ok(())
}

impl LoadBalancer {
    /// Subscribe as `lb`. The VIPs answer ARP with a stable virtual MAC.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("lb")?;
        let fs = yfs.filesystem();
        fs.mkdir_all(
            yfs.root().join("lb").as_str(),
            Mode::DIR_DEFAULT,
            yfs.creds(),
        )?;
        Ok(LoadBalancer {
            yfs,
            sub,
            cursors: HashMap::new(),
            assignments: HashMap::new(),
            vip_mac: MacAddr::from_seed(0x1b1b_0001),
            seq: 0,
        })
    }

    /// The MAC the balancer answers VIP ARP with.
    pub fn vip_mac(&self) -> MacAddr {
        self.vip_mac
    }

    fn pools(&self) -> Vec<(String, Ipv4Addr, Vec<Backend>)> {
        let fs = self.yfs.filesystem();
        let lb_dir = self.yfs.root().join("lb");
        let mut out = Vec::new();
        let entries = match fs.readdir(lb_dir.as_str(), self.yfs.creds()) {
            Ok(e) => e,
            Err(_) => return out,
        };
        for e in entries {
            let dir = lb_dir.join(&e.name);
            let vip = fs
                .read_to_string(dir.join("vip").as_str(), self.yfs.creds())
                .ok()
                .and_then(|s| s.trim().parse().ok());
            let servers = fs.read_to_string(dir.join("servers").as_str(), self.yfs.creds());
            if let (Some(vip), Ok(servers)) = (vip, servers) {
                let backends: Vec<Backend> = servers
                    .lines()
                    .filter_map(|l| {
                        let (ip, mac) = l.trim().split_once(' ')?;
                        Some(Backend {
                            ip: ip.parse().ok()?,
                            mac: mac.parse().ok()?,
                        })
                    })
                    .collect();
                if !backends.is_empty() {
                    out.push((e.name, vip, backends));
                }
            }
        }
        out
    }

    /// Drain packet-ins; answer VIP ARP and balance VIP SYNs.
    pub fn run_once(&mut self) -> bool {
        let recs = self.sub.drain_all();
        let worked = !recs.is_empty();
        for rec in recs {
            self.handle(&rec);
        }
        worked
    }

    fn handle(&mut self, rec: &PacketInRecord) {
        let summary = match PacketSummary::parse(&rec.data) {
            Ok(s) => s,
            Err(_) => return,
        };
        let pools = self.pools();
        // ARP for a VIP: answer directly.
        if summary.dl_type == EtherType::ARP.0 && summary.nw_proto == Some(1) {
            if let Some(tpa) = summary.nw_dst {
                if pools.iter().any(|(_, vip, _)| *vip == tpa) {
                    let eth = match EthernetFrame::parse(&rec.data) {
                        Ok(e) => e,
                        Err(_) => return,
                    };
                    let reply =
                        build_arp_reply(self.vip_mac, tpa, eth.src, summary.nw_src.unwrap_or(tpa));
                    // Unicast the reply back out the requester's port.
                    self.packet_out(&rec.switch, port_no::NONE, rec.in_port, &reply);
                }
            }
            return;
        }
        // TCP toward a VIP: pick a backend and wire the rewrites.
        let (Some(dst), Some(6)) = (summary.nw_dst, summary.nw_proto) else {
            return;
        };
        let Some((pool, vip, backends)) = pools.into_iter().find(|(_, vip, _)| *vip == dst) else {
            return;
        };
        let cursor = self.cursors.entry(pool.clone()).or_insert(0);
        let backend = backends[*cursor % backends.len()];
        *cursor += 1;
        self.seq += 1;
        *self.assignments.entry(backend.ip).or_insert(0) += 1;
        let stats = self
            .yfs
            .root()
            .join("lb")
            .join(&pool)
            .join("stats")
            .join(&backend.ip.to_string());
        let _ = self.yfs.filesystem().write_file(
            stats.as_str(),
            self.assignments[&backend.ip].to_string().as_bytes(),
            self.yfs.creds(),
        );

        // Forward: client→VIP rewritten to client→backend, flooded toward
        // hosts (single-switch pools; multi-switch would compose with the
        // router's paths).
        let fwd = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                nw_proto: Some(6),
                nw_src: summary.nw_src.map(Ipv4Prefix::host),
                nw_dst: Some(Ipv4Prefix::host(vip)),
                tp_src: summary.tp_src,
                tp_dst: summary.tp_dst,
                ..Default::default()
            },
            actions: vec![
                Action::SetDlDst(backend.mac),
                Action::SetNwDst(backend.ip),
                Action::out(port_no::FLOOD),
            ],
            priority: 50000,
            idle_timeout: 120,
            cookie: self.seq,
            ..Default::default()
        };
        // Reverse: backend→client rewritten to VIP→client.
        let rev = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                nw_proto: Some(6),
                nw_src: Some(Ipv4Prefix::host(backend.ip)),
                nw_dst: summary.nw_src.map(Ipv4Prefix::host),
                tp_src: summary.tp_dst, // the service port
                tp_dst: summary.tp_src, // back to the client's port
                ..Default::default()
            },
            actions: vec![
                Action::SetDlSrc(self.vip_mac),
                Action::SetNwSrc(vip),
                Action::out(port_no::FLOOD),
            ],
            priority: 50000,
            idle_timeout: 120,
            cookie: self.seq,
            ..Default::default()
        };
        let client = format!(
            "{}_{}",
            summary
                .nw_src
                .map(|ip| ip.to_string().replace('.', "_"))
                .unwrap_or_else(|| "unknown".into()),
            summary.tp_src.unwrap_or(0)
        );
        let _ = self
            .yfs
            .write_flow(&rec.switch, &format!("lb_{pool}_{client}_fwd"), &fwd);
        let _ = self
            .yfs
            .write_flow(&rec.switch, &format!("lb_{pool}_{client}_rev"), &rev);
        // Release the triggering packet with the rewrite applied.
        let out_frame = match yanc_dataplane::apply_actions(&fwd.actions, &rec.data) {
            Ok(o) => o.outputs.first().map(|(_, f)| f.clone()),
            Err(_) => None,
        };
        if let Some(f) = out_frame {
            self.packet_out(&rec.switch, rec.in_port, port_no::FLOOD, &f);
        }
    }

    fn packet_out(&self, sw: &str, in_port: u16, out: u16, frame: &bytes::Bytes) {
        let _ = self
            .yfs
            .packet_out(sw, None, in_port, &out.to_string(), frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_driver::Runtime;
    use yanc_openflow::Version;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn settle(rt: &mut Runtime, lb: &mut LoadBalancer) {
        loop {
            let a = rt.pump().unwrap();
            let b = lb.run_once();
            if a <= 1 && !b {
                break;
            }
        }
    }

    #[test]
    fn pool_definition_roundtrips_through_files() {
        let rt = Runtime::new();
        let backends = [Backend {
            ip: ip("10.0.0.2"),
            mac: MacAddr::from_seed(2),
        }];
        define_pool(&rt.yfs, "web", ip("10.0.0.100"), &backends).unwrap();
        let lb = LoadBalancer::new(rt.yfs.clone()).unwrap();
        let pools = lb.pools();
        assert_eq!(pools.len(), 1);
        assert_eq!(pools[0].1, ip("10.0.0.100"));
        assert_eq!(pools[0].2, backends);
    }

    #[test]
    fn syns_are_balanced_round_robin_and_rewritten() {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(0x1, 5, 1, vec![Version::V1_3], Version::V1_3);
        let client = rt.net.add_host("client", ip("10.0.0.1"));
        let s1 = rt.net.add_host("s1", ip("10.0.0.2"));
        let s2 = rt.net.add_host("s2", ip("10.0.0.3"));
        rt.net.attach_host(client, (0x1, 1), None);
        rt.net.attach_host(s1, (0x1, 2), None);
        rt.net.attach_host(s2, (0x1, 3), None);
        rt.pump().unwrap();
        let vip = ip("10.0.0.100");
        let backends = [
            Backend {
                ip: ip("10.0.0.2"),
                mac: rt.net.hosts[&s1].mac,
            },
            Backend {
                ip: ip("10.0.0.3"),
                mac: rt.net.hosts[&s2].mac,
            },
        ];
        define_pool(&rt.yfs, "web", vip, &backends).unwrap();
        let mut lb = LoadBalancer::new(rt.yfs.clone()).unwrap();

        // Two connections from two client ports: ARP resolves to the VIP
        // MAC first, then each SYN is balanced.
        for sport in [40001u16, 40002] {
            rt.net.host_send_tcp_syn(client, vip, sport, 80);
            settle(&mut rt, &mut lb);
        }
        // One SYN landed on each backend, with the destination rewritten.
        assert_eq!(rt.net.hosts[&s1].tcp_syns_received.len(), 1);
        assert_eq!(rt.net.hosts[&s2].tcp_syns_received.len(), 1);
        assert_eq!(lb.assignments[&ip("10.0.0.2")], 1);
        assert_eq!(lb.assignments[&ip("10.0.0.3")], 1);
        // Flows installed: fwd+rev per connection... both connections share
        // the client IP so the second write replaces the first (same flow
        // name) — exactly 2 fs flows.
        let flows = rt.yfs.list_flows("sw1").unwrap();
        assert!(flows.iter().any(|f| f.ends_with("_fwd")));
        assert!(flows.iter().any(|f| f.ends_with("_rev")));
        // Stats files show the balance.
        let v = rt
            .yfs
            .filesystem()
            .read_to_string("/net/lb/web/stats/10.0.0.2", rt.yfs.creds())
            .unwrap();
        assert_eq!(v, "1");
    }
}
