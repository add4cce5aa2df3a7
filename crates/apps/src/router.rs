//! The router daemon (paper §8): "handles all table misses and sets up
//! paths based on exact match through the network".
//!
//! Reactive control in its purest form: every packet-in is either flooded
//! (unknown destination) or answered by installing exact-match flow entries
//! along the shortest path — written as flow *files*, committed by version
//! bump, and installed by whichever driver manages each switch. The daemon
//! learns host locations from packets arriving on edge ports (ports with
//! no `peer` symlink).
//!
//! Which ports have a `peer`, and the shortest path between two switches,
//! come from a [`TopologyView`]: the daemon's work per packet-in follows
//! the length of the path, not the size of the fabric.

use std::collections::HashMap;

use yanc::{EventSubscription, FlowSpec, HostRecord, PacketInRecord, YancFs};
use yanc_openflow::{port_no, Action, FlowMatch};
use yanc_packet::{EtherType, MacAddr, PacketSummary};

use crate::topology::TopologyView;

/// The reactive router.
pub struct RouterDaemon {
    yfs: YancFs,
    sub: EventSubscription,
    /// The fabric's links, as last scanned.
    pub topology: TopologyView,
    /// Learned MAC locations: `(switch, port)`.
    locations: HashMap<MacAddr, (String, u16)>,
    /// Idle timeout for installed paths (seconds; 0 = permanent).
    pub idle_timeout: u16,
    /// Count of path installations (metrics).
    pub paths_installed: usize,
    /// Count of floods (metrics).
    pub floods: usize,
    seq: u64,
}

impl RouterDaemon {
    /// Subscribe as `router`.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("router")?;
        let topology = TopologyView::new(yfs.clone())?;
        Ok(RouterDaemon {
            yfs,
            sub,
            topology,
            locations: HashMap::new(),
            idle_timeout: 60,
            paths_installed: 0,
            floods: 0,
            seq: 0,
        })
    }

    /// Where the daemon believes a MAC lives.
    pub fn location_of(&self, mac: MacAddr) -> Option<&(String, u16)> {
        self.locations.get(&mac)
    }

    /// Process pending packet-ins. Returns whether any work happened.
    pub fn run_once(&mut self) -> bool {
        let records = self.sub.drain_all();
        let worked = !records.is_empty();
        for rec in records {
            self.handle(rec);
        }
        worked
    }

    fn handle(&mut self, rec: PacketInRecord) {
        let summary = match PacketSummary::parse(&rec.data) {
            Ok(s) => s,
            Err(_) => return,
        };
        if summary.dl_type == EtherType::LLDP.0 {
            return; // the topology daemon's department
        }
        // Learn the source if it entered on an edge port, and record it in
        // the hosts/ directory (Figure 2) for other applications to read.
        let is_edge = matches!(self.topology.has_peer(&rec.switch, rec.in_port), Ok(false));
        if is_edge && !summary.dl_src.is_multicast() {
            let loc = (rec.switch.clone(), rec.in_port);
            if self.locations.insert(summary.dl_src, loc.clone()).as_ref() != Some(&loc) {
                let name = summary.dl_src.to_string().replace(':', "-");
                let _ = self.yfs.write_host(
                    &name,
                    &HostRecord {
                        mac: summary.dl_src,
                        ip: summary.nw_src,
                        location: Some(loc),
                    },
                );
            }
        }

        let dst = self.locations.get(&summary.dl_dst).cloned();
        match dst {
            None => self.flood(&rec),
            Some((dst_sw, dst_port)) => {
                if self
                    .install_path(&rec, &summary, &dst_sw, dst_port)
                    .is_none()
                {
                    self.flood(&rec);
                }
            }
        }
    }

    /// Flood toward hosts only: the packet is emitted on every *edge*
    /// port (ports without a `peer` symlink) of every switch, never on
    /// inter-switch links. Unlike a naive FLOOD action this cannot storm a
    /// looped fabric (e.g. a fat tree), which is how production
    /// controllers handle broadcasts too.
    ///
    /// Switches and ports are listed live, so a hot-plugged port is
    /// flooded to at once; each switch gets one `packet_out` line naming
    /// all its edge ports.
    fn flood(&mut self, rec: &PacketInRecord) {
        self.floods += 1;
        let switches = match self.yfs.list_switches() {
            Ok(s) => s,
            Err(_) => return,
        };
        for sw in switches {
            let ports = match self.yfs.list_ports(&sw) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let outs: Vec<String> = ports
                .into_iter()
                // never back out the ingress
                .filter(|&port| !(sw == rec.switch && port == rec.in_port))
                .filter(|&port| matches!(self.topology.has_peer(&sw, port), Ok(false)))
                .map(|port| port.to_string())
                .collect();
            if !outs.is_empty() {
                // Data form: buffer ids are only valid on the originating
                // switch.
                let _ = self
                    .yfs
                    .packet_out(&sw, None, port_no::NONE, &outs.join(","), &rec.data);
            }
        }
    }

    /// Install exact-match entries along the shortest path and release the
    /// packet. Returns `None` when no path exists.
    fn install_path(
        &mut self,
        rec: &PacketInRecord,
        summary: &PacketSummary,
        dst_sw: &str,
        dst_port: u16,
    ) -> Option<()> {
        let plan = self
            .topology
            .plan((&rec.switch, rec.in_port), (dst_sw, dst_port))
            .ok()??;

        self.seq += 1;
        let first_out = plan[0].2;
        for (sw, inp, outp) in plan {
            let m = FlowMatch {
                in_port: Some(inp),
                ..FlowMatch::exact(summary, inp)
            };
            let spec = FlowSpec {
                m,
                actions: vec![Action::out(outp)],
                priority: 40000,
                idle_timeout: self.idle_timeout,
                cookie: self.seq,
                ..Default::default()
            };
            // `rt<seq>_<sw>` is a fresh name every time.
            let name = format!("rt{}_{}", self.seq, sw);
            self.yfs.write_flow(&sw, &name, &spec).ok()?;
        }
        self.paths_installed += 1;
        // Release the buffered packet along the installed path.
        let _ = self.yfs.packet_out(
            &rec.switch,
            rec.buffer_id,
            rec.in_port,
            &first_out.to_string(),
            &rec.data,
        );
        Some(())
    }
}

impl yanc::YancApp for RouterDaemon {
    fn name(&self) -> &str {
        "router"
    }

    fn run_once(&mut self) -> yanc::YancResult<bool> {
        Ok(RouterDaemon::run_once(self))
    }

    /// `SIGHUP`: drop learned host locations so stale placements (hosts
    /// that moved while we were not looking) cannot pin wrong paths, and
    /// the topology view with them.
    fn reload(&mut self) -> yanc::YancResult<()> {
        self.locations.clear();
        self.topology.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_driver::Runtime;
    use yanc_openflow::Version;

    fn ip(s: &str) -> std::net::Ipv4Addr {
        s.parse().unwrap()
    }

    /// Pump runtime + router until quiescent.
    fn settle(rt: &mut Runtime, router: &mut RouterDaemon) {
        loop {
            let a = rt.pump().unwrap();
            let b = router.run_once();
            if a <= 1 && !b {
                break;
            }
        }
    }

    #[test]
    fn single_switch_reactive_forwarding() {
        let mut rt = Runtime::new();
        let _sw = rt.add_switch_with_driver(0x1, 4, 1, vec![Version::V1_0], Version::V1_0);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (0x1, 1), None);
        rt.net.attach_host(h2, (0x1, 2), None);
        rt.pump().unwrap();
        let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        settle(&mut rt, &mut router);
        assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
        // The ICMP exchange after ARP runs over installed exact paths.
        assert!(
            router.paths_installed >= 1,
            "paths: {}",
            router.paths_installed
        );
        assert!(rt.net.switches[&0x1].flow_count() >= 2);
        // Second ping: no new packet-ins needed (hardware path).
        let flows_before = rt.net.switches[&0x1].flow_count();
        rt.net.host_ping(h1, ip("10.0.0.2"), 2);
        settle(&mut rt, &mut router);
        assert_eq!(rt.net.hosts[&h1].ping_replies.len(), 2);
        assert_eq!(rt.net.switches[&0x1].flow_count(), flows_before);
        // Learned hosts appear in the hosts/ directory (Figure 2 in use).
        let m1 = rt.net.hosts[&h1].mac.to_string().replace(':', "-");
        let loc = rt
            .yfs
            .filesystem()
            .read_to_string(&format!("/net/hosts/{m1}/location"), rt.yfs.creds())
            .unwrap();
        assert_eq!(loc, "sw1:1");
    }

    #[test]
    fn multi_hop_path_installation() {
        // h1 - s1 - s2 - s3 - h2, with topology links recorded in the fs.
        let mut rt = Runtime::new();
        for d in 1..=3u64 {
            rt.add_switch_with_driver(d, 4, 1, vec![Version::V1_3], Version::V1_3);
        }
        rt.net.link_switches((1, 3), (2, 1), None);
        rt.net.link_switches((2, 3), (3, 1), None);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (1, 1), None);
        rt.net.attach_host(h2, (3, 2), None);
        rt.pump().unwrap();
        // Record topology in the fs (as the topology daemon would).
        rt.yfs.set_peer("sw1", 3, "sw2", 1).unwrap();
        rt.yfs.set_peer("sw2", 1, "sw1", 3).unwrap();
        rt.yfs.set_peer("sw2", 3, "sw3", 1).unwrap();
        rt.yfs.set_peer("sw3", 1, "sw2", 3).unwrap();

        let mut router = RouterDaemon::new(rt.yfs.clone()).unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 7);
        settle(&mut rt, &mut router);
        assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 7)]);
        // Exact-match entries exist on every switch along the path.
        for d in 1..=3u64 {
            assert!(
                rt.net.switches[&d].flow_count() >= 1,
                "switch {d} has no flows"
            );
        }
        assert!(router.paths_installed >= 1);
    }
}
