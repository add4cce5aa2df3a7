//! A per-switch L2 learning switch application.
//!
//! The classic first SDN app, done the yanc way: packet-ins arrive as event
//! directories, MAC tables are learned in memory, and forwarding decisions
//! become flow files (match `dl_dst` at the learned port) plus a
//! `packet_out` append. Works on any single switch independently, so it
//! composes with multi-switch topologies where each switch learns alone.

use std::collections::HashMap;

use yanc::{EventSubscription, FlowSpec, PacketInRecord, YancFs};
use yanc_openflow::{port_no, Action, FlowMatch};
use yanc_packet::{EtherType, MacAddr, PacketSummary};

/// The learning switch app (one instance covers all switches).
pub struct LearningSwitch {
    yfs: YancFs,
    sub: EventSubscription,
    /// `(switch, mac) → port` learning table.
    table: HashMap<(String, MacAddr), u16>,
    /// Whether the first slice has run. Until then [`YancApp::ready`]
    /// reports true unconditionally: a freshly (re)started instance must
    /// drain packet-ins that were buffered *before* its watch existed.
    primed: bool,
    /// Flows installed (metrics).
    pub flows_installed: usize,
    /// Floods performed (metrics).
    pub floods: usize,
}

impl LearningSwitch {
    /// Subscribe as `l2switch`.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("l2switch")?;
        Ok(LearningSwitch {
            yfs,
            sub,
            table: HashMap::new(),
            primed: false,
            flows_installed: 0,
            floods: 0,
        })
    }

    /// Look up a learned location.
    pub fn learned(&self, sw: &str, mac: MacAddr) -> Option<u16> {
        self.table.get(&(sw.to_string(), mac)).copied()
    }

    /// Drain packet-ins; learn and forward.
    pub fn run_once(&mut self) -> bool {
        self.primed = true;
        let recs = self.sub.drain_all();
        let worked = !recs.is_empty();
        for rec in recs {
            self.handle(rec);
        }
        worked
    }

    fn handle(&mut self, rec: PacketInRecord) {
        let s = match PacketSummary::parse(&rec.data) {
            Ok(s) => s,
            Err(_) => return,
        };
        if s.dl_type == EtherType::LLDP.0 {
            return;
        }
        if !s.dl_src.is_multicast() {
            self.table
                .insert((rec.switch.clone(), s.dl_src), rec.in_port);
        }
        let out = match self.table.get(&(rec.switch.clone(), s.dl_dst)) {
            Some(&p) if !s.dl_dst.is_multicast() => {
                // Install a forwarding entry for this destination.
                let spec = FlowSpec {
                    m: FlowMatch {
                        dl_dst: Some(s.dl_dst),
                        ..Default::default()
                    },
                    actions: vec![Action::out(p)],
                    priority: 30000,
                    idle_timeout: 120,
                    ..Default::default()
                };
                let name = format!("l2_{}", s.dl_dst.to_string().replace(':', ""));
                if self.yfs.write_flow(&rec.switch, &name, &spec).is_ok() {
                    self.flows_installed += 1;
                }
                p
            }
            _ => {
                self.floods += 1;
                port_no::FLOOD
            }
        };
        let _ = self.yfs.packet_out(
            &rec.switch,
            rec.buffer_id,
            rec.in_port,
            &out.to_string(),
            &rec.data,
        );
    }
}

impl yanc::YancApp for LearningSwitch {
    fn name(&self) -> &str {
        "l2switch"
    }

    fn run_once(&mut self) -> yanc::YancResult<bool> {
        Ok(LearningSwitch::run_once(self))
    }

    /// Level-triggered readiness: packet-in events are queued on the
    /// subscription's watch (a free check — no charged syscall). A
    /// poll-aware supervisor skips the slice entirely while this is false,
    /// so an idle learning switch consumes zero scheduler ticks.
    fn ready(&self) -> bool {
        !self.primed || self.sub.ready()
    }

    /// `SIGHUP`: flush the learning table; locations are relearned from
    /// live traffic (stale flows age out through the normal flow paths).
    fn reload(&mut self) -> yanc::YancResult<()> {
        self.table.clear();
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

    fn settle(rt: &mut Runtime, app: &mut LearningSwitch) {
        loop {
            let a = rt.pump().unwrap();
            let b = app.run_once();
            if a <= 1 && !b {
                break;
            }
        }
    }

    #[test]
    fn learns_and_installs() {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(0x5, 3, 1, vec![Version::V1_0], Version::V1_0);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (0x5, 1), None);
        rt.net.attach_host(h2, (0x5, 2), None);
        rt.pump().unwrap();
        let mut app = LearningSwitch::new(rt.yfs.clone()).unwrap();
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        settle(&mut rt, &mut app);
        assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
        // Both hosts' MACs learned on the right ports.
        let m1 = rt.net.hosts[&h1].mac;
        let m2 = rt.net.hosts[&h2].mac;
        assert_eq!(app.learned("sw5", m1), Some(1));
        assert_eq!(app.learned("sw5", m2), Some(2));
        assert!(app.flows_installed >= 1);
        assert!(app.floods >= 1); // the initial ARP broadcast
    }
}
