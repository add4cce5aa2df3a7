//! View applications: the slicer and the big-switch virtualizer (paper
//! §4.2).
//!
//! "To create a new view, an application effectively interacts with two
//! portions of the file system simultaneously — providing a translation
//! between them." Both daemons here do exactly that: they watch the view's
//! subtree (which looks like a miniature `/net`) and translate committed
//! flows down into the physical `switches/` directory. Tenants can be
//! confined to their view with a mount namespace and never see the
//! physical tree.
//!
//! * [`SliceDaemon`] — a slice is "a subset of the hardware and header
//!   space … the original topology is not changed": member switches are
//!   mirrored into the view, and every flow is intersected with the
//!   slice's header-space filter (flows escaping the slice are rejected
//!   with an `error` file).
//! * [`BigSwitchDaemon`] — network virtualization: all member edge ports
//!   become ports of one virtual switch `big0`; a flow `in_port=va →
//!   out=vb` is compiled into per-hop physical flows along the shortest
//!   path.

use yanc::{FlowSpec, PortSpec, SchemaPos, ViewConfig, YancFs};
use yanc_openflow::{Action, FlowMatch, Ipv4Prefix};
use yanc_vfs::{Event, EventKind, EventMask, WatchGuard};

use crate::topology::TopologyView;

/// Intersect two matches. `None` when they are disjoint (a flow outside
/// the slice's header space).
pub fn intersect(filter: &FlowMatch, m: &FlowMatch) -> Option<FlowMatch> {
    fn f<T: PartialEq + Copy>(a: Option<T>, b: Option<T>) -> Result<Option<T>, ()> {
        match (a, b) {
            (None, x) | (x, None) => Ok(x),
            (Some(x), Some(y)) if x == y => Ok(Some(x)),
            _ => Err(()),
        }
    }
    fn pre(a: Option<Ipv4Prefix>, b: Option<Ipv4Prefix>) -> Result<Option<Ipv4Prefix>, ()> {
        match (a, b) {
            (None, x) | (x, None) => Ok(x),
            (Some(x), Some(y)) => {
                if x.prefix_len <= y.prefix_len && x.contains(y.addr) {
                    Ok(Some(y)) // y is the narrower
                } else if y.prefix_len <= x.prefix_len && y.contains(x.addr) {
                    Ok(Some(x))
                } else {
                    Err(())
                }
            }
        }
    }
    let r = (|| -> Result<FlowMatch, ()> {
        Ok(FlowMatch {
            in_port: f(filter.in_port, m.in_port)?,
            dl_src: f(filter.dl_src, m.dl_src)?,
            dl_dst: f(filter.dl_dst, m.dl_dst)?,
            dl_vlan: f(filter.dl_vlan, m.dl_vlan)?,
            dl_vlan_pcp: f(filter.dl_vlan_pcp, m.dl_vlan_pcp)?,
            dl_type: f(filter.dl_type, m.dl_type)?,
            nw_tos: f(filter.nw_tos, m.nw_tos)?,
            nw_proto: f(filter.nw_proto, m.nw_proto)?,
            nw_src: pre(filter.nw_src, m.nw_src)?,
            nw_dst: pre(filter.nw_dst, m.nw_dst)?,
            tp_src: f(filter.tp_src, m.tp_src)?,
            tp_dst: f(filter.tp_dst, m.tp_dst)?,
        })
    })();
    r.ok()
}

fn write_error(yfs: &YancFs, sw: &str, flow: &str, msg: &str) {
    let p = yfs.flow_dir(sw, flow).join("error");
    let _ = yfs
        .filesystem()
        .write_file(p.as_str(), msg.as_bytes(), yfs.creds());
}

/// The header-space slicer.
pub struct SliceDaemon {
    phys: YancFs,
    virt: YancFs,
    cfg: ViewConfig,
    view: String,
    watch: WatchGuard,
    /// Versions already translated, keyed by `(switch, flow)`.
    seen: std::collections::HashMap<(String, String), u64>,
    /// Flows translated down (metrics).
    pub pushed: usize,
    /// Flows rejected as outside the slice (metrics).
    pub rejected: usize,
}

impl SliceDaemon {
    /// Start serving an existing view (created + configured beforehand).
    /// Mirrors the member switches into the view's `switches/`.
    pub fn new(phys: YancFs, view: &str) -> yanc::YancResult<Self> {
        let cfg = phys.read_view_config(view)?;
        let view_root = phys.view_dir(view);
        let virt = YancFs::new(phys.filesystem().clone(), view_root.as_str());
        // Mirror member switches (skeletons come from the semantic hook).
        for sw in &cfg.switches {
            let dpid = phys.switch_dpid(sw).unwrap_or(0);
            virt.create_switch(sw, dpid, 0, 0, 0, 1, None)?;
            let ports = phys.list_ports(sw).unwrap_or_default();
            let ports: Vec<PortSpec> = ports.into_iter().map(virtual_port).collect();
            virt.create_ports(sw, &ports)?;
        }
        let watch = phys
            .filesystem()
            .watch(virt.switches_dir().as_str())
            .subtree()
            .mask(EventMask::ALL)
            .register()?;
        Ok(SliceDaemon {
            phys,
            virt,
            cfg,
            view: view.to_string(),
            watch,
            seen: std::collections::HashMap::new(),
            pushed: 0,
            rejected: 0,
        })
    }

    /// Drain view events, translating flow commits/deletes downward.
    pub fn run_once(&mut self) -> bool {
        let events: Vec<Event> = self.watch.receiver().try_iter().collect();
        let mut worked = false;
        for ev in events {
            let pos = yanc::classify(self.virt.root(), &ev.path);
            match (ev.kind, pos) {
                (EventKind::CloseWrite, SchemaPos::FlowFile { switch, flow, file })
                    if file == "version" =>
                {
                    worked = true;
                    self.push_flow(&switch, &flow);
                }
                (EventKind::Delete, SchemaPos::FlowDir { switch, flow }) => {
                    worked = true;
                    let _ = self
                        .phys
                        .delete_flow(&switch, &format!("{}.{flow}", self.view));
                }
                _ => {}
            }
        }
        worked
    }

    fn push_flow(&mut self, sw: &str, flow: &str) {
        if !self.cfg.switches.iter().any(|s| s == sw) {
            return;
        }
        let spec = match self.virt.read_flow(sw, flow) {
            Ok(s) if s.version > 0 => s,
            _ => return,
        };
        let key = (sw.to_string(), flow.to_string());
        if self.seen.get(&key).is_some_and(|v| *v >= spec.version) {
            return;
        }
        self.seen.insert(key, spec.version);
        match intersect(&self.cfg.filter, &spec.m) {
            Some(merged) => {
                let phys_spec = FlowSpec { m: merged, ..spec };
                let name = format!("{}.{flow}", self.view);
                if self.phys.write_flow(sw, &name, &phys_spec).is_ok() {
                    self.pushed += 1;
                }
            }
            None => {
                self.rejected += 1;
                write_error(
                    &self.virt,
                    sw,
                    flow,
                    "flow escapes the slice's header space",
                );
            }
        }
    }
}

/// The big-switch virtualizer.
pub struct BigSwitchDaemon {
    phys: YancFs,
    virt: YancFs,
    view: String,
    /// The physical fabric's links.
    topology: TopologyView,
    /// Virtual port v (1-based index) → physical `(switch, port)`.
    pub port_map: Vec<(String, u16)>,
    watch: WatchGuard,
    /// Versions already compiled, keyed by flow name.
    seen: std::collections::HashMap<String, u64>,
    /// Flows compiled to physical paths (metrics).
    pub pushed: usize,
    /// Flows rejected (metrics).
    pub rejected: usize,
}

/// A view-side port: numbered like the one it stands for, no hardware.
fn virtual_port(port_no: u16) -> PortSpec {
    PortSpec {
        port_no,
        hw_addr: "00:00:00:00:00:00".into(),
        link_up: true,
        ..Default::default()
    }
}

/// The virtual switch's name inside a big-switch view.
pub const BIG_SWITCH: &str = "big0";

impl BigSwitchDaemon {
    /// Start serving a big-switch view: enumerate member edge ports (ports
    /// without a `peer`) into the virtual switch `big0`.
    pub fn new(phys: YancFs, view: &str) -> yanc::YancResult<Self> {
        let cfg = phys.read_view_config(view)?;
        let view_root = phys.view_dir(view);
        let virt = YancFs::new(phys.filesystem().clone(), view_root.as_str());
        virt.create_switch(BIG_SWITCH, 0xb16, 0, 0, 0, 1, None)?;
        let mut topology = TopologyView::new(phys.clone())?;
        let mut port_map = Vec::new();
        for sw in &cfg.switches {
            for p in phys.list_ports(sw)? {
                if !topology.has_peer(sw, p)? {
                    port_map.push((sw.clone(), p));
                }
            }
        }
        let vports: Vec<PortSpec> = (1..=port_map.len() as u16).map(virtual_port).collect();
        virt.create_ports(BIG_SWITCH, &vports)?;
        for (v, (sw, p)) in port_map.iter().enumerate() {
            let vport = (v + 1) as u16;
            let map = virt.port_dir(BIG_SWITCH, vport).join("map");
            virt.filesystem().write_file(
                map.as_str(),
                format!("{sw}:{p}").as_bytes(),
                virt.creds(),
            )?;
        }
        let watch = phys
            .filesystem()
            .watch(virt.switches_dir().as_str())
            .subtree()
            .mask(EventMask::ALL)
            .register()?;
        Ok(BigSwitchDaemon {
            phys,
            virt,
            view: view.to_string(),
            topology,
            port_map,
            watch,
            seen: std::collections::HashMap::new(),
            pushed: 0,
            rejected: 0,
        })
    }

    /// Drain view events, compiling flow commits into physical paths.
    pub fn run_once(&mut self) -> bool {
        let events: Vec<Event> = self.watch.receiver().try_iter().collect();
        let mut worked = false;
        for ev in events {
            if ev.kind != EventKind::CloseWrite {
                continue;
            }
            if let SchemaPos::FlowFile { switch, flow, file } =
                yanc::classify(self.virt.root(), &ev.path)
            {
                if file == "version" && switch == BIG_SWITCH {
                    worked = true;
                    self.compile(&flow);
                }
            }
        }
        worked
    }

    fn vport(&self, v: u16) -> Option<&(String, u16)> {
        self.port_map.get(usize::from(v).checked_sub(1)?)
    }

    fn compile(&mut self, flow: &str) {
        let spec = match self.virt.read_flow(BIG_SWITCH, flow) {
            Ok(s) if s.version > 0 => s,
            _ => return,
        };
        if self.seen.get(flow).is_some_and(|v| *v >= spec.version) {
            return;
        }
        self.seen.insert(flow.to_string(), spec.version);
        let Some(v_in) = spec.m.in_port else {
            self.rejected += 1;
            write_error(
                &self.virt,
                BIG_SWITCH,
                flow,
                "big-switch flows need match.in_port",
            );
            return;
        };
        let outs: Vec<u16> = spec
            .actions
            .iter()
            .filter_map(|a| match a {
                Action::Output { port, .. } => Some(*port),
                _ => None,
            })
            .collect();
        let [v_out] = outs[..] else {
            self.rejected += 1;
            write_error(
                &self.virt,
                BIG_SWITCH,
                flow,
                "big-switch flows need exactly one action.out",
            );
            return;
        };
        let (Some((src_sw, src_port)), Some((dst_sw, dst_port))) =
            (self.vport(v_in).cloned(), self.vport(v_out).cloned())
        else {
            self.rejected += 1;
            write_error(&self.virt, BIG_SWITCH, flow, "unknown virtual port");
            return;
        };
        // Per-hop plan: (switch, ingress, egress).
        let Ok(Some(plan)) = self.topology.plan((&src_sw, src_port), (&dst_sw, dst_port)) else {
            self.rejected += 1;
            write_error(
                &self.virt,
                BIG_SWITCH,
                flow,
                "no physical path between endpoints",
            );
            return;
        };
        for (sw, inp, outp) in plan {
            let m = FlowMatch {
                in_port: Some(inp),
                ..spec.m
            };
            let phys_spec = FlowSpec {
                m,
                actions: vec![Action::out(outp)],
                priority: spec.priority,
                idle_timeout: spec.idle_timeout,
                hard_timeout: spec.hard_timeout,
                cookie: spec.cookie,
                goto_table: None,
                version: 0,
            };
            let name = format!("{}.{flow}.{sw}", self.view);
            let _ = self.phys.write_flow(&sw, &name, &phys_spec);
        }
        self.pushed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port;
    use yanc::ViewKind;

    fn ipf(s: &str) -> Option<Ipv4Prefix> {
        Ipv4Prefix::parse(s)
    }

    #[test]
    fn intersect_semantics() {
        let ssh = FlowMatch {
            tp_dst: Some(22),
            ..Default::default()
        };
        let any = FlowMatch::any();
        assert_eq!(intersect(&ssh, &any), Some(ssh));
        assert_eq!(intersect(&any, &ssh), Some(ssh));
        // Conflicting scalar: disjoint.
        let http = FlowMatch {
            tp_dst: Some(80),
            ..Default::default()
        };
        assert_eq!(intersect(&ssh, &http), None);
        // Prefixes: narrower wins; disjoint fails.
        let wide = FlowMatch {
            nw_dst: ipf("10.0.0.0/8"),
            ..Default::default()
        };
        let narrow = FlowMatch {
            nw_dst: ipf("10.1.0.0/16"),
            ..Default::default()
        };
        assert_eq!(
            intersect(&wide, &narrow).unwrap().nw_dst,
            ipf("10.1.0.0/16")
        );
        assert_eq!(
            intersect(&narrow, &wide).unwrap().nw_dst,
            ipf("10.1.0.0/16")
        );
        let other = FlowMatch {
            nw_dst: ipf("11.0.0.0/8"),
            ..Default::default()
        };
        assert_eq!(intersect(&narrow, &other), None);
    }

    /// Build: 2 switches, view slicing ssh over both.
    fn slice_fixture() -> (YancFs, SliceDaemon) {
        let y = YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
        for (sw, d) in [("sw1", 1u64), ("sw2", 2)] {
            y.create_switch(sw, d, 0, 0, 0, 1, None).unwrap();
            for p in 1..=2 {
                y.create_ports(sw, &[port(p, "02:00:00:00:00:01")]).unwrap();
            }
        }
        y.create_view("ssh").unwrap();
        y.write_view_config(
            "ssh",
            &ViewConfig {
                kind: ViewKind::Slice,
                switches: vec!["sw1".into(), "sw2".into()],
                filter: FlowMatch {
                    dl_type: Some(0x0800),
                    nw_proto: Some(6),
                    tp_dst: Some(22),
                    ..Default::default()
                },
            },
        )
        .unwrap();
        let d = SliceDaemon::new(y.clone(), "ssh").unwrap();
        (y, d)
    }

    #[test]
    fn slice_mirrors_switches_and_translates() {
        let (y, mut d) = slice_fixture();
        // The view contains mirrored switches.
        let virt = YancFs::new(y.filesystem().clone(), "/net/views/ssh");
        assert_eq!(virt.list_switches().unwrap(), vec!["sw1", "sw2"]);
        // A tenant writes a flow inside the view (wildcard match).
        let spec = FlowSpec {
            actions: vec![Action::out(2)],
            priority: 10,
            ..Default::default()
        };
        virt.write_flow("sw1", "fwd", &spec).unwrap();
        assert!(d.run_once());
        assert_eq!(d.pushed, 1);
        // The physical flow is the intersection: confined to ssh.
        let phys = y.read_flow("sw1", "ssh.fwd").unwrap();
        assert_eq!(phys.m.tp_dst, Some(22));
        assert_eq!(phys.m.nw_proto, Some(6));
        assert_eq!(phys.actions, vec![Action::out(2)]);
        // Deleting in the view deletes physically.
        virt.delete_flow("sw1", "fwd").unwrap();
        d.run_once();
        assert!(!y
            .list_flows("sw1")
            .unwrap()
            .contains(&"ssh.fwd".to_string()));
    }

    #[test]
    fn slice_rejects_escaping_flows() {
        let (y, mut d) = slice_fixture();
        let virt = YancFs::new(y.filesystem().clone(), "/net/views/ssh");
        // Tenant tries to capture HTTP — outside the ssh slice.
        let spec = FlowSpec {
            m: FlowMatch {
                dl_type: Some(0x0800),
                nw_proto: Some(6),
                tp_dst: Some(80),
                ..Default::default()
            },
            actions: vec![Action::out(1)],
            ..Default::default()
        };
        virt.write_flow("sw1", "sneaky", &spec).unwrap();
        d.run_once();
        assert_eq!(d.rejected, 1);
        assert_eq!(d.pushed, 0);
        let err = y
            .filesystem()
            .read_to_string("/net/views/ssh/switches/sw1/flows/sneaky/error", y.creds())
            .unwrap();
        assert!(err.contains("header space"));
        assert!(y.list_flows("sw1").unwrap().is_empty());
    }

    #[test]
    fn big_switch_compiles_paths() {
        let y = YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
        // sw1 -(p3/p3)- sw2; edge ports: sw1:p1,p2 and sw2:p1,p2.
        for (sw, d) in [("sw1", 1u64), ("sw2", 2)] {
            y.create_switch(sw, d, 0, 0, 0, 1, None).unwrap();
            for p in 1..=3 {
                y.create_ports(sw, &[port(p, "02:00:00:00:00:01")]).unwrap();
            }
        }
        y.set_peer("sw1", 3, "sw2", 3).unwrap();
        y.set_peer("sw2", 3, "sw1", 3).unwrap();
        y.create_view("onebig").unwrap();
        y.write_view_config(
            "onebig",
            &ViewConfig {
                kind: ViewKind::BigSwitch,
                switches: vec!["sw1".into(), "sw2".into()],
                filter: FlowMatch::any(),
            },
        )
        .unwrap();
        let mut d = BigSwitchDaemon::new(y.clone(), "onebig").unwrap();
        // Virtual ports: sw1p1, sw1p2, sw2p1, sw2p2 → v1..v4.
        assert_eq!(d.port_map.len(), 4);
        assert_eq!(d.port_map[0], ("sw1".to_string(), 1));
        assert_eq!(d.port_map[3], ("sw2".to_string(), 2));

        let virt = YancFs::new(y.filesystem().clone(), "/net/views/onebig");
        assert_eq!(virt.list_switches().unwrap(), vec![BIG_SWITCH]);
        // v1 (sw1:1) → v4 (sw2:2): should compile into flows on both.
        let spec = FlowSpec {
            m: FlowMatch {
                in_port: Some(1),
                ..Default::default()
            },
            actions: vec![Action::out(4)],
            priority: 50,
            ..Default::default()
        };
        virt.write_flow(BIG_SWITCH, "cross", &spec).unwrap();
        assert!(d.run_once());
        assert_eq!(d.pushed, 1);
        let f1 = y.read_flow("sw1", "onebig.cross.sw1").unwrap();
        assert_eq!(f1.m.in_port, Some(1));
        assert_eq!(f1.actions, vec![Action::out(3)]); // toward sw2
        let f2 = y.read_flow("sw2", "onebig.cross.sw2").unwrap();
        assert_eq!(f2.m.in_port, Some(3)); // arrives on the trunk
        assert_eq!(f2.actions, vec![Action::out(2)]); // out the edge
    }

    #[test]
    fn big_switch_rejects_unsupported_shapes() {
        let y = YancFs::init(std::sync::Arc::new(yanc_vfs::Filesystem::new()), "/net").unwrap();
        y.create_switch("sw1", 1, 0, 0, 0, 1, None).unwrap();
        y.create_ports("sw1", &[port(1, "02:00:00:00:00:01")])
            .unwrap();
        y.create_view("v").unwrap();
        y.write_view_config(
            "v",
            &ViewConfig {
                kind: ViewKind::BigSwitch,
                switches: vec!["sw1".into()],
                filter: FlowMatch::any(),
            },
        )
        .unwrap();
        let mut d = BigSwitchDaemon::new(y.clone(), "v").unwrap();
        let virt = YancFs::new(y.filesystem().clone(), "/net/views/v");
        // No in_port.
        let spec = FlowSpec {
            actions: vec![Action::out(1)],
            ..Default::default()
        };
        virt.write_flow(BIG_SWITCH, "bad", &spec).unwrap();
        d.run_once();
        assert_eq!(d.rejected, 1);
        assert!(virt
            .filesystem()
            .exists("/net/views/v/switches/big0/flows/bad/error", virt.creds()));
    }
}
