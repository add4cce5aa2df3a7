//! The network: switches, hosts, links and a deterministic discrete-event
//! core that moves frames between them with per-link latency.
//!
//! Controller attachment is a pair of byte channels carrying real OpenFlow
//! frames — the driver side (`ControlHandle`) can live on another thread.
//! Time is virtual: [`Network::pump`] drains all events at the current
//! clock, [`Network::advance`] moves the clock (expiring flow timeouts) and
//! delivers in-flight frames. Event ordering is `(time, sequence)`, and
//! sequence numbers are handed out in the order the inputs arrived (frames
//! in schedule order, controller bytes in send order), so runs are exactly
//! reproducible.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, SendError, Sender};

use yanc_openflow::Version;

use crate::host::SimHost;
use crate::switch::{Effect, SimSwitch};

/// Identifies one end of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A switch port.
    Switch {
        /// Datapath id.
        dpid: u64,
        /// Port number.
        port: u16,
    },
    /// A host NIC.
    Host {
        /// Host id.
        id: u64,
    },
}

/// A point-to-point link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One end.
    pub a: Endpoint,
    /// The other end.
    pub b: Endpoint,
    /// One-way latency in microseconds.
    pub latency_us: u64,
    /// Whether the link is carrying traffic.
    pub up: bool,
}

/// The controller's side of a switch control channel.
pub struct ControlHandle {
    /// Datapath id of the attached switch.
    pub dpid: u64,
    /// Bytes from the switch (packet-ins, replies, async messages).
    pub rx: Receiver<Bytes>,
    /// Bytes to the switch (flow mods, packet-outs, requests).
    pub tx: ControlTx,
}

/// The sending end of one switch's control channel. Every attached
/// controller feeds the same network-wide queue, tagged by dpid and
/// drained in send order, so a pump pays for the bytes that were sent and
/// nothing for the channels that stayed idle.
pub struct ControlTx {
    dpid: u64,
    queue: Sender<(u64, Bytes)>,
    /// Dead once the network detaches this controller.
    attached: Weak<()>,
}

impl ControlTx {
    /// Queue `bytes` for the switch. Fails, handing them back, once the
    /// controller has been detached (or the network is gone).
    pub fn send(&self, bytes: Bytes) -> Result<(), SendError<Bytes>> {
        if self.attached.strong_count() == 0 {
            return Err(SendError(bytes));
        }
        self.queue
            .send((self.dpid, bytes))
            .map_err(|SendError((_, bytes))| SendError(bytes))
    }
}

struct ControlWires {
    to_ctrl: Sender<Bytes>,
    /// The attachment itself: dropping it kills the handle's [`ControlTx`].
    _attached: Arc<()>,
}

#[derive(Debug)]
enum Ev {
    FrameAt { dst: Endpoint, frame: Bytes },
}

struct Timed {
    at_us: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_us, self.seq).cmp(&(other.at_us, other.seq))
    }
}

/// Aggregate network statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetStats {
    /// Frames delivered endpoint-to-endpoint.
    pub frames_delivered: u64,
    /// Control-channel messages delivered (both directions).
    pub control_deliveries: u64,
    /// Events processed.
    pub events: u64,
}

/// A simulated network of OpenFlow switches and hosts.
pub struct Network {
    /// Switches by datapath id.
    pub switches: BTreeMap<u64, SimSwitch>,
    /// Hosts by id.
    pub hosts: BTreeMap<u64, SimHost>,
    links: Vec<Link>,
    /// Endpoint → index of its link in `links`.
    link_of: HashMap<Endpoint, usize>,
    queue: BinaryHeap<Reverse<Timed>>,
    now_us: u64,
    seq: u64,
    control: BTreeMap<u64, ControlWires>,
    /// Controller→switch bytes of every attached switch, in send order.
    from_ctrl: Receiver<(u64, Bytes)>,
    from_ctrl_tx: Sender<(u64, Bytes)>,
    /// Aggregate statistics.
    pub stats: NetStats,
    default_latency_us: u64,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network (default link latency 100µs).
    pub fn new() -> Self {
        let (from_ctrl_tx, from_ctrl) = unbounded();
        Network {
            switches: BTreeMap::new(),
            hosts: BTreeMap::new(),
            links: Vec::new(),
            link_of: HashMap::new(),
            queue: BinaryHeap::new(),
            now_us: 0,
            seq: 0,
            control: BTreeMap::new(),
            from_ctrl,
            from_ctrl_tx,
            stats: NetStats::default(),
            default_latency_us: 100,
        }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Current virtual time in whole seconds (flow-timeout granularity).
    pub fn now_s(&self) -> u64 {
        self.now_us / 1_000_000
    }

    /// Add a switch; returns its dpid for convenience.
    pub fn add_switch(
        &mut self,
        dpid: u64,
        name: &str,
        n_ports: u16,
        n_tables: u8,
        versions: Vec<Version>,
    ) -> u64 {
        assert!(!self.switches.contains_key(&dpid), "duplicate dpid {dpid}");
        self.switches.insert(
            dpid,
            SimSwitch::new(dpid, name, n_ports, n_tables, versions),
        );
        dpid
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, name: &str, ip: Ipv4Addr) -> u64 {
        let id = self.hosts.len() as u64 + 1;
        self.hosts.insert(id, SimHost::new(id, name, ip));
        id
    }

    fn endpoint_in_use(&self, e: Endpoint) -> bool {
        self.link_of.contains_key(&e)
    }

    fn add_link(&mut self, a: Endpoint, b: Endpoint, latency_us: Option<u64>) {
        self.link_of.insert(a, self.links.len());
        self.link_of.insert(b, self.links.len());
        self.links.push(Link {
            a,
            b,
            latency_us: latency_us.unwrap_or(self.default_latency_us),
            up: true,
        });
    }

    /// Wire two switch ports together.
    pub fn link_switches(&mut self, a: (u64, u16), b: (u64, u16), latency_us: Option<u64>) {
        let ea = Endpoint::Switch {
            dpid: a.0,
            port: a.1,
        };
        let eb = Endpoint::Switch {
            dpid: b.0,
            port: b.1,
        };
        assert!(!self.endpoint_in_use(ea), "port {a:?} already linked");
        assert!(!self.endpoint_in_use(eb), "port {b:?} already linked");
        self.add_link(ea, eb, latency_us);
        let fx1 = self
            .switches
            .get_mut(&a.0)
            .map(|s| s.set_link_state(a.1, false));
        let fx2 = self
            .switches
            .get_mut(&b.0)
            .map(|s| s.set_link_state(b.1, false));
        for (dpid, fx) in [(a.0, fx1), (b.0, fx2)] {
            if let Some(fx) = fx {
                self.route_effects(dpid, fx);
            }
        }
    }

    /// Attach a host to a switch port.
    pub fn attach_host(&mut self, host: u64, sw: (u64, u16), latency_us: Option<u64>) {
        let eh = Endpoint::Host { id: host };
        let es = Endpoint::Switch {
            dpid: sw.0,
            port: sw.1,
        };
        assert!(!self.endpoint_in_use(eh), "host {host} already attached");
        assert!(!self.endpoint_in_use(es), "port {sw:?} already linked");
        self.add_link(eh, es, latency_us);
        if let Some(s) = self.switches.get_mut(&sw.0) {
            let fx = s.set_link_state(sw.1, false);
            self.route_effects(sw.0, fx);
        }
    }

    /// Set a link's carrier state (simulating fiber cuts). Affected switch
    /// ports report PortStatus to their controllers.
    pub fn set_link_up(&mut self, a: Endpoint, up: bool) {
        let Some(&i) = self.link_of.get(&a) else {
            return;
        };
        let l = &mut self.links[i];
        l.up = up;
        for e in [l.a, l.b] {
            if let Endpoint::Switch { dpid, port } = e {
                if let Some(s) = self.switches.get_mut(&dpid) {
                    let fx = s.set_link_state(port, !up);
                    self.route_effects(dpid, fx);
                }
            }
        }
    }

    /// All links (topology inspection).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Attach a controller to a switch: returns the driver-side handle and
    /// kicks off the switch's HELLO.
    pub fn attach_controller(&mut self, dpid: u64) -> ControlHandle {
        self.detach_controller(dpid);
        let (to_ctrl, to_ctrl_rx) = unbounded();
        let _attached = Arc::new(());
        let tx = ControlTx {
            dpid,
            queue: self.from_ctrl_tx.clone(),
            attached: Arc::downgrade(&_attached),
        };
        self.control
            .insert(dpid, ControlWires { to_ctrl, _attached });
        let fx = self
            .switches
            .get_mut(&dpid)
            .expect("switch exists")
            .connect();
        self.route_effects(dpid, fx);
        ControlHandle {
            dpid,
            rx: to_ctrl_rx,
            tx,
        }
    }

    /// Detach the controller (simulates controller failure). Bytes it sent
    /// that no pump has delivered yet die with the channel.
    pub fn detach_controller(&mut self, dpid: u64) {
        if self.control.remove(&dpid).is_none() {
            return;
        }
        let kept: Vec<_> = self.from_ctrl.try_iter().filter(|m| m.0 != dpid).collect();
        for m in kept {
            let _ = self.from_ctrl_tx.send(m);
        }
    }

    fn schedule(&mut self, delay_us: u64, ev: Ev) {
        self.seq += 1;
        self.queue.push(Reverse(Timed {
            at_us: self.now_us + delay_us,
            seq: self.seq,
            ev,
        }));
    }

    fn peer_of(&self, e: Endpoint) -> Option<(Endpoint, u64, bool)> {
        let l = &self.links[*self.link_of.get(&e)?];
        let far = if l.a == e { l.b } else { l.a };
        Some((far, l.latency_us, l.up))
    }

    fn route_effects(&mut self, dpid: u64, effects: Vec<Effect>) {
        for fx in effects {
            match fx {
                Effect::Transmit { port, frame } => {
                    let src = Endpoint::Switch { dpid, port };
                    if let Some((dst, latency, up)) = self.peer_of(src) {
                        if up {
                            self.schedule(latency, Ev::FrameAt { dst, frame });
                        }
                    }
                }
                Effect::Control(bytes) => {
                    if let Some(w) = self.control.get(&dpid) {
                        if w.to_ctrl.send(bytes).is_ok() {
                            self.stats.control_deliveries += 1;
                        }
                    }
                }
            }
        }
    }

    fn route_host_frames(&mut self, host: u64, frames: Vec<Bytes>) {
        let src = Endpoint::Host { id: host };
        if let Some((dst, latency, up)) = self.peer_of(src) {
            if up {
                for frame in frames {
                    self.schedule(latency, Ev::FrameAt { dst, frame });
                }
            }
        }
    }

    /// Have a host start a ping.
    pub fn host_ping(&mut self, host: u64, dst: Ipv4Addr, seq: u16) {
        let frames = self
            .hosts
            .get_mut(&host)
            .expect("host exists")
            .ping(dst, seq);
        self.route_host_frames(host, frames);
    }

    /// Have a host send a UDP datagram.
    pub fn host_send_udp(
        &mut self,
        host: u64,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
    ) {
        let frames = self
            .hosts
            .get_mut(&host)
            .expect("host exists")
            .send_udp(dst, src_port, dst_port, payload);
        self.route_host_frames(host, frames);
    }

    /// Have a host send a TCP SYN.
    pub fn host_send_tcp_syn(&mut self, host: u64, dst: Ipv4Addr, src_port: u16, dst_port: u16) {
        let frames = self
            .hosts
            .get_mut(&host)
            .expect("host exists")
            .send_tcp_syn(dst, src_port, dst_port);
        self.route_host_frames(host, frames);
    }

    /// Inject a raw frame into a switch port (test instrumentation).
    pub fn inject(&mut self, dpid: u64, port: u16, frame: Bytes) {
        self.schedule(
            0,
            Ev::FrameAt {
                dst: Endpoint::Switch { dpid, port },
                frame,
            },
        );
    }

    /// Drain controller→switch bytes, in the order they were sent. Returns
    /// whether anything moved.
    fn drain_control(&mut self) -> bool {
        let mut moved = false;
        while let Ok((dpid, bytes)) = self.from_ctrl.try_recv() {
            moved = true;
            self.stats.control_deliveries += 1;
            let now_s = self.now_s();
            if let Some(s) = self.switches.get_mut(&dpid) {
                let fx = s.handle_control_bytes(&bytes, now_s);
                self.route_effects(dpid, fx);
            }
        }
        moved
    }

    /// Work queued for the next [`Network::pump`], without consuming any
    /// of it: scheduled frame events plus undrained controller→switch
    /// bytes. Reads queue lengths only — free, so an event-driven runtime
    /// can skip an idle network entirely.
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.from_ctrl.len()
    }

    /// Process every due event and any controller bytes, repeatedly, until
    /// the network is quiescent. Advances the clock through in-flight frame
    /// latencies. Returns the number of events processed.
    pub fn pump(&mut self) -> u64 {
        let mut processed = 0;
        loop {
            let moved = self.drain_control();
            let ev = self.queue.pop();
            match ev {
                None if !moved => break,
                None => continue,
                Some(Reverse(t)) => {
                    self.now_us = self.now_us.max(t.at_us);
                    processed += 1;
                    self.stats.events += 1;
                    match t.ev {
                        Ev::FrameAt { dst, frame } => {
                            self.stats.frames_delivered += 1;
                            match dst {
                                Endpoint::Switch { dpid, port } => {
                                    let now_s = self.now_s();
                                    if let Some(s) = self.switches.get_mut(&dpid) {
                                        let fx = s.handle_frame(port, frame, now_s);
                                        self.route_effects(dpid, fx);
                                    }
                                }
                                Endpoint::Host { id } => {
                                    if let Some(h) = self.hosts.get_mut(&id) {
                                        let frames = h.handle_frame(&frame);
                                        self.route_host_frames(id, frames);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        processed
    }

    /// Advance virtual time by `seconds`, firing flow timeouts, then pump.
    pub fn advance(&mut self, seconds: u64) {
        self.pump();
        self.now_us += seconds * 1_000_000;
        let now_s = self.now_s();
        let dpids: Vec<u64> = self.switches.keys().copied().collect();
        for dpid in dpids {
            let fx = self.switches.get_mut(&dpid).unwrap().tick(now_s);
            self.route_effects(dpid, fx);
        }
        self.pump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yanc_openflow::{decode, encode, Action, FlowMatch, FlowMod, FrameCodec, Message};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Two hosts on one switch; a controller that floods everything.
    fn flood_net() -> (Network, ControlHandle, u64, u64) {
        let mut net = Network::new();
        net.add_switch(1, "sw1", 4, 1, vec![Version::V1_0]);
        let h1 = net.add_host("h1", ip("10.0.0.1"));
        let h2 = net.add_host("h2", ip("10.0.0.2"));
        net.attach_host(h1, (1, 1), None);
        net.attach_host(h2, (1, 2), None);
        let ctl = net.attach_controller(1);
        // Controller handshake: reply HELLO, install a flood-everything flow.
        ctl.tx
            .send(encode(Version::V1_0, &Message::Hello, 1).unwrap())
            .unwrap();
        let fm = FlowMod::add(
            FlowMatch::any(),
            1,
            vec![Action::out(yanc_openflow::port_no::FLOOD)],
        );
        ctl.tx
            .send(encode(Version::V1_0, &Message::FlowMod(fm), 2).unwrap())
            .unwrap();
        net.pump();
        (net, ctl, h1, h2)
    }

    #[test]
    fn ping_across_flooding_switch() {
        let (mut net, _ctl, h1, h2) = flood_net();
        net.host_ping(h1, ip("10.0.0.2"), 1);
        net.pump();
        assert_eq!(net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
        assert_eq!(net.hosts[&h2].pings_answered, vec![(ip("10.0.0.1"), 1)]);
        // Virtual time advanced by the frame hops.
        assert!(net.now_us() > 0);
    }

    #[test]
    fn handshake_over_wire_bytes() {
        let (mut net, ctl, _, _) = flood_net();
        net.pump();
        // The switch sent its HELLO during attach.
        let mut codec = FrameCodec::new();
        let mut saw_hello = false;
        while let Ok(b) = ctl.rx.try_recv() {
            codec.feed(&b);
            while let Some(f) = codec.next_frame().unwrap() {
                if matches!(decode(&f).unwrap(), Message::Hello) {
                    saw_hello = true;
                }
            }
        }
        assert!(saw_hello);
        assert_eq!(net.switches[&1].negotiated(), Some(Version::V1_0));
    }

    #[test]
    fn packet_in_reaches_controller_without_flows() {
        let mut net = Network::new();
        net.add_switch(1, "sw1", 2, 1, vec![Version::V1_3]);
        let h1 = net.add_host("h1", ip("10.0.0.1"));
        net.attach_host(h1, (1, 1), None);
        let ctl = net.attach_controller(1);
        ctl.tx
            .send(encode(Version::V1_3, &Message::Hello, 1).unwrap())
            .unwrap();
        net.pump();
        net.host_ping(h1, ip("10.0.0.2"), 1); // ARP broadcast → table miss
        net.pump();
        let mut codec = FrameCodec::new();
        let mut saw_packet_in = false;
        while let Ok(b) = ctl.rx.try_recv() {
            codec.feed(&b);
            while let Some(f) = codec.next_frame().unwrap() {
                if let Message::PacketIn { in_port, .. } = decode(&f).unwrap() {
                    assert_eq!(in_port, 1);
                    saw_packet_in = true;
                }
            }
        }
        assert!(saw_packet_in);
    }

    #[test]
    fn multi_hop_line_topology() {
        let mut net = Network::new();
        for d in 1..=3u64 {
            net.add_switch(d, &format!("sw{d}"), 4, 1, vec![Version::V1_0]);
        }
        net.link_switches((1, 3), (2, 1), None);
        net.link_switches((2, 2), (3, 3), None);
        let h1 = net.add_host("h1", ip("10.0.0.1"));
        let h2 = net.add_host("h2", ip("10.0.0.2"));
        net.attach_host(h1, (1, 1), None);
        net.attach_host(h2, (3, 1), None);
        for d in 1..=3u64 {
            let ctl = net.attach_controller(d);
            ctl.tx
                .send(encode(Version::V1_0, &Message::Hello, 1).unwrap())
                .unwrap();
            let fm = FlowMod::add(
                FlowMatch::any(),
                1,
                vec![Action::out(yanc_openflow::port_no::FLOOD)],
            );
            ctl.tx
                .send(encode(Version::V1_0, &Message::FlowMod(fm), 2).unwrap())
                .unwrap();
            // Keep the handle alive past the loop.
            std::mem::forget(ctl);
        }
        net.pump();
        net.host_ping(h1, ip("10.0.0.2"), 9);
        net.pump();
        assert_eq!(net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 9)]);
        // 100µs/hop, 3 hops each way for ARP + ICMP round trips.
        assert!(net.now_us() >= 600);
    }

    #[test]
    fn link_down_stops_traffic_and_reports() {
        let (mut net, ctl, h1, _h2) = flood_net();
        while ctl.rx.try_recv().is_ok() {}
        net.set_link_up(Endpoint::Switch { dpid: 1, port: 2 }, false);
        net.host_ping(h1, ip("10.0.0.2"), 2);
        net.pump();
        assert!(net.hosts[&h1].ping_replies.is_empty());
        // The controller heard about the port change.
        let mut codec = FrameCodec::new();
        let mut saw_status = false;
        while let Ok(b) = ctl.rx.try_recv() {
            codec.feed(&b);
            while let Some(f) = codec.next_frame().unwrap() {
                if let Message::PortStatus { desc, .. } = decode(&f).unwrap() {
                    if desc.port_no == 2 && desc.link_down {
                        saw_status = true;
                    }
                }
            }
        }
        assert!(saw_status);
    }

    #[test]
    fn advance_expires_flows() {
        let (mut net, ctl, _h1, _h2) = flood_net();
        let mut fm = FlowMod::add(
            FlowMatch {
                tp_dst: Some(22),
                ..Default::default()
            },
            9,
            vec![],
        );
        fm.hard_timeout = 5;
        ctl.tx
            .send(encode(Version::V1_0, &Message::FlowMod(fm), 3).unwrap())
            .unwrap();
        net.pump();
        assert_eq!(net.switches[&1].flow_count(), 2);
        net.advance(10);
        assert_eq!(net.switches[&1].flow_count(), 1);
    }

    /// Four leaves behind one hub, one packet-out queued on every leaf
    /// before a single pump: the frames reach the host behind the hub in
    /// the order the controller sent them — every time, in one process.
    #[test]
    fn simultaneous_controller_bytes_are_scheduled_in_send_order() {
        let arrivals = || {
            let mut net = Network::new();
            let host = net.add_host("h", ip("10.0.0.9"));
            net.add_switch(9, "hub", 5, 1, vec![Version::V1_0]);
            net.attach_host(host, (9, 5), None);
            let mac = net.hosts[&host].mac;
            let hello = || encode(Version::V1_0, &Message::Hello, 1).unwrap();
            let hub = net.attach_controller(9);
            hub.tx.send(hello()).unwrap();
            let to_host = FlowMod::add(FlowMatch::any(), 1, vec![Action::out(5)]);
            let to_host = Message::FlowMod(to_host);
            hub.tx
                .send(encode(Version::V1_0, &to_host, 2).unwrap())
                .unwrap();
            let mut leaves = Vec::new();
            for d in 1..=4u16 {
                net.add_switch(d as u64, &format!("leaf{d}"), 1, 1, vec![Version::V1_0]);
                net.link_switches((d as u64, 1), (9, d), None);
                let ctl = net.attach_controller(d as u64);
                ctl.tx.send(hello()).unwrap();
                leaves.push(ctl);
            }
            net.pump();
            for (d, ctl) in (1..=4u16).zip(&leaves) {
                let out = Message::PacketOut {
                    buffer_id: None,
                    in_port: yanc_openflow::port_no::NONE,
                    actions: vec![Action::out(1)],
                    data: yanc_packet::build_udp(
                        yanc_packet::MacAddr::from_seed(d as u64),
                        mac,
                        ip("10.0.0.1"),
                        ip("10.0.0.9"),
                        d,
                        7,
                        Bytes::new(),
                    ),
                };
                ctl.tx
                    .send(encode(Version::V1_0, &out, 3).unwrap())
                    .unwrap();
            }
            net.pump();
            let got: Vec<u16> = net.hosts[&host]
                .udp_received
                .iter()
                .map(|u| u.src_port)
                .collect();
            got
        };
        for _ in 0..16 {
            assert_eq!(arrivals(), [1, 2, 3, 4]);
        }
    }

    /// Bytes a controller sent before it was detached, and anything it
    /// tries to send afterwards, never reach the switch — not even once a
    /// new controller is attached to the same dpid.
    #[test]
    fn detached_controller_bytes_never_arrive() {
        let (mut net, old, _h1, _h2) = flood_net();
        let flow = |tp_dst| {
            let m = FlowMatch {
                tp_dst: Some(tp_dst),
                ..Default::default()
            };
            encode(
                Version::V1_0,
                &Message::FlowMod(FlowMod::add(m, 9, vec![])),
                3,
            )
            .unwrap()
        };
        old.tx.send(flow(22)).unwrap();
        assert_eq!(net.pending_events(), 1);
        net.detach_controller(1);
        assert_eq!(net.pending_events(), 0);
        assert!(old.tx.send(flow(23)).is_err());
        let new = net.attach_controller(1);
        assert!(old.tx.send(flow(24)).is_err());
        new.tx.send(flow(25)).unwrap();
        net.pump();
        // The flood flow from `flood_net` plus the new controller's one.
        assert_eq!(net.switches[&1].flow_count(), 2);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut net, _ctl, h1, _h2) = flood_net();
            net.host_ping(h1, ip("10.0.0.2"), 1);
            net.host_send_udp(h1, ip("10.0.0.2"), 1000, 2000, Bytes::from_static(b"x"));
            net.pump();
            (
                net.stats.events,
                net.now_us(),
                net.hosts[&h1].ping_replies.clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
