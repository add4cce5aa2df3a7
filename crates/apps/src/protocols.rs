//! Per-protocol daemons (paper §2: "there should be a distinct application
//! for each protocol the network needs to support such as DHCP, ARP, and
//! LLDP").
//!
//! * [`ArpResponder`] answers ARP requests from a host registry kept in
//!   `/net/hosts/<name>/{ip,mac}` — yanc's `hosts/` directory earning its
//!   keep — so broadcasts never need to flood the fabric.
//! * [`DhcpDaemon`] is a file-configured DHCP server: pool in
//!   `/net/dhcp/{base,size}`, leases materialized as
//!   `/net/dhcp/leases/<mac>`.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use yanc::{EventSubscription, HostRecord, Object, PacketInRecord, YancFs};
use yanc_openflow::port_no;
use yanc_packet::{
    build_arp_reply, DhcpMessage, DhcpMessageType, EtherType, EthernetFrame, Ipv4Packet, MacAddr,
    UdpDatagram,
};
use yanc_vfs::Mode;

/// Register a host in `/net/hosts/<name>` (ip + mac files).
pub fn register_host(yfs: &YancFs, name: &str, ip: Ipv4Addr, mac: MacAddr) -> yanc::YancResult<()> {
    let (ip, location) = (Some(ip), None);
    yfs.write_host(name, &HostRecord { mac, ip, location })
}

/// Read the host registry: `ip → mac`.
pub fn host_registry(yfs: &YancFs) -> yanc::YancResult<HashMap<Ipv4Addr, MacAddr>> {
    let hosts = yfs.read_hosts()?.into_iter();
    Ok(hosts.filter_map(|(_, h)| Some((h.ip?, h.mac))).collect())
}

/// ARP daemon: answers requests for registered hosts via packet-out.
pub struct ArpResponder {
    yfs: YancFs,
    sub: EventSubscription,
    /// Replies sent (metrics).
    pub replies: usize,
}

impl ArpResponder {
    /// Subscribe as `arpd`.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("arpd")?;
        Ok(ArpResponder {
            yfs,
            sub,
            replies: 0,
        })
    }

    /// Drain packet-ins, answering ARP requests we can resolve.
    pub fn run_once(&mut self) -> bool {
        let recs = self.sub.drain_all();
        let worked = !recs.is_empty();
        for rec in recs {
            self.handle(&rec);
        }
        worked
    }

    fn handle(&mut self, rec: &PacketInRecord) {
        let eth = match EthernetFrame::parse(&rec.data) {
            Ok(e) => e,
            Err(_) => return,
        };
        if eth.ethertype != EtherType::ARP {
            return;
        }
        let arp = match yanc_packet::ArpPacket::parse(&eth.payload) {
            Ok(a) => a,
            Err(_) => return,
        };
        if arp.op != yanc_packet::ArpOp::Request {
            return;
        }
        let registry = match host_registry(&self.yfs) {
            Ok(r) => r,
            Err(_) => return,
        };
        let Some(&mac) = registry.get(&arp.tpa) else {
            return;
        };
        let reply = build_arp_reply(mac, arp.tpa, arp.sha, arp.spa);
        let out = rec.in_port.to_string();
        let sent = self
            .yfs
            .packet_out(&rec.switch, None, port_no::NONE, &out, &reply);
        if sent.is_ok() {
            self.replies += 1;
        }
    }
}

/// A file-configured DHCP server daemon.
pub struct DhcpDaemon {
    yfs: YancFs,
    sub: EventSubscription,
    server_ip: Ipv4Addr,
    server_mac: MacAddr,
    pool_base: Ipv4Addr,
    pool_size: u32,
    leases: HashMap<MacAddr, Ipv4Addr>,
    /// Offers + acks sent (metrics).
    pub responses: usize,
}

impl DhcpDaemon {
    /// Subscribe as `dhcpd`; pool configured via arguments and mirrored to
    /// `/net/dhcp/` files.
    pub fn new(
        yfs: YancFs,
        server_ip: Ipv4Addr,
        pool_base: Ipv4Addr,
        pool_size: u32,
    ) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("dhcpd")?;
        let pool = |_fresh| {
            Ok(vec![
                ("base", pool_base.to_string()),
                ("size", pool_size.to_string()),
            ])
        };
        yfs.put_objects(yfs.root(), [Object::new("dhcp", pool)])?;
        let leases = yfs.root().join("dhcp").join("leases");
        yfs.filesystem()
            .mkdir_all(leases.as_str(), Mode::DIR_DEFAULT, yfs.creds())?;
        Ok(DhcpDaemon {
            server_mac: MacAddr::from_seed(0xd4c9_0001),
            yfs,
            sub,
            server_ip,
            pool_base,
            pool_size,
            leases: HashMap::new(),
            responses: 0,
        })
    }

    fn allocate(&mut self, mac: MacAddr) -> Option<Ipv4Addr> {
        if let Some(&ip) = self.leases.get(&mac) {
            return Some(ip);
        }
        let n = self.leases.len() as u32;
        if n >= self.pool_size {
            return None;
        }
        let ip = Ipv4Addr::from(u32::from(self.pool_base) + n);
        self.leases.insert(mac, ip);
        // Lease as a file: `/net/dhcp/leases/<mac>` containing the IP.
        let p = self
            .yfs
            .root()
            .join("dhcp")
            .join("leases")
            .join(&mac.to_string().replace(':', "-"));
        let _ = self.yfs.filesystem().write_file(
            p.as_str(),
            ip.to_string().as_bytes(),
            self.yfs.creds(),
        );
        Some(ip)
    }

    /// Drain packet-ins, answering DHCP.
    pub fn run_once(&mut self) -> bool {
        let recs = self.sub.drain_all();
        let worked = !recs.is_empty();
        for rec in recs {
            self.handle(&rec);
        }
        worked
    }

    fn handle(&mut self, rec: &PacketInRecord) {
        let eth = match EthernetFrame::parse(&rec.data) {
            Ok(e) => e,
            Err(_) => return,
        };
        if eth.ethertype != EtherType::IPV4 {
            return;
        }
        let Ok(ip) = Ipv4Packet::parse(&eth.payload) else {
            return;
        };
        if ip.proto != yanc_packet::ip_proto::UDP {
            return;
        }
        let Ok(udp) = UdpDatagram::parse(&ip.payload, ip.src, ip.dst) else {
            return;
        };
        if udp.dst_port != 67 {
            return;
        }
        let Ok(msg) = DhcpMessage::parse(&udp.payload) else {
            return;
        };
        let reply_type = match msg.msg_type {
            DhcpMessageType::Discover => DhcpMessageType::Offer,
            DhcpMessageType::Request => DhcpMessageType::Ack,
            DhcpMessageType::Release => {
                self.leases.remove(&msg.chaddr);
                return;
            }
            _ => return,
        };
        let Some(yiaddr) = self.allocate(msg.chaddr) else {
            return;
        };
        let reply = DhcpMessage {
            msg_type: reply_type,
            xid: msg.xid,
            chaddr: msg.chaddr,
            yiaddr,
            requested_ip: None,
            server_id: Some(self.server_ip),
            lease_secs: Some(3600),
            subnet_mask: Some(Ipv4Addr::new(255, 255, 255, 0)),
        };
        let udp_reply = UdpDatagram {
            src_port: 67,
            dst_port: 68,
            payload: reply.encode(),
        };
        let ip_reply = Ipv4Packet {
            tos: 0,
            id: 0,
            ttl: 64,
            proto: yanc_packet::ip_proto::UDP,
            src: self.server_ip,
            dst: yiaddr,
            payload: udp_reply.encode(self.server_ip, yiaddr),
        };
        let frame = EthernetFrame {
            dst: msg.chaddr,
            src: self.server_mac,
            vlan: None,
            ethertype: EtherType::IPV4,
            payload: ip_reply.encode(),
        }
        .encode();
        let out = rec.in_port.to_string();
        let sent = self
            .yfs
            .packet_out(&rec.switch, None, port_no::NONE, &out, &frame);
        if sent.is_ok() {
            self.responses += 1;
        }
    }
}

impl yanc::YancApp for ArpResponder {
    fn name(&self) -> &str {
        "arpd"
    }

    fn run_once(&mut self) -> yanc::YancResult<bool> {
        Ok(ArpResponder::run_once(self))
    }
}

impl yanc::YancApp for DhcpDaemon {
    fn name(&self) -> &str {
        "dhcpd"
    }

    fn run_once(&mut self) -> yanc::YancResult<bool> {
        Ok(DhcpDaemon::run_once(self))
    }

    /// `SIGHUP`: re-read the pool from `/net/dhcp/{base,size}` — an
    /// operator grows the pool with `echo`, then signals the daemon.
    fn reload(&mut self) -> yanc::YancResult<()> {
        let fs = self.yfs.filesystem();
        let dir = self.yfs.root().join("dhcp");
        if let Ok(s) = fs.read_to_string(dir.join("base").as_str(), self.yfs.creds()) {
            if let Ok(ip) = s.trim().parse() {
                self.pool_base = ip;
            }
        }
        if let Ok(s) = fs.read_to_string(dir.join("size").as_str(), self.yfs.creds()) {
            if let Ok(n) = s.trim().parse() {
                self.pool_size = n;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use yanc_driver::Runtime;
    use yanc_openflow::Version;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn registry_roundtrip() {
        let rt = Runtime::new();
        register_host(&rt.yfs, "h1", ip("10.0.0.1"), MacAddr::from_seed(1)).unwrap();
        register_host(&rt.yfs, "h2", ip("10.0.0.2"), MacAddr::from_seed(2)).unwrap();
        let reg = host_registry(&rt.yfs).unwrap();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg[&ip("10.0.0.1")], MacAddr::from_seed(1));
    }

    #[test]
    fn arp_responder_answers_without_flooding() {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(0x9, 2, 1, vec![Version::V1_0], Version::V1_0);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (0x9, 1), None);
        rt.net.attach_host(h2, (0x9, 2), None);
        rt.pump().unwrap();
        // Register h2 so the daemon can answer for it.
        let h2mac = rt.net.hosts[&h2].mac;
        register_host(&rt.yfs, "h2", ip("10.0.0.2"), h2mac).unwrap();
        let mut arpd = ArpResponder::new(rt.yfs.clone()).unwrap();
        // h1 pings h2: the initial ARP goes to the controller (table miss).
        rt.net.host_ping(h1, ip("10.0.0.2"), 1);
        loop {
            let a = rt.pump().unwrap();
            let b = arpd.run_once();
            if a <= 1 && !b {
                break;
            }
        }
        assert_eq!(arpd.replies, 1);
        // h1 learned the answer and fired the ICMP echo; h2 never saw the
        // ARP request (no flooding happened).
        assert!(rt.net.hosts[&h1].frames_received >= 1);
        // ICMP itself still misses (no flows installed by arpd) — that's
        // the router's job; here we just assert the ARP was answered.
    }

    #[test]
    fn dhcp_discover_offer_request_ack() {
        let mut rt = Runtime::new();
        rt.add_switch_with_driver(0x9, 2, 1, vec![Version::V1_3], Version::V1_3);
        let h1 = rt.net.add_host("h1", ip("0.0.0.0"));
        rt.net.attach_host(h1, (0x9, 1), None);
        rt.pump().unwrap();
        let mut dhcpd =
            DhcpDaemon::new(rt.yfs.clone(), ip("10.0.0.1"), ip("10.0.0.100"), 10).unwrap();
        let h1mac = rt.net.hosts[&h1].mac;
        // Inject a DISCOVER as the host's stack would send it.
        let discover = DhcpMessage {
            msg_type: DhcpMessageType::Discover,
            xid: 0x1234,
            chaddr: h1mac,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            requested_ip: None,
            server_id: None,
            lease_secs: None,
            subnet_mask: None,
        };
        let udp = UdpDatagram {
            src_port: 68,
            dst_port: 67,
            payload: discover.encode(),
        };
        let ipp = Ipv4Packet {
            tos: 0,
            id: 0,
            ttl: 64,
            proto: yanc_packet::ip_proto::UDP,
            src: ip("0.0.0.0"),
            dst: ip("255.255.255.255"),
            payload: udp.encode(ip("0.0.0.0"), ip("255.255.255.255")),
        };
        let frame = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: h1mac,
            vlan: None,
            ethertype: EtherType::IPV4,
            payload: ipp.encode(),
        }
        .encode();
        rt.net.inject(0x9, 1, frame);
        loop {
            let a = rt.pump().unwrap();
            let b = dhcpd.run_once();
            if a <= 1 && !b {
                break;
            }
        }
        assert_eq!(dhcpd.responses, 1);
        // The lease is a file.
        let lease_name = h1mac.to_string().replace(':', "-");
        let lease = rt
            .yfs
            .filesystem()
            .read_to_string(&format!("/net/dhcp/leases/{lease_name}"), rt.yfs.creds())
            .unwrap();
        assert_eq!(lease, "10.0.0.100");
        // Same client re-requests: same address (ACK), no new lease.
        let frame2 = {
            let req = DhcpMessage {
                msg_type: DhcpMessageType::Request,
                xid: 0x1235,
                chaddr: h1mac,
                yiaddr: Ipv4Addr::UNSPECIFIED,
                requested_ip: Some(ip("10.0.0.100")),
                server_id: Some(ip("10.0.0.1")),
                lease_secs: None,
                subnet_mask: None,
            };
            let udp = UdpDatagram {
                src_port: 68,
                dst_port: 67,
                payload: req.encode(),
            };
            let ipp = Ipv4Packet {
                tos: 0,
                id: 1,
                ttl: 64,
                proto: yanc_packet::ip_proto::UDP,
                src: ip("0.0.0.0"),
                dst: ip("255.255.255.255"),
                payload: udp.encode(ip("0.0.0.0"), ip("255.255.255.255")),
            };
            EthernetFrame {
                dst: MacAddr::BROADCAST,
                src: h1mac,
                vlan: None,
                ethertype: EtherType::IPV4,
                payload: ipp.encode(),
            }
            .encode()
        };
        rt.net.inject(0x9, 1, frame2);
        loop {
            let a = rt.pump().unwrap();
            let b = dhcpd.run_once();
            if a <= 1 && !b {
                break;
            }
        }
        assert_eq!(dhcpd.responses, 2);
        assert_eq!(dhcpd.leases.len(), 1);
        let _ = Bytes::new();
    }
}
