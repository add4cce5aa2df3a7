//! The topology discovery daemon (paper §4.3).
//!
//! "A topology application will handle LLDP messages for discovery and
//! create symbolic links which connect source to destination ports."
//!
//! The daemon is an ordinary yanc application: it installs an
//! LLDP-to-controller flow on every switch (through flow files), emits LLDP
//! probes through each switch's `packet_out` file, and when a probe shows
//! up as a packet-in on a neighbouring switch, records the link as a `peer`
//! symlink. Everything it knows, it knows through the file system.

use std::collections::{HashMap, HashSet, VecDeque};

use yanc::{EventSubscription, FlowSpec, YancFs};
use yanc_openflow::{port_no, Action, FlowMatch};
use yanc_packet::{EtherType, EthernetFrame, LldpPacket, MacAddr};
use yanc_vfs::{EventKind, EventMask, WatchGuard};

/// The discovery daemon.
pub struct TopologyDaemon {
    yfs: YancFs,
    sub: EventSubscription,
    /// Switches we've already provisioned with the LLDP capture flow.
    provisioned: HashSet<String>,
    /// Whether a probe round has run since start/reload (the supervised
    /// event loop probes lazily on its first slice).
    probed: bool,
    /// Links created so far (for idempotence/metrics).
    pub links_found: usize,
}

impl TopologyDaemon {
    /// Subscribe as `topod`.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let sub = yfs.subscribe_events("topod")?;
        Ok(TopologyDaemon {
            yfs,
            sub,
            provisioned: HashSet::new(),
            probed: false,
            links_found: 0,
        })
    }

    /// Ensure every switch captures LLDP to the controller, then emit one
    /// LLDP probe out of every port of every switch.
    pub fn probe(&mut self) -> yanc::YancResult<()> {
        self.probed = true;
        for sw in self.yfs.list_switches()? {
            if !self.provisioned.contains(&sw) {
                let spec = FlowSpec {
                    m: FlowMatch {
                        dl_type: Some(EtherType::LLDP.0),
                        ..Default::default()
                    },
                    actions: vec![Action::out(port_no::CONTROLLER)],
                    priority: 65000,
                    ..Default::default()
                };
                self.yfs.write_flow(&sw, "lldp_capture", &spec)?;
                self.provisioned.insert(sw.clone());
            }
            for port in self.yfs.list_ports(&sw)? {
                let frame = yanc_packet::build_lldp(
                    MacAddr::from_seed(0x11dd_0000 | u64::from(port)),
                    &sw,
                    &port.to_string(),
                );
                self.yfs
                    .packet_out(&sw, None, port_no::NONE, &port.to_string(), &frame)?;
            }
        }
        Ok(())
    }

    /// Consume pending packet-ins; LLDP ones become `peer` symlinks.
    /// Returns whether any progress was made.
    pub fn run_once(&mut self) -> bool {
        let mut worked = false;
        for rec in self.sub.drain_all() {
            worked = true;
            let eth = match EthernetFrame::parse(&rec.data) {
                Ok(e) => e,
                Err(_) => continue,
            };
            if eth.ethertype != EtherType::LLDP {
                continue;
            }
            let lldp = match LldpPacket::parse(&eth.payload) {
                Ok(l) => l,
                Err(_) => continue,
            };
            let src_port: u16 = match lldp.port_id.parse() {
                Ok(p) => p,
                Err(_) => continue,
            };
            // The probe left (lldp.chassis_id, src_port) and arrived at
            // (rec.switch, rec.in_port): that's a link; record both ends.
            if self
                .yfs
                .set_peer(&rec.switch, rec.in_port, &lldp.chassis_id, src_port)
                .is_ok()
            {
                let _ = self
                    .yfs
                    .set_peer(&lldp.chassis_id, src_port, &rec.switch, rec.in_port);
                self.links_found += 1;
            }
        }
        worked
    }
}

impl yanc::YancApp for TopologyDaemon {
    fn name(&self) -> &str {
        "topod"
    }

    /// One supervised slice: probe lazily on the first slice after a
    /// start/restart/reload (so a resurrected daemon rediscovers the
    /// fabric), then drain packet-ins.
    fn run_once(&mut self) -> yanc::YancResult<bool> {
        if !self.probed {
            self.probe()?;
            return Ok(true);
        }
        Ok(TopologyDaemon::run_once(self))
    }

    /// Ready until the first probe has run (a restarted daemon must
    /// rediscover the fabric even with no events queued), then
    /// level-triggered on the packet-in subscription.
    fn ready(&self) -> bool {
        !self.probed || self.sub.ready()
    }

    /// `SIGHUP`: forget which switches are provisioned and re-probe.
    fn reload(&mut self) -> yanc::YancResult<()> {
        self.provisioned.clear();
        self.probed = false;
        Ok(())
    }
}

/// The fabric's links as an adjacency list over interned switch indices:
/// what one scan of every `peer` symlink yields, in the shape a search
/// wants. Switch names are cloned once per scan, not once per search.
#[derive(Default)]
struct Graph {
    names: Vec<String>,
    index: HashMap<String, u32>,
    /// Per switch, `(egress port, neighbour)` in ascending port order — the
    /// order the search tries them, so equal-length paths tie-break the
    /// same way on every scan. The neighbour is `None` for a `peer` the
    /// application may not read: such a port is no edge port, and no route
    /// either.
    adj: Vec<Vec<(u16, Option<u32>)>>,
}

impl Graph {
    /// Read every link: one `readdir` of `switches/`, one per switch's
    /// `ports/`, one `readlink` per port. A switch whose ports the
    /// application may not list (§5.1: permissions are per switch) has
    /// none; it must not blind a daemon to the rest of the fabric.
    fn scan(yfs: &YancFs) -> yanc::YancResult<Graph> {
        let mut g = Graph::default();
        for sw in yfs.list_switches()? {
            let a = g.intern(&sw) as usize;
            // `list_ports` is in ascending order.
            for port in yfs.list_ports(&sw).unwrap_or_default() {
                let nbr = match yfs.peer(&sw, port) {
                    Ok(None) => continue,
                    Ok(Some((peer_sw, _peer_port))) => Some(g.intern(&peer_sw)),
                    Err(_) => None,
                };
                g.adj[a].push((port, nbr));
            }
        }
        Ok(g)
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = u32::try_from(self.names.len()).expect("more than u32::MAX switches");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.adj.push(Vec::new());
        i
    }

    fn has_peer(&self, sw: &str, port: u16) -> bool {
        self.index.get(sw).is_some_and(|&i| {
            self.adj[i as usize]
                .binary_search_by_key(&port, |&(p, _)| p)
                .is_ok()
        })
    }

    /// Breadth-first search; hops as `(switch, egress port)`.
    fn shortest_path(&self, from: &str, to: &str) -> Option<Vec<(String, u16)>> {
        if from == to {
            return Some(Vec::new());
        }
        let (&from, &to) = (self.index.get(from)?, self.index.get(to)?);
        // prev[n] = the switch and egress port `n` was first reached by.
        let mut prev: Vec<Option<(u32, u16)>> = vec![None; self.names.len()];
        let mut queue = VecDeque::from([from]);
        'search: while let Some(cur) = queue.pop_front() {
            for &(port, nbr) in &self.adj[cur as usize] {
                let Some(nbr) = nbr else { continue };
                if nbr != from && prev[nbr as usize].is_none() {
                    prev[nbr as usize] = Some((cur, port));
                    if nbr == to {
                        break 'search;
                    }
                    queue.push_back(nbr);
                }
            }
        }
        let mut hops = Vec::new();
        let mut node = to;
        while node != from {
            let (p, port) = prev[node as usize]?;
            hops.push((self.names[p as usize].clone(), port));
            node = p;
        }
        hops.reverse();
        Some(hops)
    }
}

/// Shortest path between two switches from one fresh scan of the `peer`
/// symlinks. Returns hops as `(switch, egress port)` ending with the hop
/// out of `to`'s predecessor — i.e. the ports to wire a path
/// `from → … → to`. Empty when `from == to`.
///
/// Daemons route from a [`TopologyView`]; this is the one-shot form for
/// tools, and the oracle the view is tested against.
pub fn shortest_path(
    yfs: &YancFs,
    from: &str,
    to: &str,
) -> yanc::YancResult<Option<Vec<(String, u16)>>> {
    Ok(Graph::scan(yfs)?.shortest_path(from, to))
}

/// The ingress port on each switch along a path: for consecutive hops the
/// packet enters hop `i+1` on the peer port of hop `i`'s egress.
pub fn ingress_ports(yfs: &YancFs, hops: &[(String, u16)]) -> yanc::YancResult<Vec<(String, u16)>> {
    let mut out = Vec::new();
    for (sw, port) in hops {
        if let Some((peer_sw, peer_port)) = yfs.peer(sw, *port)? {
            out.push((peer_sw, peer_port));
        }
    }
    Ok(out)
}

/// An application's cache of the fabric's links, kept coherent by notify
/// and validated on use (paper §5.2: applications keep their state current
/// with inotify instead of re-reading `/net`).
///
/// Two watches feed it: every `peer` entry under `switches/` (one subtree
/// watch filtered by name, so flow and counter traffic is never queued)
/// and `switches/` itself for switches added, removed or renamed. Both are
/// drained before every lookup; any event at all drops the graph and the
/// next lookup rescans. "Any event means rescan" is also what makes a
/// notify tail-drop harmless: events are only dropped from a queue that is
/// already non-empty.
///
/// A lookup therefore costs no file-system calls while the fabric is
/// still, and one scan after it moved. [`Self::plan`] additionally reads
/// the live `peer` of each link it chose, so a view that is stale for a
/// reason notify cannot see costs a rescan, never a wrong path.
pub struct TopologyView {
    yfs: YancFs,
    peers: WatchGuard,
    switches: WatchGuard,
    graph: Option<Graph>,
    /// Scans of the `peer` symlinks (metrics).
    pub rebuilds: usize,
    /// Questions answered from the graph (metrics).
    pub lookups: usize,
    /// Plans whose live `peer` reads disagreed with the graph (metrics).
    pub revalidations: usize,
}

impl TopologyView {
    /// Register the watches. The first lookup scans.
    pub fn new(yfs: YancFs) -> yanc::YancResult<Self> {
        let dir = yfs.switches_dir();
        let entries = EventMask::CHILDREN
            .or(EventMask::only(EventKind::MovedFrom))
            .or(EventMask::only(EventKind::MovedTo));
        // Charged to the application like its packet-in subscription, so a
        // supervised daemon's watches are budgeted and reclaimed with it.
        let watch = || {
            yfs.filesystem()
                .watch(dir.as_str())
                .mask(entries)
                .as_creds(yfs.creds())
        };
        let peers = watch().subtree().named("peer").register()?;
        let switches = watch().register()?;
        Ok(TopologyView {
            yfs,
            peers,
            switches,
            graph: None,
            rebuilds: 0,
            lookups: 0,
            revalidations: 0,
        })
    }

    /// Forget the graph; the next lookup rescans.
    pub fn invalidate(&mut self) {
        self.graph = None;
    }

    /// The graph as of now: dropped if anything was notified since the
    /// last lookup, scanned if absent.
    fn graph(&mut self) -> yanc::YancResult<&Graph> {
        let peers = self.peers.receiver().try_iter().count();
        let switches = self.switches.receiver().try_iter().count();
        if peers + switches > 0 {
            self.graph = None;
        }
        self.lookups += 1;
        match &mut self.graph {
            Some(g) => Ok(g),
            empty => {
                self.rebuilds += 1;
                Ok(empty.insert(Graph::scan(&self.yfs)?))
            }
        }
    }

    /// Whether `sw:port` is an inter-switch link (has a `peer`).
    pub fn has_peer(&mut self, sw: &str, port: u16) -> yanc::YancResult<bool> {
        Ok(self.graph()?.has_peer(sw, port))
    }

    /// [`shortest_path`] from the view.
    pub fn shortest_path(
        &mut self,
        from: &str,
        to: &str,
    ) -> yanc::YancResult<Option<Vec<(String, u16)>>> {
        Ok(self.graph()?.shortest_path(from, to))
    }

    /// The per-switch `(switch, in port, out port)` steps that carry a
    /// packet entering at `src` out of `dst`, along the shortest path.
    /// `None` when there is no path.
    ///
    /// Validated on use: the live `peer` of every chosen egress must lead
    /// to the next switch of the path. On a mismatch the view is dropped,
    /// rescanned and asked once more.
    pub fn plan(
        &mut self,
        src: (&str, u16),
        dst: (&str, u16),
    ) -> yanc::YancResult<Option<Vec<(String, u16, u16)>>> {
        for retry in [true, false] {
            let Some(hops) = self.shortest_path(src.0, dst.0)? else {
                return Ok(None);
            };
            let ingresses = ingress_ports(&self.yfs, &hops)?;
            let live = ingresses.len() == hops.len()
                && ingresses.iter().enumerate().all(|(i, (sw, _))| {
                    sw == hops.get(i + 1).map_or(dst.0, |(next, _)| next.as_str())
                });
            if live {
                let mut plan = Vec::with_capacity(hops.len() + 1);
                let mut in_port = src.1;
                for ((sw, egress), (_, ingress)) in hops.into_iter().zip(ingresses) {
                    plan.push((sw, in_port, egress));
                    in_port = ingress;
                }
                plan.push((dst.0.to_string(), in_port, dst.1));
                return Ok(Some(plan));
            }
            if retry {
                self.revalidations += 1;
                self.invalidate();
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port;
    use std::sync::Arc;
    use yanc_vfs::Filesystem;

    fn yfs_with_line(n: usize) -> YancFs {
        // line: sw0 -p2- sw1 -p2- sw2 … (port1 faces down, port2 faces up)
        let y = YancFs::init(Arc::new(Filesystem::new()), "/net").unwrap();
        for i in 0..n {
            let name = format!("s{i}");
            y.create_switch(&name, i as u64, 0, 0, 0, 1, None).unwrap();
            for p in 1..=3u16 {
                y.create_ports(&name, &[port(p, "02:00:00:00:00:01")])
                    .unwrap();
            }
        }
        for i in 0..n - 1 {
            y.set_peer(&format!("s{i}"), 2, &format!("s{}", i + 1), 1)
                .unwrap();
            y.set_peer(&format!("s{}", i + 1), 1, &format!("s{i}"), 2)
                .unwrap();
        }
        y
    }

    #[test]
    fn bfs_on_line() {
        let y = yfs_with_line(4);
        let path = shortest_path(&y, "s0", "s3").unwrap().unwrap();
        assert_eq!(
            path,
            vec![
                ("s0".to_string(), 2),
                ("s1".to_string(), 2),
                ("s2".to_string(), 2)
            ]
        );
        let ins = ingress_ports(&y, &path).unwrap();
        assert_eq!(
            ins,
            vec![
                ("s1".to_string(), 1),
                ("s2".to_string(), 1),
                ("s3".to_string(), 1)
            ]
        );
        assert_eq!(shortest_path(&y, "s2", "s2").unwrap().unwrap(), vec![]);
    }

    #[test]
    fn view_rescans_only_after_a_notified_change() {
        let y = yfs_with_line(4);
        let mut view = TopologyView::new(y.clone()).unwrap();
        for _ in 0..3 {
            assert_eq!(view.shortest_path("s0", "s3").unwrap().unwrap().len(), 3);
            assert!(view.has_peer("s1", 2).unwrap());
            assert!(!view.has_peer("s1", 3).unwrap());
        }
        assert_eq!((view.rebuilds, view.lookups), (1, 9));
        y.clear_peer("s1", 2).unwrap();
        assert_eq!(view.shortest_path("s0", "s3").unwrap(), None);
        assert!(!view.has_peer("s1", 2).unwrap());
        assert_eq!(view.rebuilds, 2);
        y.create_switch("s9", 9, 0, 0, 0, 1, None).unwrap(); // switches/ itself
        view.has_peer("s9", 1).unwrap();
        assert_eq!(view.rebuilds, 3);
        view.invalidate();
        view.has_peer("s9", 1).unwrap();
        assert_eq!(view.rebuilds, 4);
    }

    #[test]
    fn bfs_unreachable() {
        let y = yfs_with_line(2);
        y.create_switch("island", 99, 0, 0, 0, 1, None).unwrap();
        assert_eq!(shortest_path(&y, "s0", "island").unwrap(), None);
    }

    #[test]
    fn a_switch_the_app_may_not_read_blinds_only_itself() {
        // s0 - s1 - s2, and s1 also reaches the private switch s3.
        let y = yfs_with_line(4);
        y.clear_peer("s2", 2).unwrap();
        y.clear_peer("s3", 1).unwrap();
        y.set_peer("s1", 3, "s3", 1).unwrap();
        y.set_peer("s3", 1, "s1", 3).unwrap();
        let private = y.switch_dir("s3");
        y.filesystem()
            .chmod(private.as_str(), yanc_vfs::Mode(0o700), y.creds())
            .unwrap();
        let app = y.with_creds(yanc_vfs::Credentials::user(1000, 1000));
        assert!(app.list_ports("s3").is_err());
        let mut view = TopologyView::new(app).unwrap();
        // s3 has no ports the app can see, and the link into it still
        // counts as a link; every other answer is what root would get.
        assert!(view.has_peer("s1", 3).unwrap());
        assert!(!view.has_peer("s0", 3).unwrap());
        assert_eq!(view.shortest_path("s3", "s0").unwrap(), None);
        assert_eq!(
            view.plan(("s0", 3), ("s2", 3)).unwrap(),
            Some(vec![
                ("s0".to_string(), 3, 2),
                ("s1".to_string(), 1, 2),
                ("s2".to_string(), 1, 3)
            ])
        );
    }

    #[test]
    fn bfs_picks_shorter_branch() {
        let y = yfs_with_line(3); // s0-s1-s2
                                  // Add a direct s0<->s2 link on port 3.
        y.set_peer("s0", 3, "s2", 3).unwrap();
        y.set_peer("s2", 3, "s0", 3).unwrap();
        let path = shortest_path(&y, "s0", "s2").unwrap().unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0], ("s0".to_string(), 3));
    }
}
