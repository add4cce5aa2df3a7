//! One freshly brought-up controller + fabric, and the seams the
//! workloads call it through.
//!
//! Everything here goes through the crates' public APIs. The runtime type
//! is named in exactly one place ([`new_runtime`]); if ROADMAP item 3
//! renames it, that function and the [`Rt`] alias are the only edits.

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use yanc::{FlowSpec, YancFs};
use yanc_apps::{RouterDaemon, TopologyDaemon};
use yanc_coreutils::{Output, Shell};
use yanc_dataplane::FatTree;
use yanc_driver::{DriverReadiness, DriverStats, ParRuntime};
use yanc_harness::{build_fabric, PumpApp};
use yanc_openflow::Version;
use yanc_vfs::{Fd, Filesystem};

use crate::trace::{self, Open, Tracer};

/// Fat-tree arity used by every workload: 80 switches, 128 hosts,
/// 640 ports, 256 inter-switch links.
pub const K: u16 = 8;
/// Hosts in a k-ary fat tree: k³/4.
pub const HOSTS: usize = (K as usize).pow(3) / 4;

/// The runtime under test.
pub type Rt = ParRuntime;

/// Feature toggles of a world. The gated end-to-end numbers always use
/// [`Variant::BASE`]; the others exist for the traced pass's ablation
/// and worker series.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Variant {
    pub dcache: bool,
    pub readpath: bool,
    pub workers: usize,
}

impl Variant {
    /// Identical to `ParRuntime::with_workers(1)`: default filesystem,
    /// inline dispatch, no pool threads.
    pub const BASE: Variant = Variant {
        dcache: true,
        readpath: true,
        workers: 1,
    };
}

fn new_runtime(v: Variant) -> Rt {
    let fs = Filesystem::builder()
        .dcache(v.dcache)
        .readpath(v.readpath)
        .build();
    ParRuntime::with_fs_workers(Arc::new(fs), v.workers)
}

/// Sums over every driver's public running totals.
#[derive(Clone, Copy, Default)]
pub struct DriverTotals {
    pub msgs_tx: u64,
    pub msgs_rx: u64,
    pub flow_mods: u64,
    pub packet_ins: u64,
}

pub struct World {
    pub rt: Rt,
    pub fs: Arc<Filesystem>,
    pub yfs: YancFs,
    /// `(host id, ip)`, in the fat tree's host order.
    pub hosts: Vec<(u64, Ipv4Addr)>,
    /// Switch names, index-aligned with `dpids` and `rt.drivers`.
    pub switches: Vec<String>,
    pub dpids: Vec<u64>,
    pub router: RouterDaemon,
    pub shell: Shell,
    /// `Some` in the traced pass only.
    pub tracer: Option<Tracer>,
    probes: Vec<Arc<DriverReadiness>>,
    driver_stats: Vec<Arc<DriverStats>>,
}

impl World {
    /// Cold bring-up: fabric build, one OpenFlow handshake and port
    /// materialisation per switch, LLDP discovery of every link (no
    /// ground-truth shortcut), then the router daemon. Discovery has
    /// finished its job afterwards, so the topology daemon exits and its
    /// event buffer is removed — otherwise every later packet-in would
    /// also be published to a subscriber that never drains.
    pub fn build(variant: Variant) -> World {
        let mut rt = new_runtime(variant);
        let topo = build_fabric(&mut rt, K, Version::V1_3);
        let fat = FatTree::new(K);
        let yfs = rt.yfs.clone();
        let fs = yfs.filesystem().clone();

        let mut topod = TopologyDaemon::new(yfs.clone()).expect("subscribe topod");
        topod.probe().expect("LLDP probe round");
        yanc_harness::settle(&mut rt, &mut [&mut topod as &mut dyn PumpApp]);
        let links = yfs.topology().expect("read discovered topology").len();
        assert_eq!(
            links,
            2 * fat.links().len(),
            "LLDP discovery must find every inter-switch link in both directions"
        );
        drop(topod);
        fs.rmdir(yfs.events_dir().join("topod").as_str(), yfs.creds())
            .expect("remove the exited topology daemon's event buffer");

        let router = RouterDaemon::new(yfs.clone()).expect("subscribe router");
        let shell = Shell::new(fs.clone());

        let dpids = topo.switches;
        let switches: Vec<String> = dpids.iter().map(|d| format!("sw{d:x}")).collect();
        let mut probes = Vec::with_capacity(rt.drivers.len());
        let mut driver_stats = Vec::with_capacity(rt.drivers.len());
        for (d, &dpid) in rt.drivers.iter().zip(&dpids) {
            let d = d.lock();
            assert_eq!(d.dpid(), dpid, "drivers are index-aligned with switches");
            assert!(d.ready(), "every handshake completed during bring-up");
            probes.push(d.readiness());
            driver_stats.push(d.stats());
        }
        World {
            rt,
            fs,
            yfs,
            hosts: topo.hosts,
            switches,
            dpids,
            router,
            shell,
            tracer: None,
            probes,
            driver_stats,
        }
    }

    /// Record spans from here on (called after priming, so the layer
    /// totals cover timed ops only).
    pub fn start_tracing(&mut self) {
        self.tracer = Some(Tracer::new(self.fs.clone()));
    }

    fn begin(&mut self, name: &'static str) -> Option<Open> {
        self.tracer.as_mut().map(|t| t.begin(name))
    }

    fn end(&mut self, open: Option<Open>) {
        if let (Some(t), Some(open)) = (self.tracer.as_mut(), open) {
            t.end(open);
        }
    }

    /// Pump network and drivers to quiescence; returns the sweep count.
    ///
    /// Untraced this is the runtime's own `pump`. Traced, it is the same
    /// loop rebuilt from the public pieces (`net.pump`, each driver's
    /// readiness probe and `run_once`) so that every call gets a span;
    /// the dispatch order — ready drivers in index order, once per sweep
    /// — is the one `with_workers(1)` uses, which is what lets the traced
    /// lap end in the same digest as an untraced one.
    pub fn pump(&mut self) -> u32 {
        if self.tracer.is_none() {
            return self
                .rt
                .pump()
                .expect("pump quiesces within its sweep budget");
        }
        let mut sweeps = 0u32;
        loop {
            let net_events = if self.rt.net.pending_events() > 0 {
                let open = self.begin(trace::DATAPLANE_PUMP);
                let n = self.rt.net.pump();
                self.end(open);
                n
            } else {
                0
            };
            let ready: Vec<usize> = (0..self.probes.len())
                .filter(|&i| self.probes[i].pending() > 0)
                .collect();
            if let Some(t) = self.tracer.as_mut() {
                t.counts.idle_scans += (self.probes.len() - ready.len()) as u64;
            }
            if net_events == 0 && ready.is_empty() {
                return sweeps;
            }
            for i in ready {
                let open = self.begin(trace::DRIVER_RUN_ONCE);
                self.rt.drivers[i].lock().run_once();
                self.end(open);
            }
            sweeps += 1;
            if let Some(t) = self.tracer.as_mut() {
                t.counts.sweeps += 1;
            }
            assert!(sweeps < 100_000, "traced pump failed to quiesce");
        }
    }

    /// `pump` + `RouterDaemon::run_once` until two consecutive idle
    /// rounds — the same rule as `yanc_harness::settle`.
    pub fn settle(&mut self) {
        let mut idle_rounds = 0;
        while idle_rounds < 2 {
            let sweeps = self.pump();
            let open = self.begin(trace::ROUTER_RUN_ONCE);
            let worked = self.router.run_once();
            self.end(open);
            if let (Some(t), false) = (self.tracer.as_mut(), worked) {
                t.counts.idle_wakeups += 1;
            }
            if sweeps <= 1 && !worked {
                idle_rounds += 1;
            } else {
                idle_rounds = 0;
            }
        }
    }

    /// Ask one driver to request port + flow statistics from its switch.
    pub fn poll_stats(&mut self, driver: usize) {
        let open = self.begin(trace::DRIVER_POLL_STATS);
        self.rt.drivers[driver].lock().poll_stats();
        self.end(open);
    }

    pub fn write_flow_at(&mut self, flows: Fd, name: &str, spec: &FlowSpec) -> bool {
        let open = self.begin(trace::CORE_WRITE_FLOW_AT);
        let ok = self.yfs.write_flow_at(flows, name, spec).is_ok();
        self.end(open);
        ok
    }

    pub fn delete_flow(&mut self, sw: &str, name: &str) -> bool {
        let open = self.begin(trace::CORE_DELETE_FLOW);
        let ok = self.yfs.delete_flow(sw, name).is_ok();
        self.end(open);
        ok
    }

    pub fn shell_run(&mut self, line: &str) -> Output {
        let open = self.begin(trace::COREUTILS_RUN);
        let out = self.shell.run(line);
        self.end(open);
        if let Some(t) = self.tracer.as_mut() {
            t.counts.shell_bytes_out += out.out.len() as u64;
        }
        out
    }

    /// Flow entries each sim switch holds, index-aligned with `switches`.
    pub fn flow_counts(&self) -> Vec<usize> {
        self.dpids
            .iter()
            .map(|d| self.rt.net.switches[d].flow_count())
            .collect()
    }

    /// Ping replies received so far, summed over hosts.
    pub fn ping_replies(&self) -> usize {
        self.hosts
            .iter()
            .map(|(h, _)| self.rt.net.hosts[h].ping_replies.len())
            .sum()
    }

    /// Drivers dispatched so far (by the runtime untraced, by our own
    /// sweep loop traced).
    pub fn driver_runs(&self) -> u64 {
        match &self.tracer {
            Some(t) => t.layer(trace::DRIVER_RUN_ONCE).calls,
            None => self.rt.sched_stats().runs.load(Ordering::Relaxed),
        }
    }

    pub fn driver_totals(&self) -> DriverTotals {
        let mut t = DriverTotals::default();
        for s in &self.driver_stats {
            t.msgs_tx += s.msgs_tx.load(Ordering::Relaxed);
            t.msgs_rx += s.msgs_rx.load(Ordering::Relaxed);
            t.flow_mods += s.flow_mods.load(Ordering::Relaxed);
            t.packet_ins += s.packet_ins.load(Ordering::Relaxed);
        }
        t
    }
}
