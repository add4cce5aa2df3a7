//! The runtime: the simulated network, the yanc file system and one
//! driver per switch, pumped together to quiescence.
//!
//! Examples, tests and benchmarks all use this: build a topology, attach
//! drivers, then alternate `pump()` (deliver frames, run drivers) until
//! quiescent. Applications remain plain file-system programs — they never
//! see the runtime.
//!
//! There is one scheduler (paper §4.1, §5): each sweep freezes the ready
//! set with a free poll-set scan and runs every ready driver exactly
//! once. With one worker ([`Runtime::new`]) that is a plain loop in
//! driver-index order on the calling thread; above one
//! ([`Runtime::with_workers`]) the same ready set is drained by the
//! work-stealing pool in [`crate::par`]. Worker count changes *which
//! thread* runs a driver, never what runs or what it writes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use yanc::{YancError, YancFs, YancResult};
use yanc_dataplane::Network;
use yanc_openflow::Version;
use yanc_vfs::{Errno, Filesystem, PollSet};

use crate::driver::{DriverReadiness, DriverState, OpenFlowDriver};
use crate::par::{FanIn, Pool, WorkerStats};

/// Atomic mirror of [`yanc_dataplane::NetStats`], refreshed at the end of
/// every [`Runtime::pump`] so proc render closures (which cannot borrow the
/// mutably-owned `Network`) read consistent figures.
#[derive(Debug, Default)]
pub(crate) struct SharedNetStats {
    frames_delivered: AtomicU64,
    control_deliveries: AtomicU64,
    events: AtomicU64,
}

impl SharedNetStats {
    /// Refresh the mirror from the network's live counters.
    pub(crate) fn sync_from(&self, s: &yanc_dataplane::NetStats) {
        self.frames_delivered
            .store(s.frames_delivered, Ordering::Relaxed);
        self.control_deliveries
            .store(s.control_deliveries, Ordering::Relaxed);
        self.events.store(s.events, Ordering::Relaxed);
    }

    /// Expose the mirror under `<proc>/dataplane/{events,frames_delivered,
    /// control_deliveries}`.
    pub(crate) fn register_proc(self: &Arc<Self>, yfs: &YancFs) -> yanc::YancResult<()> {
        let base = yfs.proc_dir().join("dataplane");
        let fs = yfs.filesystem();
        type Getter = fn(&SharedNetStats) -> &AtomicU64;
        let counters: [(&str, Getter); 3] = [
            ("events", |s| &s.events),
            ("frames_delivered", |s| &s.frames_delivered),
            ("control_deliveries", |s| &s.control_deliveries),
        ];
        for (file, get) in counters {
            let st = self.clone();
            fs.proc_file(base.join(file).as_str(), move || {
                format!("{}\n", get(&st).load(Ordering::Relaxed))
            })?;
        }
        Ok(())
    }
}

/// Scheduler counters for the event-driven pump, rendered at
/// `/net/.proc/driver/sched` (same discipline as the supervisor's
/// skip-non-ready app scheduling): how often drivers were dispatched vs
/// skipped, and how many whole pumps found nothing to do at all.
#[derive(Debug, Default)]
pub struct SchedStats {
    /// Ready drivers dispatched (`run_once` called).
    pub runs: AtomicU64,
    /// Drivers skipped because their readiness probe reported no work.
    pub skips: AtomicU64,
    /// `pump()` calls that found a fully idle system: zero iterations,
    /// zero driver sweeps — the idle-fabric-costs-nothing guarantee.
    pub idle_pumps: AtomicU64,
    /// Poll-set rebuilds after the driver set changed.
    pub rebuilds: AtomicU64,
}

impl SchedStats {
    pub(crate) fn render(&self) -> String {
        format!(
            "runs {}\nskips {}\nidle_pumps {}\nrebuilds {}\n",
            self.runs.load(Ordering::Relaxed),
            self.skips.load(Ordering::Relaxed),
            self.idle_pumps.load(Ordering::Relaxed),
            self.rebuilds.load(Ordering::Relaxed),
        )
    }
}

/// Poll-set bookkeeping: one readiness probe per driver registered in a
/// vfs poll set, plus the token→driver-index map a scan needs to
/// attribute readiness back to drivers.
///
/// The identity check runs **every sweep**, not just at pump entry: a
/// driver attached mid-pump (a reattach fired from a worker thread, a
/// staged test injection) shifts or extends the driver vector, and a
/// poll set built at pump entry would keep reporting through the *old*
/// token map — at best attributing readiness to the wrong driver, at
/// worst dropping the new driver's edge entirely so the pump quiesces
/// with work still queued. Re-checking per sweep is free when nothing
/// changed (length compare + pairwise `Arc::ptr_eq`).
pub(crate) struct PollBook {
    poll: Option<PollSet>,
    probes: Vec<Arc<DriverReadiness>>,
    index: HashMap<u64, usize>,
}

impl PollBook {
    pub(crate) fn new() -> Self {
        PollBook {
            poll: None,
            probes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Rebuild iff the driver set changed since the last call (detected by
    /// probe identity, not tracked by mutation — callers mutate driver
    /// vectors directly). Counted in [`SchedStats::rebuilds`].
    pub(crate) fn refresh(
        &mut self,
        yfs: &YancFs,
        probes: Vec<Arc<DriverReadiness>>,
        dpids: &[u64],
        sched: &SchedStats,
    ) {
        let unchanged = self.poll.is_some()
            && self.probes.len() == probes.len()
            && probes
                .iter()
                .zip(&self.probes)
                .all(|(a, b)| Arc::ptr_eq(a, b));
        if unchanged {
            return;
        }
        let poll = yfs.filesystem().poll_create(yfs.creds());
        self.index.clear();
        for (i, (p, dpid)) in probes.iter().zip(dpids).enumerate() {
            let p = p.clone();
            let token = poll.add_probe(&format!("driver/dpid{dpid:x}"), move || p.pending());
            self.index.insert(token.0, i);
        }
        self.probes = probes;
        self.poll = Some(poll);
        sched.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// One free readiness scan: `ready[i]` is whether driver `i` has
    /// queued work. The scan rotates the poll set's fairness cursor but
    /// the result is index-addressed, so dispatch order stays the
    /// driver-vector order — deterministic across runs.
    pub(crate) fn scan(&self, n_drivers: usize) -> Vec<bool> {
        let mut ready = vec![false; n_drivers];
        if let Some(p) = &self.poll {
            for ev in p.poll_ready(n_drivers) {
                if let Some(&i) = self.index.get(&ev.token.0) {
                    if i < n_drivers {
                        ready[i] = true;
                    }
                }
            }
        }
        ready
    }
}

/// A switch-plus-driver attach deferred until a given pump sweep — the
/// deterministic stand-in for "a worker thread registered a readiness
/// edge while the scan was in flight" (the poll-set rebuild regression).
struct StagedAttach {
    at_sweep: u32,
    dpid: u64,
    n_ports: u16,
    n_tables: u8,
    switch_versions: Vec<Version>,
    driver_version: Version,
}

/// Network + file system + drivers, pumped together.
pub struct Runtime {
    /// The simulated network.
    pub net: Network,
    /// Per-switch drivers, each behind its run lock.
    pub drivers: Vec<Arc<Mutex<OpenFlowDriver>>>,
    /// The yanc file tree.
    pub yfs: YancFs,
    shared_stats: Arc<SharedNetStats>,
    sched: Arc<SchedStats>,
    /// Readiness sources for the current driver set: one probe per driver
    /// in a vfs poll set, scanned free per sweep (the kernel walking its
    /// run queue). Rebuilt whenever the driver set changes.
    book: PollBook,
    /// `None` at one worker: dispatch is inline, no thread exists.
    pool: Option<Pool>,
    /// One ledger per worker; the length is the worker count.
    ledgers: Vec<Arc<WorkerStats>>,
    fanin: Option<Arc<FanIn>>,
    next_fanin_id: u64,
    straggler: Option<usize>,
    staged: Vec<StagedAttach>,
}

impl Runtime {
    /// A fresh runtime with an empty network and an initialized `/net`:
    /// one worker, no threads, drivers dispatched in index order.
    pub fn new() -> Self {
        Self::with_workers(1)
    }

    /// A one-worker runtime sharing an existing filesystem (for namespace
    /// / DFS experiments where several runtimes see one tree).
    pub fn with_fs(fs: Arc<Filesystem>) -> Self {
        Self::with_fs_workers(fs, 1)
    }

    /// A fresh runtime with a fixed pool of `workers` threads (clamped to
    /// ≥ 1). `with_workers(1)` is [`Runtime::new`]: no pool, no threads.
    pub fn with_workers(workers: usize) -> Self {
        Self::with_fs_workers(Arc::new(Filesystem::new()), workers)
    }

    /// A runtime over an existing filesystem with a fixed worker count.
    pub fn with_fs_workers(fs: Arc<Filesystem>, workers: usize) -> Self {
        let workers = workers.max(1);
        let yfs = YancFs::init(fs, "/net").expect("init /net");
        Runtime {
            net: Network::new(),
            drivers: Vec::new(),
            yfs,
            shared_stats: Arc::new(SharedNetStats::default()),
            sched: Arc::new(SchedStats::default()),
            book: PollBook::new(),
            pool: (workers > 1).then(|| Pool::spawn(workers)),
            ledgers: (0..workers)
                .map(|_| Arc::new(WorkerStats::default()))
                .collect(),
            fanin: None,
            next_fanin_id: 0,
            straggler: None,
            staged: Vec::new(),
        }
    }

    /// The number of workers draining each sweep's ready set.
    pub fn workers(&self) -> usize {
        self.ledgers.len()
    }

    /// Per-worker scheduling ledgers, index = worker.
    pub fn worker_stats(&self) -> &[Arc<WorkerStats>] {
        &self.ledgers
    }

    /// The event-driven scheduler's counters (also rendered at
    /// `/net/.proc/driver/sched` once introspection is on).
    pub fn sched_stats(&self) -> Arc<SchedStats> {
        self.sched.clone()
    }

    /// Switch on the stats fan-in combiner: every current and future
    /// driver buffers counter aggregates instead of flushing per reply,
    /// and the coordinator lands one batched flush at every pump
    /// quiescence. Returns the combiner for meter inspection.
    pub fn enable_fanin(&mut self) -> Arc<FanIn> {
        let fanin = Arc::new(FanIn::new(self.workers()));
        self.fanin = Some(fanin.clone());
        for d in &self.drivers {
            d.lock().attach_fanin(fanin.handle(self.next_fanin_id));
            self.next_fanin_id += 1;
        }
        // If `.proc` is already mounted this lands the meter file now;
        // otherwise `enable_introspection` registers it later.
        let _ = self.register_fanin_proc();
        fanin
    }

    /// Force worker `w` to hold off each sweep until thieves drain its
    /// queue (all ready drivers are routed to it first) — deterministic
    /// straggler injection for the steal path. `None` restores normal
    /// round-robin partitioning. Inert at `workers() == 1`.
    pub fn inject_straggler(&mut self, worker: Option<usize>) {
        self.straggler = worker;
    }

    /// Stage a switch+driver attach to happen at the start of pump sweep
    /// `at_sweep` (0-based within the next `pump` call) — the rebuild-
    /// during-pump regression hook: the new driver's readiness edge must
    /// be scanned on the very sweep it appears.
    pub fn stage_attach_at_sweep(
        &mut self,
        at_sweep: u32,
        dpid: u64,
        n_ports: u16,
        n_tables: u8,
        switch_versions: Vec<Version>,
        driver_version: Version,
    ) {
        self.staged.push(StagedAttach {
            at_sweep,
            dpid,
            n_ports,
            n_tables,
            switch_versions,
            driver_version,
        });
    }

    /// (Re-)attach `dpid`'s control channel to a fresh driver speaking
    /// `version`; the switch handshakes with it on the next pump.
    fn attach_driver(&mut self, dpid: u64, version: Version) {
        let handle = self.net.attach_controller(dpid);
        let mut d = OpenFlowDriver::new(version, self.yfs.clone(), handle);
        if let Some(f) = &self.fanin {
            d.attach_fanin(f.handle(self.next_fanin_id));
            self.next_fanin_id += 1;
        }
        self.drivers.push(Arc::new(Mutex::new(d)));
    }

    /// Add a switch to the network and attach a driver speaking
    /// `driver_version`. Returns the yanc switch name (`sw<dpid:hex>`).
    pub fn add_switch_with_driver(
        &mut self,
        dpid: u64,
        n_ports: u16,
        n_tables: u8,
        switch_versions: Vec<Version>,
        driver_version: Version,
    ) -> String {
        let name = format!("sw{dpid:x}");
        self.net
            .add_switch(dpid, &name, n_ports, n_tables, switch_versions);
        self.attach_driver(dpid, driver_version);
        name
    }

    /// Re-attach a switch to a fresh driver (protocol upgrade, §4.1): the
    /// old driver releases its watch and descriptors and is dropped, the
    /// switch re-handshakes.
    pub fn swap_driver(&mut self, dpid: u64, driver_version: Version) {
        let name = format!("sw{dpid:x}");
        self.detach_where(|d| d.switch_name.as_deref() == Some(name.as_str()));
        self.net.detach_controller(dpid);
        self.attach_driver(dpid, driver_version);
    }

    /// Remove the drivers `doomed` picks, each releasing what it holds in
    /// `/net` first: a pool worker may still hold a reference for a moment.
    fn detach_where(&mut self, doomed: impl Fn(&OpenFlowDriver) -> bool) {
        self.drivers.retain(|d| {
            let mut d = d.lock();
            let gone = doomed(&d);
            if gone {
                d.release();
            }
            !gone
        });
    }

    /// Drivers currently in [`DriverState::Failed`], as
    /// `(dpid, version offered by the switch)` pairs.
    pub fn failed_drivers(&self) -> Vec<(u64, Option<u8>)> {
        self.drivers
            .iter()
            .map(|d| d.lock())
            .filter(|d| d.state() == DriverState::Failed)
            .map(|d| (d.dpid(), d.offered_version()))
            .collect()
    }

    /// Supervised recovery from failed version negotiation: detach every
    /// [`DriverState::Failed`] driver and attach a replacement speaking the
    /// best version we implement that the switch offered (the switch then
    /// re-handshakes and the new driver resyncs fs flows, counted in its
    /// `resyncs`). Returns the number of re-attachments; a switch whose
    /// offer we cannot satisfy stays failed.
    pub fn reattach_failed(&mut self) -> usize {
        let mut reattached = 0;
        for (dpid, offered) in self.failed_drivers() {
            let offered = match offered {
                Some(v) => v,
                None => continue,
            };
            let version = if offered >= Version::V1_3.wire() {
                Version::V1_3
            } else if offered >= Version::V1_0.wire() {
                Version::V1_0
            } else {
                continue;
            };
            self.detach_where(|d| d.dpid() == dpid && d.state() == DriverState::Failed);
            self.net.detach_controller(dpid);
            self.attach_driver(dpid, version);
            reattached += 1;
        }
        reattached
    }

    /// Schedule a deterministic control-channel fault on `dpid`'s driver
    /// (frames dropped / pair reordered on its next `run_once`). Returns
    /// whether a driver for that dpid exists.
    pub fn inject_channel_fault(&mut self, dpid: u64, drop_frames: u32, reorder: bool) -> bool {
        let mut hit = false;
        for d in &self.drivers {
            let mut d = d.lock();
            if d.dpid() == dpid {
                d.inject_channel_fault(drop_frames, reorder);
                hit = true;
            }
        }
        hit
    }

    /// Mount `/net/.proc` (via [`YancFs::enable_introspection`]) and expose
    /// dataplane aggregates, the sched ledger, per-worker ledgers, (if
    /// enabled) the fan-in meters and per-driver state beneath it. Drivers
    /// that attach later register themselves as part of their handshake.
    pub fn enable_introspection(&mut self) -> YancResult<()> {
        self.yfs.enable_introspection()?;
        self.shared_stats.register_proc(&self.yfs)?;
        let fs = self.yfs.filesystem().clone();
        let driver_dir = self.yfs.proc_dir().join("driver");
        let sched = self.sched.clone();
        fs.proc_file(driver_dir.join("sched").as_str(), move || sched.render())?;
        for (i, ledger) in self.ledgers.iter().enumerate() {
            let base = driver_dir.join("workers").join(&format!("{i}"));
            type Getter = fn(&WorkerStats) -> &AtomicU64;
            let files: [(&str, Getter); 3] = [
                ("runs", |w| &w.runs),
                ("steals", |w| &w.steals),
                ("idle", |w| &w.idle),
            ];
            for (file, get) in files {
                let l = ledger.clone();
                fs.proc_file(base.join(file).as_str(), move || {
                    format!("{}\n", get(&l).load(Ordering::Relaxed))
                })?;
            }
        }
        let _ = self.register_fanin_proc();
        self.shared_stats.sync_from(&self.net.stats);
        for d in &self.drivers {
            d.lock().register_proc();
        }
        Ok(())
    }

    fn register_fanin_proc(&self) -> YancResult<()> {
        let f = match &self.fanin {
            Some(f) => f.clone(),
            None => return Ok(()),
        };
        self.yfs.filesystem().proc_file(
            self.yfs.proc_dir().join("driver").join("fanin").as_str(),
            move || f.render(),
        )?;
        Ok(())
    }

    /// Rebuild the readiness poll set iff the driver set changed since the
    /// last sweep (tests mutate `drivers` directly, so this is detected by
    /// identity, not tracked by mutation). One probe per driver; the set
    /// registers in the vfs pollset registry like any app's.
    fn refresh_poll(&mut self) {
        let mut probes = Vec::with_capacity(self.drivers.len());
        let mut dpids = Vec::with_capacity(self.drivers.len());
        for d in &self.drivers {
            let d = d.lock();
            probes.push(d.readiness());
            dpids.push(d.dpid());
        }
        self.book.refresh(&self.yfs, probes, &dpids, &self.sched);
    }

    fn apply_staged(&mut self, sweep: u32) {
        if self.staged.is_empty() {
            return;
        }
        let (due, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.staged)
            .into_iter()
            .partition(|s| s.at_sweep <= sweep);
        self.staged = keep;
        for s in due {
            self.add_switch_with_driver(
                s.dpid,
                s.n_ports,
                s.n_tables,
                s.switch_versions,
                s.driver_version,
            );
        }
    }

    /// Run one sweep's frozen ready set: inline in index order at one
    /// worker, else partitioned across the pool.
    fn dispatch(&self, ready_idx: &[usize]) {
        match &self.pool {
            None => {
                for &i in ready_idx {
                    self.drivers[i].lock().run_once();
                    self.ledgers[0].runs.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(pool) => pool.run_sweep(&self.drivers, ready_idx, &self.ledgers, self.straggler),
        }
    }

    /// Land the fan-in buffer: one `write_counters_batch` against
    /// `/net/switches` covering every buffered switch (3 charged
    /// syscalls, independent of worker count and reply count). Returns
    /// whether anything was flushed — the flush itself raises watch
    /// events the drivers must then drain.
    fn flush_fanin(&mut self) -> bool {
        let Some(batch) = self.fanin.as_ref().and_then(|f| f.take_batch()) else {
            return false;
        };
        let _ = self
            .yfs
            .write_counters_batch(&self.yfs.switches_dir(), &batch);
        true
    }

    /// Pump network and drivers until nothing moves, event-driven: each
    /// sweep dispatches only drivers whose readiness probes report queued
    /// work (free scans — the kernel consulting its run queue), and a
    /// fully idle system costs **zero** iterations. Scheduling decisions
    /// are counted in [`SchedStats`] / `/net/.proc/driver/sched`. With
    /// fan-in enabled, buffered stats land at quiescence and the pump
    /// continues until the watch events that raises are drained too.
    ///
    /// The poll-set identity check runs per sweep, not per pump: drivers
    /// attached while the pump is in flight (supervised reattach, a test's
    /// staged injection) get their readiness edges scanned on the very
    /// next sweep instead of being silently dropped until the next pump.
    ///
    /// Returns the number of sweeps, or a `Busy` (`EAGAIN`) error if the
    /// system fails to quiesce within a budget that scales with the
    /// driver count — mutually-feeding drivers are reported, not panicked
    /// over.
    pub fn pump(&mut self) -> YancResult<u32> {
        let mut iterations: u32 = 0;
        'quiesce: loop {
            loop {
                self.apply_staged(iterations);
                self.refresh_poll();
                let budget = 10_000 + 64 * self.drivers.len() as u64;
                let net_events = if self.net.pending_events() > 0 {
                    self.net.pump()
                } else {
                    0
                };
                // Scan *after* the network moved: frames it just delivered
                // make drivers ready in this sweep, not the next.
                let ready = self.book.scan(self.drivers.len());
                let ready_idx: Vec<usize> = ready
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &r)| r.then_some(i))
                    .collect();
                if net_events == 0 && ready_idx.is_empty() {
                    break;
                }
                self.sched
                    .runs
                    .fetch_add(ready_idx.len() as u64, Ordering::Relaxed);
                self.sched.skips.fetch_add(
                    (self.drivers.len() - ready_idx.len()) as u64,
                    Ordering::Relaxed,
                );
                self.dispatch(&ready_idx);
                iterations += 1;
                if u64::from(iterations) >= budget {
                    self.shared_stats.sync_from(&self.net.stats);
                    return Err(YancError::busy(
                        Errno::EAGAIN,
                        "runtime failed to quiesce within its sweep budget",
                    ));
                }
            }
            if !self.flush_fanin() {
                break 'quiesce;
            }
        }
        if iterations == 0 {
            self.sched.idle_pumps.fetch_add(1, Ordering::Relaxed);
        }
        self.shared_stats.sync_from(&self.net.stats);
        Ok(iterations)
    }

    /// Advance virtual time (expiring flow timeouts) and pump.
    pub fn advance(&mut self, seconds: u64) -> YancResult<u32> {
        self.net.advance(seconds);
        self.pump()
    }

    /// Ask every driver to refresh stats counters, then pump.
    pub fn poll_stats(&mut self) -> YancResult<u32> {
        for d in &self.drivers {
            d.lock().poll_stats();
        }
        self.pump()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use yanc::{FlowSpec, PacketInRecord};
    use yanc_openflow::{port_no, Action, FlowMatch};

    fn ip(s: &str) -> std::net::Ipv4Addr {
        s.parse().unwrap()
    }

    /// Every test runs once per entry: the inline one-worker loop and
    /// the pool.
    const WORKERS: [usize; 2] = [1, 2];

    fn two_host_rt(version: Version, workers: usize) -> (Runtime, String, u64, u64) {
        let mut rt = Runtime::with_workers(workers);
        let name = rt.add_switch_with_driver(0xa, 4, 2, vec![version], version);
        let h1 = rt.net.add_host("h1", ip("10.0.0.1"));
        let h2 = rt.net.add_host("h2", ip("10.0.0.2"));
        rt.net.attach_host(h1, (0xa, 1), None);
        rt.net.attach_host(h2, (0xa, 2), None);
        rt.pump().unwrap();
        (rt, name, h1, h2)
    }

    #[test]
    fn handshake_materializes_switch_in_fs() {
        for workers in WORKERS {
            for v in [Version::V1_0, Version::V1_3] {
                let (rt, name, _, _) = two_host_rt(v, workers);
                assert_eq!(name, "swa");
                assert!(rt.drivers[0].lock().ready());
                assert_eq!(rt.yfs.list_switches().unwrap(), vec!["swa"]);
                assert_eq!(rt.yfs.switch_dpid("swa").unwrap(), 0xa);
                // Ports materialized in both protocol flavours.
                assert_eq!(rt.yfs.list_ports("swa").unwrap(), vec![1, 2, 3, 4]);
                // Protocol recorded.
                let proto = rt
                    .yfs
                    .filesystem()
                    .read_to_string("/net/switches/swa/protocol", rt.yfs.creds())
                    .unwrap();
                assert_eq!(proto, v.to_string());
            }
        }
    }

    #[test]
    fn flow_written_to_fs_reaches_switch_and_forwards() {
        for workers in WORKERS {
            let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0, workers);
            let spec = FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(port_no::FLOOD)],
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "flood", &spec).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
            rt.net.host_ping(h1, ip("10.0.0.2"), 1);
            rt.pump().unwrap();
            assert_eq!(rt.net.hosts[&h1].ping_replies, vec![(ip("10.0.0.2"), 1)]);
        }
    }

    #[test]
    fn uncommitted_flow_not_installed_until_version_bump() {
        for workers in WORKERS {
            let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_3, workers);
            // Write field files WITHOUT committing (mkdir creates version=0).
            let fs = rt.yfs.filesystem().clone();
            let creds = rt.yfs.creds().clone();
            fs.mkdir(
                "/net/switches/swa/flows/partial",
                yanc_vfs::Mode::DIR_DEFAULT,
                &creds,
            )
            .unwrap();
            fs.write_file(
                "/net/switches/swa/flows/partial/match.dl_type",
                b"0x0800",
                &creds,
            )
            .unwrap();
            fs.write_file(
                "/net/switches/swa/flows/partial/action.out",
                b"flood",
                &creds,
            )
            .unwrap();
            rt.pump().unwrap();
            assert_eq!(
                rt.net.switches[&0xa].flow_count(),
                0,
                "no commit, no install"
            );
            // Commit: bump version.
            fs.write_file("/net/switches/swa/flows/partial/version", b"1", &creds)
                .unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
            let _ = name;
        }
    }

    #[test]
    fn flow_delete_removes_from_switch() {
        for workers in WORKERS {
            let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0, workers);
            let spec = FlowSpec {
                m: FlowMatch {
                    tp_dst: Some(22),
                    ..Default::default()
                },
                actions: vec![Action::out(2)],
                priority: 77,
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "ssh", &spec).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
            rt.yfs.delete_flow(&name, "ssh").unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
        }
    }

    #[test]
    fn packet_in_lands_in_event_buffers() {
        for workers in WORKERS {
            let (mut rt, _name, h1, _h2) = two_host_rt(Version::V1_3, workers);
            let sub = rt.yfs.subscribe_events("router").unwrap();
            rt.net.host_ping(h1, ip("10.0.0.2"), 1); // table miss
            rt.pump().unwrap();
            let pkts: Vec<PacketInRecord> = sub.drain_all();
            assert!(!pkts.is_empty());
            assert_eq!(pkts[0].switch, "swa");
            assert_eq!(pkts[0].in_port, 1);
            assert_eq!(pkts[0].reason, "no_match");
        }
    }

    #[test]
    fn port_down_file_write_reaches_switch() {
        for workers in WORKERS {
            let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0, workers);
            rt.yfs.set_port_down(&name, 2, true).unwrap();
            rt.pump().unwrap();
            assert!(rt.net.switches[&0xa].ports[&2].config_down);
            rt.yfs.set_port_down(&name, 2, false).unwrap();
            rt.pump().unwrap();
            assert!(!rt.net.switches[&0xa].ports[&2].config_down);
        }
    }

    #[test]
    fn goto_table_flow_errors_on_v10_driver_but_works_on_v13() {
        for workers in WORKERS {
            // The capability difference the paper's driver section promises.
            let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_0, workers);
            let spec = FlowSpec {
                m: FlowMatch::any(),
                goto_table: Some(1),
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "multi", &spec).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
            let err = rt
                .yfs
                .filesystem()
                .read_to_string("/net/switches/swa/flows/multi/error", rt.yfs.creds())
                .unwrap();
            assert!(err.contains("goto_table"), "error file explains: {err}");

            let (mut rt13, name13, _h1, _h2) = two_host_rt(Version::V1_3, workers);
            rt13.yfs.write_flow(&name13, "multi", &spec).unwrap();
            rt13.pump().unwrap();
            assert_eq!(rt13.net.switches[&0xa].flow_count(), 1);
            assert!(!rt13
                .yfs
                .filesystem()
                .exists("/net/switches/swa/flows/multi/error", rt13.yfs.creds()));
        }
    }

    #[test]
    fn flow_timeout_removes_fs_directory() {
        for workers in WORKERS {
            let (mut rt, name, _h1, _h2) = two_host_rt(Version::V1_3, workers);
            let spec = FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(2)],
                hard_timeout: 5,
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "temp", &spec).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 1);
            assert!(rt
                .yfs
                .list_flows(&name)
                .unwrap()
                .contains(&"temp".to_string()));
            rt.advance(10).unwrap();
            assert_eq!(rt.net.switches[&0xa].flow_count(), 0);
            assert!(
                rt.yfs.list_flows(&name).unwrap().is_empty(),
                "FlowRemoved cleaned the fs"
            );
        }
    }

    #[test]
    fn stats_polling_fills_counters() {
        for workers in WORKERS {
            let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0, workers);
            let spec = FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(port_no::FLOOD)],
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "flood", &spec).unwrap();
            rt.pump().unwrap();
            rt.net.host_ping(h1, ip("10.0.0.2"), 1);
            rt.pump().unwrap();
            rt.poll_stats().unwrap();
            let port_dir = rt.yfs.port_dir(&name, 1);
            assert!(rt.yfs.read_counter(&port_dir, "rx_packets") > 0);
            let flow_dir = rt.yfs.flow_dir(&name, "flood");
            assert!(rt.yfs.read_counter(&flow_dir, "packets") > 0);
        }
    }

    /// A `packet_out` line sending a UDP frame to `h2` out of port 2.
    fn udp_packet_out_line(rt: &Runtime, h2: u64) -> String {
        let frame = yanc_packet::build_udp(
            yanc_packet::MacAddr::from_seed(99),
            rt.net.hosts[&h2].mac,
            ip("10.0.0.9"),
            ip("10.0.0.2"),
            1234,
            5678,
            Bytes::from_static(b"hello"),
        );
        format!(
            "buffer=none in_port={} out=2 data={}\n",
            port_no::CONTROLLER,
            yanc::hex_encode(&frame)
        )
    }

    #[test]
    fn packet_out_file_interface() {
        for workers in WORKERS {
            let (mut rt, name, _h1, h2) = two_host_rt(Version::V1_0, workers);
            // Packet-out a crafted frame via the file interface.
            let line = udp_packet_out_line(&rt, h2);
            rt.yfs
                .filesystem()
                .append_file(
                    &format!("/net/switches/{name}/packet_out"),
                    line.as_bytes(),
                    rt.yfs.creds(),
                )
                .unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.hosts[&h2].udp_received.len(), 1);
            assert_eq!(rt.net.hosts[&h2].udp_received[0].dst_port, 5678);
        }
    }

    #[test]
    fn packet_out_rewritten_with_the_same_line_runs_it_again() {
        for workers in WORKERS {
            let (mut rt, name, _h1, h2) = two_host_rt(Version::V1_0, workers);
            let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
            let path = rt.yfs.packet_out_path(&name);
            let line = udp_packet_out_line(&rt, h2);
            fs.append_file(path.as_str(), line.as_bytes(), &creds)
                .unwrap();
            rt.pump().unwrap();
            // `echo … > packet_out`: truncated, then refilled to exactly
            // the length the driver had already consumed.
            fs.write_file(path.as_str(), line.as_bytes(), &creds)
                .unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.hosts[&h2].udp_received.len(), 2);
        }
    }

    #[test]
    fn packet_out_empty_append_runs_nothing_again() {
        for workers in WORKERS {
            let (mut rt, name, _h1, h2) = two_host_rt(Version::V1_0, workers);
            let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
            let path = rt.yfs.packet_out_path(&name);
            let line = udp_packet_out_line(&rt, h2);
            fs.append_file(path.as_str(), line.as_bytes(), &creds)
                .unwrap();
            rt.pump().unwrap();
            // Same length as consumed, but no byte was written: not a
            // rewrite, so nothing is replayed.
            fs.append_file(path.as_str(), b"", &creds).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.hosts[&h2].udp_received.len(), 1);
        }
    }

    #[test]
    fn packet_out_rewrite_splitting_a_character_is_skipped_not_a_panic() {
        for workers in WORKERS {
            let (mut rt, name, _h1, h2) = two_host_rt(Version::V1_0, workers);
            let (fs, creds) = (rt.yfs.filesystem().clone(), rt.yfs.creds().clone());
            let path = rt.yfs.packet_out_path(&name);
            fs.append_file(path.as_str(), b"xyz\n", &creds).unwrap();
            rt.pump().unwrap();
            // The consumed offset (4) now falls inside the second `é`: the
            // bytes past it are no UTF-8 line, and no command.
            fs.write_file(path.as_str(), "aéé\n".as_bytes(), &creds)
                .unwrap();
            rt.pump().unwrap();
            // The driver is still serving the file.
            let line = udp_packet_out_line(&rt, h2);
            fs.append_file(path.as_str(), line.as_bytes(), &creds)
                .unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.hosts[&h2].udp_received.len(), 1);
        }
    }

    #[test]
    fn live_protocol_upgrade() {
        for workers in WORKERS {
            // E6: a switch is upgraded 1.0 → 1.3 under the same fs tree; flows
            // written to the fs keep flowing after the swap.
            let mut rt = Runtime::with_workers(workers);
            let name = rt.add_switch_with_driver(0xb, 2, 2, vec![Version::V1_0], Version::V1_0);
            rt.pump().unwrap();
            assert!(rt.drivers[0].lock().ready());
            let spec = FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(2)],
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "f", &spec).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xb].flow_count(), 1);

            // Firmware upgrade: switch now speaks both, re-attach a 1.3 driver.
            rt.net
                .switches
                .get_mut(&0xb)
                .unwrap()
                .set_supported(vec![Version::V1_0, Version::V1_3]);
            rt.swap_driver(0xb, Version::V1_3);
            rt.pump().unwrap();
            {
                let d = rt.drivers.last().unwrap().lock();
                assert!(d.ready());
                assert_eq!(d.version, Version::V1_3);
            }
            assert_eq!(rt.net.switches[&0xb].negotiated(), Some(Version::V1_3));
            // The new driver re-synced the existing fs flows into the switch.
            assert_eq!(rt.net.switches[&0xb].flow_count(), 1);
            // And multi-table flows now work.
            let multi = FlowSpec {
                m: FlowMatch::any(),
                goto_table: Some(1),
                priority: 9,
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "multi", &multi).unwrap();
            rt.pump().unwrap();
            assert_eq!(rt.net.switches[&0xb].flow_count(), 2);
            // The fs shows the new protocol.
            let proto = rt
                .yfs
                .filesystem()
                .read_to_string("/net/switches/swb/protocol", rt.yfs.creds())
                .unwrap();
            assert_eq!(proto, "OpenFlow 1.3");
        }
    }

    #[test]
    fn introspection_exposes_driver_and_dataplane_state() {
        for workers in WORKERS {
            let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0, workers);
            rt.enable_introspection().unwrap();
            let spec = FlowSpec {
                m: FlowMatch::any(),
                actions: vec![Action::out(port_no::FLOOD)],
                ..Default::default()
            };
            rt.yfs.write_flow(&name, "flood", &spec).unwrap();
            rt.pump().unwrap();
            rt.net.host_ping(h1, ip("10.0.0.2"), 1);
            rt.pump().unwrap();
            let read = |p: &str| {
                rt.yfs
                    .filesystem()
                    .read_to_string(p, rt.yfs.creds())
                    .unwrap()
                    .trim()
                    .to_string()
            };
            assert_eq!(read("/net/.proc/drivers/swa/protocol"), "OpenFlow 1.0");
            assert_eq!(read("/net/.proc/drivers/swa/ready"), "1");
            assert_eq!(
                read("/net/.proc/drivers/swa/flow_mods")
                    .parse::<u64>()
                    .unwrap(),
                rt.drivers[0]
                    .lock()
                    .stats()
                    .flow_mods
                    .load(std::sync::atomic::Ordering::Relaxed)
            );
            assert!(
                read("/net/.proc/drivers/swa/msgs_tx")
                    .parse::<u64>()
                    .unwrap()
                    > 0
            );
            assert_eq!(
                rt.yfs
                    .filesystem()
                    .stat("/net/.proc/drivers/swa/rtt", rt.yfs.creds())
                    .unwrap_err()
                    .errno,
                yanc_vfs::Errno::ENOENT,
                "no modelled round-trip row"
            );
            assert!(
                read("/net/.proc/dataplane/events").parse::<u64>().unwrap() > 0,
                "pump() mirrors NetStats into the proc tree"
            );
            assert_eq!(
                read("/net/.proc/dataplane/frames_delivered")
                    .parse::<u64>()
                    .unwrap(),
                rt.net.stats.frames_delivered
            );
        }
    }

    #[test]
    fn idle_pump_costs_zero_iterations() {
        for workers in WORKERS {
            let (mut rt, _name, _h1, _h2) = two_host_rt(Version::V1_0, workers);
            rt.pump().unwrap(); // quiesce fully
            let sched = rt.sched_stats();
            let idle_before = sched.idle_pumps.load(Ordering::Relaxed);
            let runs_before = sched.runs.load(Ordering::Relaxed);
            let sweeps = rt.pump().unwrap();
            assert_eq!(sweeps, 0, "idle system must cost zero sweeps");
            assert_eq!(sched.idle_pumps.load(Ordering::Relaxed), idle_before + 1);
            assert_eq!(
                sched.runs.load(Ordering::Relaxed),
                runs_before,
                "no driver dispatched on an idle pump"
            );
        }
    }

    #[test]
    fn sched_counters_render_in_proc() {
        for workers in WORKERS {
            let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_0, workers);
            rt.enable_introspection().unwrap();
            rt.yfs
                .write_flow(
                    &name,
                    "flood",
                    &FlowSpec {
                        m: FlowMatch::any(),
                        actions: vec![Action::out(port_no::FLOOD)],
                        ..Default::default()
                    },
                )
                .unwrap();
            rt.pump().unwrap();
            rt.net.host_ping(h1, ip("10.0.0.2"), 1);
            rt.pump().unwrap();
            rt.pump().unwrap(); // one guaranteed idle pump
            let text = rt
                .yfs
                .filesystem()
                .read_to_string("/net/.proc/driver/sched", rt.yfs.creds())
                .unwrap();
            let field = |k: &str| -> u64 {
                text.lines()
                    .find_map(|l| l.strip_prefix(k).map(|v| v.trim().parse().unwrap()))
                    .unwrap_or_else(|| panic!("{k} missing from {text}"))
            };
            assert!(field("runs ") > 0, "{text}");
            assert!(field("idle_pumps ") > 0, "{text}");
            assert!(field("rebuilds ") > 0, "{text}");
        }
    }

    #[test]
    fn segmented_stats_reassemble_and_land() {
        for workers in WORKERS {
            // Force every stats reply into 1-entry multipart segments: the
            // driver must reassemble the stream before landing counters.
            let (mut rt, name, h1, _h2) = two_host_rt(Version::V1_3, workers);
            rt.net.switches.get_mut(&0xa).unwrap().set_stats_page(1);
            rt.yfs
                .write_flow(
                    &name,
                    "flood",
                    &FlowSpec {
                        m: FlowMatch::any(),
                        actions: vec![Action::out(port_no::FLOOD)],
                        ..Default::default()
                    },
                )
                .unwrap();
            rt.pump().unwrap();
            rt.net.host_ping(h1, ip("10.0.0.2"), 1);
            rt.pump().unwrap();
            rt.poll_stats().unwrap();
            // All four ports' stats arrived as four REPLY_MORE-chained parts
            // and still landed: per-port counters exist for every port.
            for p in 1..=4u16 {
                let dir = rt.yfs.port_dir(&name, p);
                assert!(
                    rt.yfs.filesystem().exists(
                        dir.join("counters").join("rx_packets").as_str(),
                        rt.yfs.creds()
                    ),
                    "port {p} counters missing"
                );
            }
            let port_dir = rt.yfs.port_dir(&name, 1);
            assert!(rt.yfs.read_counter(&port_dir, "rx_packets") > 0);
            let flow_dir = rt.yfs.flow_dir(&name, "flood");
            assert!(rt.yfs.read_counter(&flow_dir, "packets") > 0);
        }
    }

    #[test]
    fn wrong_version_driver_fails_cleanly() {
        for workers in WORKERS {
            let mut rt = Runtime::with_workers(workers);
            // Switch speaks only 1.0; driver insists on 1.3.
            rt.add_switch_with_driver(0xc, 2, 1, vec![Version::V1_0], Version::V1_3);
            rt.pump().unwrap();
            assert_eq!(
                rt.drivers[0].lock().state(),
                crate::driver::DriverState::Failed
            );
            assert!(rt.yfs.list_switches().unwrap().is_empty());
        }
    }
}
