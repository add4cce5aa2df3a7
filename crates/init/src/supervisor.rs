//! The process table: spawn, schedule, signal, restart, reclaim.
//!
//! `yanc-init` is the controller's pid 1. Every daemon, application and
//! driver runs as a *supervised yanc process*: it has a pid, its own
//! credentials (a non-zero uid that the vfs charges resources to), optional
//! namespace confinement, cgroup-style limits, and a restart policy. The
//! supervisor drives all of it from a deterministic tick loop — no threads,
//! no wall clock — so a kill/restart/reconverge experiment replays with
//! byte-identical syscall counts.
//!
//! Control surface:
//! * `/net/.init/ctl` — append `kill [-SIG] <pid>` lines (the `kill`
//!   coreutil does); the supervisor consumes them each tick.
//! * `/net/.proc/apps/<pid>/{status,cmdline,limits,restarts,signals}` —
//!   read-only process introspection, Linux-`/proc` style.
//! * `/net/.proc/init/{ticks,driver_reattaches,faults}` — the supervisor
//!   about itself.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use yanc::{YancApp, YancError, YancFs, YancResult};
use yanc_dfs::Cluster;
use yanc_driver::Runtime;
use yanc_vfs::{Credentials, Errno, Filesystem, Namespace, Overlay, Uid, VPath};

use crate::fault::{Fault, FaultInjector};
use crate::process::{Pid, ProcessSpec, ProcessState, Signal};

/// What a factory closure gets when (re)building a process instance.
pub struct ProcessCtx {
    /// The process id.
    pub pid: Pid,
    /// The uid all of this process's vfs activity is charged to.
    pub uid: u32,
    /// The tree, accessed as this process's credentials.
    pub yfs: YancFs,
    /// Namespace-confined view, when the spec asked for one.
    pub namespace: Option<Namespace>,
}

/// Builds (and, after a kill, *re*builds) a process's application instance.
///
/// Restart means a fresh instance: in-memory state is lost exactly like a
/// real process's heap, and must be re-derived from the filesystem — which
/// is the paper's whole point about state externalization.
pub type AppFactory = Box<dyn Fn(&ProcessCtx) -> YancResult<Box<dyn YancApp>>>;

/// Per-process state shared with `.proc` render closures.
struct ProcShared {
    state: AtomicU64,
    restarts: AtomicU64,
    throttles: AtomicU64,
    /// Scheduler slices actually given to the app (`run_once` calls).
    sched_runs: AtomicU64,
    /// Slices skipped because the app reported not-[`YancApp::ready`]:
    /// ticks an idle, poll-blocked process did *not* consume.
    sched_skips: AtomicU64,
    /// Ticks between the last abnormal death and the respawn completing.
    last_restart_latency: AtomicU64,
    signal_log: Mutex<Vec<String>>,
    last_error: Mutex<String>,
}

impl ProcShared {
    fn set_state(&self, s: ProcessState) {
        self.state.store(s.code(), Ordering::Relaxed);
    }

    fn state(&self) -> ProcessState {
        ProcessState::from_code(self.state.load(Ordering::Relaxed))
    }
}

/// One row of the process table.
struct ProcEntry {
    spec: ProcessSpec,
    pid: Pid,
    uid: u32,
    factory: AppFactory,
    app: Option<Box<dyn YancApp>>,
    shared: Arc<ProcShared>,
    backoff_until: Option<u64>,
    died_at: u64,
}

/// The supervisor: yanc's pid 1.
pub struct Supervisor {
    yfs: YancFs,
    procs: BTreeMap<u32, ProcEntry>,
    next_pid: u32,
    next_uid: u32,
    ticks: Arc<AtomicU64>,
    ctl_offset: usize,
    /// Deterministic fault schedule (public: tests script it directly).
    pub faults: FaultInjector,
    driver_reattaches: Arc<AtomicU64>,
    /// Cumulative open handles force-closed by uid reclaims (spawn failures,
    /// SIGTERM/SIGKILL, abnormal death). Exposed as
    /// `.proc/init/reclaimed_handles`.
    reclaimed_handles: Arc<AtomicU64>,
    /// Set when a [`Fault::CrashController`] fires; the driving harness
    /// polls [`Supervisor::take_controller_crash`] and tears the world down
    /// at that exact tick, restoring from the vfs journal.
    controller_crashed: bool,
}

impl Supervisor {
    /// Build a supervisor over `yfs` (which should be the root-credential
    /// façade). Creates `<root>/.init/ctl` and registers the supervisor's
    /// own `.proc/init` files (best-effort: introspection may be off).
    pub fn new(yfs: YancFs) -> YancResult<Supervisor> {
        let fs = yfs.filesystem().clone();
        let root = Credentials::root();
        let dir = yfs.root().join(".init");
        fs.mkdir_all(dir.as_str(), yanc_vfs::Mode::DIR_DEFAULT, &root)?;
        let ctl = dir.join("ctl");
        if !fs.exists(ctl.as_str(), &root) {
            fs.write_file(ctl.as_str(), b"", &root)?;
        }
        let sup = Supervisor {
            yfs,
            procs: BTreeMap::new(),
            next_pid: 1,
            next_uid: 1000,
            ticks: Arc::new(AtomicU64::new(0)),
            ctl_offset: 0,
            faults: FaultInjector::new(),
            driver_reattaches: Arc::new(AtomicU64::new(0)),
            reclaimed_handles: Arc::new(AtomicU64::new(0)),
            controller_crashed: false,
        };
        let base = sup.yfs.proc_dir().join("init");
        let t = sup.ticks.clone();
        let _ = fs.proc_file(base.join("ticks").as_str(), move || {
            format!("{}\n", t.load(Ordering::Relaxed))
        });
        let r = sup.driver_reattaches.clone();
        let _ = fs.proc_file(base.join("driver_reattaches").as_str(), move || {
            format!("{}\n", r.load(Ordering::Relaxed))
        });
        let rh = sup.reclaimed_handles.clone();
        let _ = fs.proc_file(base.join("reclaimed_handles").as_str(), move || {
            format!("{}\n", rh.load(Ordering::Relaxed))
        });
        let log = sup.faults.log();
        let _ = fs.proc_file(base.join("faults").as_str(), move || {
            let log = log.lock();
            if log.is_empty() {
                String::new()
            } else {
                format!("{}\n", log.join("\n"))
            }
        });
        Ok(sup)
    }

    /// The current supervisor tick (virtual time).
    pub fn now(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Path of the control file (`<root>/.init/ctl`).
    pub fn ctl_path(&self) -> VPath {
        self.yfs.root().join(".init").join("ctl")
    }

    /// Drivers re-attached so far by [`Supervisor::supervise_drivers`].
    pub fn driver_reattaches(&self) -> u64 {
        self.driver_reattaches.load(Ordering::Relaxed)
    }

    /// Cumulative open handles force-closed by uid reclaims since boot.
    pub fn reclaimed_handles(&self) -> u64 {
        self.reclaimed_handles.load(Ordering::Relaxed)
    }

    fn make_ctx(yfs: &YancFs, pid: Pid, uid: u32, spec: &ProcessSpec) -> ProcessCtx {
        let mut creds = Credentials::user(uid, uid);
        if spec.dac_override {
            creds = creds.with_dac_override();
        }
        let namespace = if spec.binds.is_empty() && spec.overlays.is_empty() {
            None
        } else {
            let mut ns = Namespace::new(yfs.filesystem().clone()).readonly();
            for (at, target) in &spec.binds {
                ns = ns.bind(at, target);
            }
            for (at, lowers, upper) in &spec.overlays {
                let lower_refs: Vec<&str> = lowers.iter().map(|l| l.as_str()).collect();
                let ov = Overlay::new(yfs.filesystem().clone(), &lower_refs, upper);
                // The upper layer belongs to the process's own uid: writes
                // stage there under plain POSIX permissions.
                let _ = ov.ensure_upper(&Credentials::user(uid, uid));
                ns = ns.overlay(at, &ov);
            }
            // Introspection: the per-process mount table appears as a
            // section of /net/.proc/vfs/mounts once proc is mounted.
            ns.register_mounts(&spec.name);
            Some(ns)
        };
        ProcessCtx {
            pid,
            uid,
            yfs: yfs.with_creds(creds),
            namespace,
        }
    }

    /// Spawn a process: allocate pid + uid, install its resource limits,
    /// build the instance via `factory`, and register its `.proc` files.
    pub fn spawn<F>(&mut self, spec: ProcessSpec, factory: F) -> YancResult<Pid>
    where
        F: Fn(&ProcessCtx) -> YancResult<Box<dyn YancApp>> + 'static,
    {
        let pid = Pid(self.next_pid);
        let uid = self.next_uid;
        let fs = self.yfs.filesystem().clone();
        fs.set_app_limits(Uid(uid), spec.limits);
        let ctx = Self::make_ctx(&self.yfs, pid, uid, &spec);
        let app = match factory(&ctx) {
            Ok(app) => app,
            Err(e) => {
                // Nothing to supervise; leave no residue behind.
                let rep = fs.reclaim(Uid(uid));
                self.reclaimed_handles
                    .fetch_add(rep.handles_closed as u64, Ordering::Relaxed);
                fs.clear_app_limits(Uid(uid));
                return Err(e);
            }
        };
        self.next_pid += 1;
        self.next_uid += 1;
        let entry = ProcEntry {
            spec,
            pid,
            uid,
            factory: Box::new(factory),
            app: Some(app),
            shared: Arc::new(ProcShared {
                state: AtomicU64::new(ProcessState::Starting.code()),
                restarts: AtomicU64::new(0),
                throttles: AtomicU64::new(0),
                sched_runs: AtomicU64::new(0),
                sched_skips: AtomicU64::new(0),
                last_restart_latency: AtomicU64::new(0),
                signal_log: Mutex::new(Vec::new()),
                last_error: Mutex::new(String::new()),
            }),
            backoff_until: None,
            died_at: 0,
        };
        self.register_proc(&entry);
        self.procs.insert(pid.0, entry);
        Ok(pid)
    }

    /// Register `/net/.proc/apps/<pid>/*` (best-effort; introspection may
    /// not be mounted, in which case the table still works, just silently).
    fn register_proc(&self, entry: &ProcEntry) {
        let fs = self.yfs.filesystem();
        let base = self
            .yfs
            .proc_dir()
            .join("apps")
            .join(&entry.pid.0.to_string());
        let sh = entry.shared.clone();
        let name = entry.spec.name.clone();
        let (pid, uid) = (entry.pid.0, entry.uid);
        let _ = fs.proc_file(base.join("status").as_str(), move || {
            format!(
                "name:\t{name}\npid:\t{pid}\nuid:\t{uid}\nstate:\t{}\n\
                 restarts:\t{}\nthrottles:\t{}\nlast_error:\t{}\n",
                sh.state().name(),
                sh.restarts.load(Ordering::Relaxed),
                sh.throttles.load(Ordering::Relaxed),
                sh.last_error.lock()
            )
        });
        let cmd = entry.spec.cmdline.clone();
        let _ = fs.proc_file(base.join("cmdline").as_str(), move || format!("{cmd}\n"));
        let limits = entry.spec.limits;
        let rctl = fs.rctl().clone();
        let _ = fs.proc_file(base.join("limits").as_str(), move || {
            let show = |v: Option<u64>| v.map_or("unlimited".to_string(), |n| n.to_string());
            let usage = rctl.usage(uid);
            format!(
                "syscall_tokens:\t{}\nmax_open_handles:\t{}\nmax_watches:\t{}\n\
                 notify_queue_max:\t{}\nmax_flows:\t{}\ntokens_left:\t{}\n\
                 open_handles:\t{}\nflows:\t{}\nthrottled:\t{}\n",
                show(limits.syscall_tokens),
                show(limits.max_open_handles),
                show(limits.max_watches),
                show(limits.notify_queue_max),
                show(limits.max_flows),
                usage.as_ref().map_or(0, |u| u.tokens_left),
                usage.as_ref().map_or(0, |u| u.open_handles),
                usage.as_ref().map_or(0, |u| u.flows),
                usage.as_ref().map_or(0, |u| u.throttled),
            )
        });
        let sh = entry.shared.clone();
        let _ = fs.proc_file(base.join("restarts").as_str(), move || {
            format!("{}\n", sh.restarts.load(Ordering::Relaxed))
        });
        let sh = entry.shared.clone();
        let _ = fs.proc_file(base.join("signals").as_str(), move || {
            let log = sh.signal_log.lock();
            if log.is_empty() {
                String::new()
            } else {
                format!("{}\n", log.join("\n"))
            }
        });
        let sh = entry.shared.clone();
        let _ = fs.proc_file(base.join("sched").as_str(), move || {
            format!(
                "runs:\t{}\nskips:\t{}\n",
                sh.sched_runs.load(Ordering::Relaxed),
                sh.sched_skips.load(Ordering::Relaxed),
            )
        });
        // `/proc/<pid>/fd`-style descriptor table, built live from the
        // kernel's handle table (weak: the proc closure must not keep the
        // filesystem alive).
        let weak = Arc::downgrade(fs);
        let _ = fs.proc_file(base.join("fds").as_str(), move || {
            let Some(fs) = weak.upgrade() else {
                return String::new();
            };
            fs.fd_table(Uid(uid))
                .iter()
                .map(|i| {
                    let mode = match (i.read, i.write) {
                        (true, true) => "rw",
                        (true, false) => "r-",
                        (false, true) => "-w",
                        (false, false) => "--",
                    };
                    format!("{}\t{}\t{}\toffset={}\n", i.fd, mode, i.path, i.offset)
                })
                .collect()
        });
    }

    /// Abnormal death: drop the instance (no shutdown hook — the process
    /// never got a commit point), reclaim every kernel resource charged to
    /// its uid, and schedule a restart per policy or mark it failed.
    fn mark_dead(
        fs: &Arc<Filesystem>,
        reclaimed: &AtomicU64,
        entry: &mut ProcEntry,
        now: u64,
        why: &str,
    ) {
        entry.app = None;
        let rep = fs.reclaim(Uid(entry.uid));
        reclaimed.fetch_add(rep.handles_closed as u64, Ordering::Relaxed);
        *entry.shared.last_error.lock() = why.to_string();
        entry.died_at = now;
        let restarts = entry.shared.restarts.load(Ordering::Relaxed);
        let p = entry.spec.policy;
        if p.restart && restarts < u64::from(p.max_restarts) {
            entry.shared.restarts.fetch_add(1, Ordering::Relaxed);
            entry.backoff_until = Some(now + p.backoff_for(restarts as u32));
            entry.shared.set_state(ProcessState::Backoff);
        } else {
            entry.backoff_until = None;
            entry.shared.set_state(ProcessState::Failed);
        }
    }

    /// Deliver a POSIX signal. Returns whether it was delivered (the pid
    /// exists and was in a state that could take it).
    pub fn signal(&mut self, pid: Pid, sig: Signal) -> bool {
        let now = self.now();
        let fs = self.yfs.filesystem().clone();
        let rh = self.reclaimed_handles.clone();
        let Some(entry) = self.procs.get_mut(&pid.0) else {
            return false;
        };
        entry
            .shared
            .signal_log
            .lock()
            .push(format!("tick {now}: SIG{}", sig.name()));
        match sig {
            Signal::Hup => match entry.app.as_mut() {
                Some(app) => {
                    if let Err(e) = app.reload() {
                        Self::mark_dead(&fs, &rh, entry, now, &format!("reload failed: {e}"));
                    }
                    true
                }
                None => false,
            },
            Signal::Term => {
                if let Some(mut app) = entry.app.take() {
                    app.shutdown();
                }
                let rep = fs.reclaim(Uid(entry.uid));
                rh.fetch_add(rep.handles_closed as u64, Ordering::Relaxed);
                entry.backoff_until = None;
                entry.shared.set_state(ProcessState::Stopped);
                true
            }
            Signal::Kill => {
                if entry.app.is_some() {
                    Self::mark_dead(&fs, &rh, entry, now, "killed (SIGKILL)");
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Consume new `kill [-SIG] <pid>` lines appended to the ctl file.
    fn process_ctl(&mut self) -> bool {
        let path = self.ctl_path();
        let root = Credentials::root();
        let Ok(text) = self.yfs.filesystem().read_to_string(path.as_str(), &root) else {
            return false;
        };
        if text.len() <= self.ctl_offset {
            return false;
        }
        let fresh = text[self.ctl_offset..].to_string();
        self.ctl_offset = text.len();
        let mut worked = false;
        for line in fresh.lines() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.first() != Some(&"kill") {
                continue;
            }
            let (sig, pid_tok) = match toks.len() {
                2 => (Signal::Term, toks[1]),
                3 => match Signal::parse(toks[1]) {
                    Some(s) => (s, toks[2]),
                    None => continue,
                },
                _ => continue,
            };
            if let Ok(n) = pid_tok.parse::<u32>() {
                worked |= self.signal(Pid(n), sig);
            }
        }
        worked
    }

    /// One scheduler pass: advance virtual time, refill every rate-limit
    /// bucket, consume ctl commands, complete due restarts, and give every
    /// live process one `run_once`. Returns whether any work happened.
    pub fn tick(&mut self) -> bool {
        let now = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        let fs = self.yfs.filesystem().clone();
        let rh = self.reclaimed_handles.clone();
        fs.rctl().refill_all();
        // Journal maintenance rides the scheduler tick, the way a kernel
        // flush daemon rides the timer interrupt: a snapshot is taken once
        // the record cadence is due, never mid-mutation (no vfs locks are
        // held here). Deliberately not counted as scheduler work.
        fs.journal_maybe_snapshot();
        let mut worked = self.process_ctl();
        let pids: Vec<u32> = self.procs.keys().copied().collect();
        // Complete restarts whose backoff expired.
        for p in &pids {
            let yfs = self.yfs.clone();
            let entry = self.procs.get_mut(p).unwrap();
            let due = matches!(entry.backoff_until, Some(t) if t <= now);
            if !due {
                continue;
            }
            entry.backoff_until = None;
            let ctx = Self::make_ctx(&yfs, entry.pid, entry.uid, &entry.spec);
            match (entry.factory)(&ctx) {
                Ok(app) => {
                    entry.app = Some(app);
                    entry.shared.set_state(ProcessState::Running);
                    entry
                        .shared
                        .last_restart_latency
                        .store(now.saturating_sub(entry.died_at), Ordering::Relaxed);
                    worked = true;
                }
                Err(e) => {
                    Self::mark_dead(&fs, &rh, entry, now, &format!("respawn failed: {e}"));
                    worked = true;
                }
            }
        }
        // Drive live processes — but only the ready ones. A process whose
        // poll set reports no pending events is skipped entirely (it
        // consumes zero scheduler ticks), exactly as a process blocked in
        // `epoll_wait` consumes zero CPU. Starting processes always get
        // their first slice so they can prime their subscriptions.
        for p in &pids {
            let entry = self.procs.get_mut(p).unwrap();
            let Some(app) = entry.app.as_mut() else {
                continue;
            };
            if entry.shared.state() != ProcessState::Starting && !app.ready() {
                entry.shared.sched_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            entry.shared.sched_runs.fetch_add(1, Ordering::Relaxed);
            match app.run_once() {
                Ok(did) => {
                    if entry.shared.state() == ProcessState::Starting {
                        entry.shared.set_state(ProcessState::Running);
                    }
                    worked |= did;
                }
                Err(e) if is_eagain(&e) => {
                    // Out of syscall tokens: preempted, not crashed. The
                    // bucket refills next tick; everyone else keeps running.
                    if entry.shared.state() == ProcessState::Starting {
                        entry.shared.set_state(ProcessState::Running);
                    }
                    entry.shared.throttles.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    Self::mark_dead(&fs, &rh, entry, now, &e.to_string());
                    worked = true;
                }
            }
        }
        worked
    }

    /// Fire due control-plane faults into the table and the driver runtime.
    pub fn apply_faults(&mut self, rt: &mut Runtime) -> usize {
        let due = self.faults.due_net(self.now());
        let n = due.len();
        for f in due {
            match f {
                Fault::KillApp { pid } => {
                    self.signal(pid, Signal::Kill);
                }
                Fault::SignalApp { pid, sig } => {
                    self.signal(pid, sig);
                }
                Fault::DropControl { dpid, frames } => {
                    rt.inject_channel_fault(dpid, frames, false);
                }
                Fault::ReorderControl { dpid } => {
                    rt.inject_channel_fault(dpid, 0, true);
                }
                Fault::CrashController => {
                    self.controller_crashed = true;
                }
                _ => {}
            }
        }
        n
    }

    /// Whether a [`Fault::CrashController`] fired since the last call
    /// (cleared on read). The harness reacting to this drops the whole
    /// runtime — processes, drivers, fd tables — keeping only the journal
    /// bytes, which is exactly what a real crash leaves behind.
    pub fn take_controller_crash(&mut self) -> bool {
        std::mem::take(&mut self.controller_crashed)
    }

    /// Fire due dfs faults into a cluster. `DfsDown` automatically
    /// schedules the matching `DfsUp` `for_ticks` later.
    pub fn apply_cluster_faults(&mut self, cluster: &mut Cluster) -> usize {
        let now = self.now();
        let due = self.faults.due_cluster(now);
        let n = due.len();
        for f in due {
            match f {
                Fault::DfsDown { node, for_ticks } => {
                    cluster.set_down(node);
                    self.faults.at(now + for_ticks, Fault::DfsUp { node });
                }
                Fault::DfsUp { node } => cluster.set_up(node),
                _ => {}
            }
        }
        n
    }

    /// Re-attach drivers that reached the terminal `failed` state (e.g.
    /// after a version-negotiation fault), counting each re-attachment.
    pub fn supervise_drivers(&mut self, rt: &mut Runtime) -> usize {
        let n = rt.reattach_failed();
        self.driver_reattaches
            .fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// One full supervised step: faults → driver supervision → network
    /// pump → scheduler tick. Returns whether anything happened.
    pub fn step(&mut self, rt: &mut Runtime) -> bool {
        let fired = self.apply_faults(rt);
        let reattached = self.supervise_drivers(rt);
        let pumped = rt.pump().unwrap();
        let ticked = self.tick();
        fired > 0 || reattached > 0 || pumped > 1 || ticked
    }

    /// Step until quiescent: no work, no pending backoff, no unfired
    /// control-plane faults. Panics after 10 000 steps (livelock guard).
    pub fn settle(&mut self, rt: &mut Runtime) {
        for _ in 0..10_000 {
            let worked = self.step(rt);
            let backing_off = self.procs.values().any(|e| e.backoff_until.is_some());
            if !worked && !backing_off && self.faults.pending_net() == 0 {
                return;
            }
        }
        panic!("supervisor failed to settle within 10000 steps");
    }

    // ------------------------------------------------------------------
    // Table introspection (programmatic; `.proc` carries the same data)
    // ------------------------------------------------------------------

    /// `(pid, name, state)` rows, pid-ordered.
    pub fn processes(&self) -> Vec<(Pid, String, ProcessState)> {
        self.procs
            .values()
            .map(|e| (e.pid, e.spec.name.clone(), e.shared.state()))
            .collect()
    }

    /// Current state of `pid`.
    pub fn state(&self, pid: Pid) -> Option<ProcessState> {
        self.procs.get(&pid.0).map(|e| e.shared.state())
    }

    /// Restarts scheduled for `pid` so far.
    pub fn restarts(&self, pid: Pid) -> u64 {
        self.procs
            .get(&pid.0)
            .map_or(0, |e| e.shared.restarts.load(Ordering::Relaxed))
    }

    /// Times `pid` was throttled (`EAGAIN`) instead of crashed.
    pub fn throttles(&self, pid: Pid) -> u64 {
        self.procs
            .get(&pid.0)
            .map_or(0, |e| e.shared.throttles.load(Ordering::Relaxed))
    }

    /// Scheduler slices `pid` actually ran (`.proc/apps/<pid>/sched`).
    pub fn sched_runs(&self, pid: Pid) -> u64 {
        self.procs
            .get(&pid.0)
            .map_or(0, |e| e.shared.sched_runs.load(Ordering::Relaxed))
    }

    /// Ticks `pid` was skipped because its poll set was idle.
    pub fn sched_skips(&self, pid: Pid) -> u64 {
        self.procs
            .get(&pid.0)
            .map_or(0, |e| e.shared.sched_skips.load(Ordering::Relaxed))
    }

    /// Ticks the last death→respawn took for `pid`.
    pub fn last_restart_latency(&self, pid: Pid) -> u64 {
        self.procs
            .get(&pid.0)
            .map_or(0, |e| e.shared.last_restart_latency.load(Ordering::Relaxed))
    }

    /// The uid `pid`'s vfs activity is charged to.
    pub fn uid_of(&self, pid: Pid) -> Option<u32> {
        self.procs.get(&pid.0).map(|e| e.uid)
    }

    /// Find a process by name.
    pub fn pid_of(&self, name: &str) -> Option<Pid> {
        self.procs
            .values()
            .find(|e| e.spec.name == name)
            .map(|e| e.pid)
    }
}

/// Both throttle shapes preempt rather than crash: a vfs token-bucket
/// `EAGAIN` (out of syscall tokens) and a partially-enqueued libyanc
/// [`yanc::RingFull`] `EAGAIN` (the driver will drain; retry next slice).
fn is_eagain(e: &YancError) -> bool {
    e.errno() == Some(Errno::EAGAIN)
}
