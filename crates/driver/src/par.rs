//! # Worker pool and stats fan-in (paper §5: "the controller is an OS")
//!
//! A real OS scheduler runs its run queue on every core. Above one
//! worker, [`Runtime::pump`](crate::Runtime::pump) does the same for
//! drivers: each sweep's ready set (frozen by the coordinator's
//! [`PollSet`](yanc_vfs::PollSet) readiness scan) is partitioned
//! round-robin into per-worker run queues, and the fixed [`Pool`] of
//! worker threads in this module drains them with **work stealing** — an
//! idle worker pops from the *back* of a sibling's queue, so a straggling
//! worker never serializes the sweep. At one worker there is no pool and
//! no thread: the runtime dispatches inline in driver-index order, and
//! that schedule is the reference the pool is tested against.
//!
//! Three invariants make the parallel schedule safe and testable:
//!
//! 1. **Per-driver run lock.** Every driver lives in an
//!    `Arc<Mutex<OpenFlowDriver>>`; `run_once` runs under that lock, so
//!    a driver never runs on two workers at once even when stolen.
//! 2. **Sweep barrier.** The ready set is fixed by the coordinator's
//!    scan before workers start and the coordinator waits for the pool
//!    to drain it; each ready driver runs exactly once per sweep, the
//!    same dispatch the one-worker loop makes. Drivers own disjoint
//!    per-switch fs subtrees, so per-op syscall totals and the `/net`
//!    digest are **bit-identical across worker counts**.
//! 3. **No wall clock.** Workers block on condvars and are released by
//!    state changes only. The flake audit holds this file to the same
//!    rule as the tests.
//!
//! The module also owns the **stats fan-in combiner** ([`FanIn`]): with
//! N switches polled, per-switch multipart replies no longer cost one
//! `write_counters_batch` each — drivers buffer aggregates worker-
//! locally and the coordinator lands *one* batched flush per pump
//! quiescence against the switches directory (3 charged syscalls
//! total), the aggregation policy Kreutz et al. name as the classic
//! controller bottleneck.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::driver::OpenFlowDriver;

thread_local! {
    /// Which fan-in shard this thread writes: workers set their index at
    /// spawn; the coordinator (and every other thread) uses shard 0.
    static WORKER_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Per-worker scheduling ledger, rendered at
/// `/net/.proc/driver/workers/<n>/{runs,steals,idle}`.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Drivers this worker dispatched (`run_once` under the run lock).
    pub runs: AtomicU64,
    /// Dispatches that came from stealing the back of a sibling's queue.
    pub steals: AtomicU64,
    /// Sweeps in which this worker found no work at all.
    pub idle: AtomicU64,
}

/// One buffered counter write inside the fan-in combiner. `(driver,
/// seq)` is a unique, per-pusher-monotonic key: sorting on it at flush
/// time makes the landed batch order independent of which worker's
/// shard an entry happened to buffer in.
struct FanEntry {
    driver: u64,
    seq: u64,
    path: String,
    value: u64,
}

/// Stats fan-in combiner (aggregation policy, ROADMAP item 3): drivers
/// [`push`](FanInHandle::push) counter aggregates into worker-local
/// shards instead of flushing one `write_counters_batch` per multipart
/// reply; the coordinator drains every shard into **one** batched flush
/// per pump quiescence against the switches directory. Meters render at
/// `/net/.proc/driver/fanin` (`pending`, `flushes`, `replies`).
pub struct FanIn {
    shards: Vec<Mutex<Vec<FanEntry>>>,
    /// Entries buffered and not yet landed.
    pending: AtomicU64,
    /// Batched flushes performed.
    flushes: AtomicU64,
    /// Stats replies absorbed (the denominator of syscalls-per-reply).
    replies: AtomicU64,
}

impl FanIn {
    pub(crate) fn new(shards: usize) -> Self {
        FanIn {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            pending: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            replies: AtomicU64::new(0),
        }
    }

    /// Entries buffered and not yet landed.
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Batched flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Stats replies absorbed so far.
    pub fn replies(&self) -> u64 {
        self.replies.load(Ordering::Relaxed)
    }

    /// A pusher's handle; `driver` must be unique per handle.
    pub(crate) fn handle(self: &Arc<Self>, driver: u64) -> FanInHandle {
        FanInHandle {
            driver,
            seq: 0,
            sink: self.clone(),
        }
    }

    /// Drain every shard into one batch (paths relative to the switches
    /// directory) and count a flush; `None` when nothing is buffered.
    /// Called by the coordinator between sweeps, when no worker pushes.
    pub(crate) fn take_batch(&self) -> Option<Vec<(String, u64)>> {
        if self.pending.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut entries: Vec<FanEntry> = Vec::new();
        for shard in &self.shards {
            entries.append(&mut shard.lock());
        }
        // Shard assignment depends on which worker buffered an entry;
        // the (driver, seq) sort erases that, so the landed batch is
        // identical across worker counts.
        entries.sort_by_key(|e| (e.driver, e.seq));
        self.pending.store(0, Ordering::Relaxed);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Some(entries.into_iter().map(|e| (e.path, e.value)).collect())
    }

    pub(crate) fn render(&self) -> String {
        format!(
            "pending {}\nflushes {}\nreplies {}\n",
            self.pending.load(Ordering::Relaxed),
            self.flushes.load(Ordering::Relaxed),
            self.replies.load(Ordering::Relaxed),
        )
    }
}

/// A driver's private handle into the [`FanIn`] combiner: tags every
/// buffered entry with the driver's id and a monotonic sequence number
/// so the flush order is deterministic, and prefixes paths with the
/// switch directory so one flush against `/net/switches` covers every
/// switch.
pub struct FanInHandle {
    driver: u64,
    seq: u64,
    sink: Arc<FanIn>,
}

impl FanInHandle {
    /// Buffer one reply's counter aggregates (`entries` are paths
    /// relative to switch `sw`'s directory) into this worker's shard.
    pub fn push(&mut self, sw: &str, entries: Vec<(String, u64)>) {
        if entries.is_empty() {
            return;
        }
        self.sink.replies.fetch_add(1, Ordering::Relaxed);
        self.sink
            .pending
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        let slot = WORKER_SLOT.with(Cell::get) % self.sink.shards.len();
        let mut shard = self.sink.shards[slot].lock();
        for (p, v) in entries {
            self.seq += 1;
            shard.push(FanEntry {
                driver: self.driver,
                seq: self.seq,
                path: format!("{sw}/{p}"),
                value: v,
            });
        }
    }
}

/// One sweep's worth of work published to the pool: the frozen ready
/// set partitioned into per-worker queues, plus the shared driver and
/// ledger vectors.
struct SweepWork {
    drivers: Vec<Arc<Mutex<OpenFlowDriver>>>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    ledgers: Vec<Arc<WorkerStats>>,
    straggler: Option<usize>,
}

#[derive(Default)]
struct PoolState {
    generation: u64,
    work: Option<Arc<SweepWork>>,
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: StdMutex<PoolState>,
    /// Coordinator → workers: a new sweep generation is published.
    work_cv: Condvar,
    /// Workers → coordinator: the last active worker finished.
    done_cv: Condvar,
    /// Serializes steal notifications with the straggler's queue check
    /// (prevents the classic lost-wakeup between "queue drained" and
    /// "straggler starts waiting").
    gate: StdMutex<()>,
    steal_cv: Condvar,
}

/// The fixed pool of pump worker threads; joined on drop.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

fn lock_state(shared: &PoolShared) -> std::sync::MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(me: usize, shared: Arc<PoolShared>) {
    WORKER_SLOT.with(|c| c.set(me));
    let mut last_gen = 0u64;
    loop {
        let work = {
            let mut st = lock_state(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > last_gen {
                    if let Some(w) = &st.work {
                        last_gen = st.generation;
                        break w.clone();
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Injected-straggler mode: the straggler holds off until thieves
        // have emptied its queue, forcing ≥1 recorded steal per ready
        // driver. The gate mutex orders "check emptiness" against the
        // thieves' post-steal notifications — no timed wait anywhere.
        if work.straggler == Some(me) {
            let mut g = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
            while !work.queues[me].lock().is_empty() {
                g = shared
                    .steal_cv
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let n = work.queues.len();
        let mut did_any = false;
        loop {
            let mut stolen = false;
            let mut idx = work.queues[me].lock().pop_front();
            if idx.is_none() {
                for off in 1..n {
                    let victim = (me + off) % n;
                    // Bound first so the victim's queue lock is released
                    // here: held across the gate below it deadlocks with a
                    // straggler that holds the gate and checks its queue.
                    let back = work.queues[victim].lock().pop_back();
                    if let Some(i) = back {
                        idx = Some(i);
                        stolen = true;
                        // A gated straggler may now have an empty queue.
                        let _g = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
                        shared.steal_cv.notify_all();
                        break;
                    }
                }
            }
            let i = match idx {
                Some(i) => i,
                None => break,
            };
            work.drivers[i].lock().run_once();
            work.ledgers[me].runs.fetch_add(1, Ordering::Relaxed);
            if stolen {
                work.ledgers[me].steals.fetch_add(1, Ordering::Relaxed);
            }
            did_any = true;
        }
        if !did_any {
            work.ledgers[me].idle.fetch_add(1, Ordering::Relaxed);
        }
        let mut st = lock_state(&shared);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Pool {
    /// Spawn `workers` pump threads, parked until the first sweep.
    pub(crate) fn spawn(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: StdMutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            gate: StdMutex::new(()),
            steal_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("yanc-pump-{i}"))
                    .spawn(move || worker_loop(i, shared))
                    .expect("spawn pump worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Run one sweep's frozen ready set (`ready_idx` indexes `drivers`)
    /// across the pool and return once every ready driver ran exactly
    /// once. Ready drivers are dealt round-robin into per-worker queues,
    /// or all to `straggler` (which then holds off until thieves drained
    /// it) when one is injected.
    pub(crate) fn run_sweep(
        &self,
        drivers: &[Arc<Mutex<OpenFlowDriver>>],
        ready_idx: &[usize],
        ledgers: &[Arc<WorkerStats>],
        straggler: Option<usize>,
    ) {
        let n = self.handles.len();
        let straggler = straggler.filter(|&s| s < n);
        let mut queues: Vec<Mutex<VecDeque<usize>>> =
            (0..n).map(|_| Mutex::new(VecDeque::new())).collect();
        match straggler {
            Some(s) => {
                let q = queues[s].get_mut();
                q.extend(ready_idx.iter().copied());
            }
            None => {
                for (j, &i) in ready_idx.iter().enumerate() {
                    queues[j % n].get_mut().push_back(i);
                }
            }
        }
        let work = Arc::new(SweepWork {
            drivers: drivers.to_vec(),
            queues,
            ledgers: ledgers.to_vec(),
            straggler,
        });
        let mut st = lock_state(&self.shared);
        st.work = Some(work);
        st.generation += 1;
        st.active = n;
        self.shared.work_cv.notify_all();
        while st.active > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.work = None;
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
