//! One lap: a fresh world, the workload's op sequence, every op timed
//! and checked. Also the guard that keeps the lap-min filter honest.

use std::time::Instant;

use crate::alloc;
use crate::trace;
use crate::workloads::Workload;
use crate::world::{Variant, World};

/// Public counters of every layer, read around each timed op of the
/// traced pass so the per-op checks (which also touch `/net`) stay out
/// of the per-layer numbers.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    pub net_events: u64,
    pub net_frames: u64,
    pub net_control: u64,
    pub msgs_tx: u64,
    pub msgs_rx: u64,
    pub flow_mods: u64,
    pub packet_ins: u64,
    pub dcache_hits: u64,
    pub dcache_misses: u64,
    pub readpath_hits: u64,
    pub readpath_fallbacks: u64,
    pub lock_acquisitions: u64,
    pub notify_delivered: u64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
    pub paths: u64,
    pub floods: u64,
}

impl Probe {
    fn take(w: &World) -> Probe {
        let net = w.rt.net.stats;
        let drv = w.driver_totals();
        let dc = w.fs.dcache_stats();
        let rp = w.fs.readpath_stats();
        let al = alloc::snapshot();
        Probe {
            net_events: net.events,
            net_frames: net.frames_delivered,
            net_control: net.control_deliveries,
            msgs_tx: drv.msgs_tx,
            msgs_rx: drv.msgs_rx,
            flow_mods: drv.flow_mods,
            packet_ins: drv.packet_ins,
            dcache_hits: dc.hits + dc.negative_hits,
            dcache_misses: dc.misses,
            readpath_hits: rp.optimistic_hits,
            readpath_fallbacks: rp.fallbacks,
            lock_acquisitions: rp.lock_acquisitions,
            notify_delivered: w.fs.notify().delivered_events(),
            alloc_count: al.count,
            alloc_bytes: al.bytes,
            paths: w.router.paths_installed as u64,
            floods: w.router.floods as u64,
        }
    }

    /// `self += after - before`, field by field.
    fn add_delta(&mut self, before: &Probe, after: &Probe) {
        macro_rules! acc {
            ($($f:ident),*) => { $( self.$f += after.$f - before.$f; )* };
        }
        acc!(
            net_events,
            net_frames,
            net_control,
            msgs_tx,
            msgs_rx,
            flow_mods,
            packet_ins,
            dcache_hits,
            dcache_misses,
            readpath_hits,
            readpath_fallbacks,
            lock_acquisitions,
            notify_delivered,
            alloc_count,
            alloc_bytes,
            paths,
            floods
        );
    }
}

pub struct Lap {
    /// Cold bring-up plus workload priming, before the first timed op
    /// (the fastest of this lap's bring-ups).
    pub setup_s: f64,
    /// Wall time of each op.
    pub op_ns: Vec<u64>,
    /// Charged vfs syscalls of each op (its check excluded).
    pub op_syscalls: Vec<u64>,
    /// `content_digest()` of `/net` after the last op.
    pub digest: u64,
    /// Flow entries per sim switch after the last op.
    pub flow_counts: Vec<usize>,
    /// Ops run plus lap-level checks made.
    pub attempted: u64,
    /// Ops and lap-level checks that failed.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Sums of per-op counter deltas (traced laps only, else zero).
    pub totals: Probe,
}

impl Lap {
    pub fn total_ns(&self) -> u64 {
        self.op_ns.iter().sum()
    }
}

/// Cold bring-up plus priming, timed. Bring-up happens once per lap, so
/// six laps would give it six samples where every op position gets six
/// too but the gated statistics pool hundreds of positions; a workload
/// whose bring-up is cheap therefore repeats it (see
/// `Kind::bringups_per_lap`) and the lap keeps the last world and the
/// fastest time. The earlier worlds are dropped outside the timed span.
fn bring_up(wl: &Workload, variant: Variant) -> (World, f64) {
    let mut best = f64::INFINITY;
    let mut left = wl.kind.bringups_per_lap();
    loop {
        let t = Instant::now();
        let mut w = World::build(variant);
        wl.prime(&mut w);
        best = best.min(t.elapsed().as_secs_f64());
        left -= 1;
        if left == 0 {
            return (w, best);
        }
    }
}

/// Build a world, prime it, run the first `n_ops` ops of the workload.
/// The world is handed back so the traced pass can keep measuring on the
/// tree the lap left behind.
pub fn run_lap(wl: &Workload, variant: Variant, traced: bool, n_ops: usize) -> (Lap, World) {
    let (mut w, setup_s) = bring_up(wl, variant);
    if traced {
        w.start_tracing();
    }

    let mut lap = Lap {
        setup_s,
        op_ns: Vec::with_capacity(n_ops),
        op_syscalls: Vec::with_capacity(n_ops),
        digest: 0,
        flow_counts: Vec::new(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        totals: Probe::default(),
    };
    for (i, op) in wl.ops.iter().take(n_ops).enumerate() {
        let before = wl.before(&w, op);
        let probe = traced.then(|| Probe::take(&w));
        let open = w.tracer.as_mut().map(|t| {
            t.set_op(i);
            t.begin(trace::OP)
        });
        let sys0 = w.fs.counters().total();

        let t = Instant::now();
        let outcome = wl.run(&mut w, i, op);
        let ns = t.elapsed().as_nanos() as u64;

        let sys = w.fs.counters().total() - sys0;
        if let (Some(t), Some(open)) = (w.tracer.as_mut(), open) {
            t.end(open);
        }
        if let Some(p) = probe {
            lap.totals.add_delta(&p, &Probe::take(&w));
        }
        lap.op_ns.push(ns);
        lap.op_syscalls.push(sys);
        lap.attempted += 1;
        if let Err(why) = wl.check(&w, i, op, &before, &outcome) {
            lap.fail(format!("op {i} ({op:?}): {why}"));
        }
    }
    lap.digest = w.fs.content_digest();
    lap.flow_counts = w.flow_counts();
    check_lap(wl, &w, &mut lap);
    (lap, w)
}

impl Lap {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Cross-layer checks after the last op, each counted like an op:
/// `/net` and the hardware must list the same number of flows on every
/// switch, and every ping sent must have been answered.
fn check_lap(wl: &Workload, w: &World, lap: &mut Lap) {
    lap.attempted += 2;
    let disagree: Vec<String> = w
        .switches
        .iter()
        .zip(&lap.flow_counts)
        .filter_map(|(sw, &hw)| {
            let files = w.yfs.list_flows(sw).map(|f| f.len()).unwrap_or(usize::MAX);
            (files != hw).then(|| format!("{sw}: {files} flow dirs, {hw} table entries"))
        })
        .collect();
    if !disagree.is_empty() {
        lap.fail(format!(
            "/net and the switches disagree on {} switches, first {}",
            disagree.len(),
            disagree[0]
        ));
    }
    let want = wl.expected_replies(lap.op_ns.len());
    let got = w.ping_replies();
    if got != want {
        lap.fail(format!("{got} ping replies collected, {want} pings sent"));
    }
}

/// The lap-min filter assumes op `i` does identical work in every lap.
/// Compare each lap against the first: the per-op charged-syscall series
/// (over their common prefix) and, for laps of equal length, the final
/// digest and per-switch flow counts. Returns the first divergence.
pub fn identity_mismatch(laps: &[&Lap]) -> Option<String> {
    let first = laps.first()?;
    for (l, lap) in laps.iter().enumerate().skip(1) {
        let diverged = first
            .op_syscalls
            .iter()
            .zip(&lap.op_syscalls)
            .position(|(a, b)| a != b);
        if let Some(i) = diverged {
            return Some(format!(
                "op {i} charged {} syscalls in lap 0 but {} in lap {l}",
                first.op_syscalls[i], lap.op_syscalls[i]
            ));
        }
        if first.op_syscalls.len() == lap.op_syscalls.len() {
            if first.digest != lap.digest {
                return Some(format!(
                    "lap 0 ended in digest {:016x}, lap {l} in {:016x}",
                    first.digest, lap.digest
                ));
            }
            if first.flow_counts != lap.flow_counts {
                return Some(format!("lap {l} left different per-switch flow counts"));
            }
        }
    }
    None
}

/// `(attempted, failed, first failure)` over a run's laps. A
/// state-identity mismatch invalidates the min filter and fails the run
/// outright, whatever the ops themselves reported.
pub fn tally(laps: &[&Lap]) -> (u64, u64, Option<String>) {
    let attempted = laps.iter().map(|l| l.attempted).sum();
    let failed = laps.iter().map(|l| l.failed).sum();
    let failure = identity_mismatch(laps)
        .map(|why| format!("state-identity guard: {why}"))
        .or_else(|| laps.iter().find_map(|l| l.first_failure.clone()));
    (attempted, failed, failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lap(syscalls: &[u64], digest: u64) -> Lap {
        Lap {
            setup_s: 0.1,
            op_ns: vec![1; syscalls.len()],
            op_syscalls: syscalls.to_vec(),
            digest,
            flow_counts: vec![1, 2],
            attempted: syscalls.len() as u64,
            failed: 0,
            first_failure: None,
            totals: Probe::default(),
        }
    }

    #[test]
    fn identical_laps_pass_the_guard() {
        let (a, b) = (lap(&[5, 6, 7], 9), lap(&[5, 6, 7], 9));
        assert_eq!(identity_mismatch(&[&a, &b]), None);
        assert_eq!(identity_mismatch(&[&a]), None);
        assert_eq!(identity_mismatch(&[]), None);
    }

    #[test]
    fn the_guard_names_the_first_divergent_op() {
        let (a, b, c) = (lap(&[5, 6, 7], 9), lap(&[5, 6, 7], 9), lap(&[5, 8, 1], 9));
        let why = identity_mismatch(&[&a, &b, &c]).unwrap();
        assert!(
            why.starts_with("op 1 charged 6 syscalls in lap 0 but 8 in lap 2"),
            "{why}"
        );
    }

    #[test]
    fn digests_are_compared_only_between_laps_of_equal_length() {
        let (full, other, prefix) = (lap(&[5, 6, 7], 9), lap(&[5, 6, 7], 10), lap(&[5, 6], 10));
        assert!(identity_mismatch(&[&full, &other])
            .unwrap()
            .contains("digest"));
        assert_eq!(identity_mismatch(&[&full, &prefix]), None);
        let mut flows = lap(&[5, 6, 7], 9);
        flows.flow_counts = vec![1, 3];
        assert!(identity_mismatch(&[&full, &flows])
            .unwrap()
            .contains("flow counts"));
    }

    #[test]
    fn probe_deltas_accumulate() {
        let before = Probe {
            net_events: 10,
            floods: 1,
            ..Probe::default()
        };
        let after = Probe {
            net_events: 25,
            floods: 2,
            ..Probe::default()
        };
        let mut total = Probe::default();
        total.add_delta(&before, &after);
        total.add_delta(&before, &after);
        assert_eq!((total.net_events, total.floods, total.paths), (30, 2, 0));
    }
}
