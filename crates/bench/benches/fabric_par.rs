//! E27 — multi-core driver pump: the same k=8 fabric replay at worker
//! counts 1/2/4/8, with every *claim* pinned on deterministic counters
//! and only the throughput series left to wall clock.
//!
//! Phase A (deterministic, asserted):
//!
//! - **Worker-count invariance** — a seeded storm + stats-poll replay
//!   at workers=1 and workers=4 produces identical sweep counts,
//!   identical total charged syscalls, and an identical content digest
//!   of `/net` (names, bytes, ownership). Parallelism changes which
//!   thread runs a driver, never what the drivers do.
//! - **Fan-in flush cost** — a `write_counters_batch` costs exactly
//!   3 syscalls regardless of entry count, so with fan-in the
//!   counter-write cost of a stats poll is `3·flushes` syscalls for
//!   `replies` stats replies: the syscalls-per-reply ratio is pinned
//!   strictly below 1 at k=8 (80 switches), and the flush/reply counts
//!   themselves are pinned worker-count-invariant.
//! - **Work stealing** — with worker 0 gated as a straggler, every one
//!   of its dispatches is stolen by a peer: steals == runs over the
//!   storm, and the straggler's own run counter does not move.
//!
//! Phase B (criterion, reported only): storm-round throughput at
//! workers=1/2/4/8. This host has a single core, so the series shows
//! coordination overhead rather than speedup; the counters above are
//! the machine-independent record. BENCH_fabric_par.json carries both.

use std::sync::atomic::Ordering;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use yanc_driver::Runtime;
use yanc_harness::build_fabric;
use yanc_openflow::Version;

const K: u16 = 8;

fn total_syscalls(rt: &Runtime) -> u64 {
    rt.yfs.filesystem().counters().total()
}

/// Seeded replay: bring up a k=8 fabric, storm a ping from every host,
/// poll stats, and pump to idle. Returns everything the invariance
/// claim pins: per-phase sweeps, total syscalls, sched runs, and the
/// schedule-independent content digest of `/net`.
fn run_replay(workers: usize) -> (Vec<u32>, u64, u64, u64) {
    let mut rt = Runtime::with_workers(workers);
    let mut sweeps = Vec::new();
    let topo = build_fabric(&mut rt, K, Version::V1_3);
    let hosts = topo.hosts.clone();
    for (i, &(h, _)) in hosts.iter().enumerate() {
        let (_, dst) = hosts[(i + 1) % hosts.len()];
        rt.net.host_ping(h, dst, (i + 1) as u16);
    }
    sweeps.push(rt.pump().unwrap());
    sweeps.push(rt.poll_stats().unwrap());
    sweeps.push(rt.pump().unwrap());
    let sched = rt.sched_stats();
    (
        sweeps,
        total_syscalls(&rt),
        sched.runs.load(Ordering::Relaxed),
        rt.yfs.filesystem().content_digest(),
    )
}

/// Same fabric with fan-in enabled: returns (flushes, replies)
/// after one storm + stats poll.
fn run_fanin(workers: usize) -> (u64, u64) {
    let mut rt = Runtime::with_workers(workers);
    let fanin = rt.enable_fanin();
    let topo = build_fabric(&mut rt, K, Version::V1_3);
    let hosts = topo.hosts.clone();
    for (i, &(h, _)) in hosts.iter().enumerate() {
        let (_, dst) = hosts[(i + 1) % hosts.len()];
        rt.net.host_ping(h, dst, (i + 1) as u16);
    }
    rt.pump().unwrap();
    rt.poll_stats().unwrap();
    rt.pump().unwrap();
    (fanin.flushes(), fanin.replies())
}

fn bench(c: &mut Criterion) {
    // ---- Phase A.1: worker-count invariance ---------------------------
    let (sweeps_1, syscalls_1, runs_1, content_1) = run_replay(1);
    let (sweeps_4, syscalls_4, runs_4, content_4) = run_replay(4);
    assert_eq!(sweeps_1, sweeps_4, "sweep counts diverged across workers");
    assert_eq!(
        syscalls_1, syscalls_4,
        "total charged syscalls diverged across workers"
    );
    assert_eq!(runs_1, runs_4, "sched runs diverged across workers");
    assert_eq!(
        content_1, content_4,
        "/net content digest diverged across workers"
    );

    // ---- Phase A.2: fan-in flush cost ---------------------------------
    // First pin the constant: one write_counters_batch is 3 syscalls no
    // matter how many counters ride in it.
    let mut probe = Runtime::with_workers(1);
    let sw = probe.add_switch_with_driver(0xA, 4, 1, vec![Version::V1_3], Version::V1_3);
    probe.pump().unwrap();
    let dir = probe.yfs.switch_dir(&sw);
    let entries: Vec<(String, u64)> = (0..16)
        .map(|i| (format!("counters/c{i}"), i as u64))
        .collect();
    let before = total_syscalls(&probe);
    probe.yfs.write_counters_batch(&dir, &entries).unwrap();
    let batch_syscalls = total_syscalls(&probe) - before;
    assert_eq!(batch_syscalls, 3, "write_counters_batch cost drifted");

    let (flushes, replies) = run_fanin(1);
    assert!(replies > 0, "stats poll produced no fan-in replies");
    assert!(flushes > 0, "fan-in never flushed");
    let flush_syscalls = batch_syscalls * flushes;
    assert!(
        flush_syscalls < replies,
        "counter-write syscalls per stats reply must be < 1 \
         ({flush_syscalls} flush syscalls for {replies} replies)"
    );
    for workers in [2usize, 4] {
        let (f, r) = run_fanin(workers);
        assert_eq!((f, r), (flushes, replies), "fan-in counts vary by workers");
    }

    // ---- Phase A.3: stealing under a straggler ------------------------
    let mut rt = Runtime::with_workers(4);
    let topo = build_fabric(&mut rt, K, Version::V1_3);
    rt.inject_straggler(Some(0));
    let sum = |rt: &Runtime, f: fn(&yanc_driver::WorkerStats) -> &std::sync::atomic::AtomicU64| {
        rt.worker_stats()
            .iter()
            .map(|w| f(w).load(Ordering::Relaxed))
            .sum::<u64>()
    };
    let runs_before = sum(&rt, |w| &w.runs);
    let steals_before = sum(&rt, |w| &w.steals);
    let straggler_before = rt.worker_stats()[0].runs.load(Ordering::Relaxed);
    let hosts = topo.hosts.clone();
    for (i, &(h, _)) in hosts.iter().enumerate() {
        let (_, dst) = hosts[(i + 1) % hosts.len()];
        rt.net.host_ping(h, dst, (i + 1) as u16);
    }
    rt.pump().unwrap();
    let stolen = sum(&rt, |w| &w.steals) - steals_before;
    let ran = sum(&rt, |w| &w.runs) - runs_before;
    assert!(ran >= 1, "storm dispatched no drivers");
    assert_eq!(stolen, ran, "straggler work not fully stolen");
    assert_eq!(
        rt.worker_stats()[0].runs.load(Ordering::Relaxed),
        straggler_before,
        "gated straggler ran a driver"
    );

    println!("\nE27: k={K} fat tree, multi-core pump");
    println!("{:>36} {:>14}", "metric", "value");
    println!("{:>36} {:>14}", "replay total syscalls (w=1)", syscalls_1);
    println!("{:>36} {:>14}", "replay total syscalls (w=4)", syscalls_4);
    println!(
        "{:>36} {:>14}",
        "content digest match",
        content_1 == content_4
    );
    println!("{:>36} {:>14}", "fan-in stats replies", replies);
    println!("{:>36} {:>14}", "fan-in flushes", flushes);
    println!(
        "{:>36} {:>14.4}",
        "counter syscalls / reply",
        flush_syscalls as f64 / replies as f64
    );
    println!("{:>36} {:>14}", "straggler dispatches stolen", stolen);

    yanc_harness::write_bench_report(
        "fabric_par",
        rt.yfs.filesystem(),
        &[
            ("experiment", "\"E27 multi-core driver pump\"".to_string()),
            ("k", K.to_string()),
            ("switches", topo.switches.len().to_string()),
            ("hosts", hosts.len().to_string()),
            ("replay_sweeps", format!("{sweeps_1:?}")),
            ("replay_syscalls_workers1", syscalls_1.to_string()),
            ("replay_syscalls_workers4", syscalls_4.to_string()),
            ("replay_content_digest_match", "true".to_string()),
            ("batch_write_syscalls", batch_syscalls.to_string()),
            ("fanin_replies", replies.to_string()),
            ("fanin_flushes", flushes.to_string()),
            (
                "fanin_syscalls_per_reply",
                format!("{:.4}", flush_syscalls as f64 / replies as f64),
            ),
            ("straggler_steals", stolen.to_string()),
            ("straggler_runs", ran.to_string()),
            (
                "note",
                "\"counters are deterministic and worker-count-invariant; the \
                 criterion storm series ran on a 1-core host, so it measures \
                 coordination overhead, not speedup\""
                    .to_string(),
            ),
        ],
    );

    // ---- Phase B: wall-clock storm series -----------------------------
    let mut g = c.benchmark_group("fabric_par");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("storm_round_k8", workers),
            &workers,
            |b, &workers| {
                let mut rt = Runtime::with_workers(workers);
                let topo = build_fabric(&mut rt, K, Version::V1_3);
                let mut seq = 1u16;
                b.iter(|| {
                    for e in 0..32usize {
                        let (src, _) = topo.hosts[e * 4];
                        let (_, dst_ip) = topo.hosts[e * 4 + 1];
                        rt.net.host_ping(src, dst_ip, seq);
                    }
                    seq = seq.wrapping_add(1);
                    rt.pump().unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
