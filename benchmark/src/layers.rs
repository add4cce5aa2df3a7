//! The traced pass: one lap with a span around every call into a layer,
//! then unit costs on the tree it left, then the ablation and worker
//! series. Produces the per-layer metrics; end-to-end metrics are never
//! taken from here.

use std::collections::BTreeMap;
use std::path::PathBuf;

use yanc_vfs::OpKind;

use crate::contract::PER_LAYER;
use crate::lap::{run_lap, tally, Lap};
use crate::stats::{lap_min, percentile, Metric};
use crate::trace::{self, Layer, Tracer};
use crate::units::{self, Units};
use crate::workloads::Workload;
use crate::world::Variant;
use crate::Report;

/// Untraced laps run beside the traced one: the reference it must end
/// identical to, the raw (unfiltered) figures, and the ablation baseline.
const BASELINE_LAPS: usize = 3;
/// Laps per ablation / worker series, min-filtered like the gated pass.
const SERIES_LAPS: usize = 3;
/// The series replay this share of the op sequence; their worlds differ
/// from the baseline only in the toggled feature.
const SERIES_SHARE: usize = 6;

/// Estimated cost of one charged syscall of `kind`, from the measured
/// unit costs. Deliberately coarse: `read_file` is open + stat + read +
/// close and `write_file` is open + write + close, which prices the
/// descriptor calls; everything without a unit of its own is priced like
/// its nearest neighbour. One batched write is charged once however many
/// entries it carries, so write-heavy layers are underestimated.
fn syscall_cost_ns(kind: OpKind, u: &Units) -> f64 {
    let fd_call = ((u.read_file_ns - u.stat_ns) / 3.0).max(0.0);
    match kind {
        OpKind::Stat | OpKind::Fstat | OpKind::Xattr | OpKind::Setattr | OpKind::Poll => u.stat_ns,
        OpKind::Open | OpKind::Openat | OpKind::Close | OpKind::Read | OpKind::Fsync => fd_call,
        OpKind::Write | OpKind::Truncate => (u.write_file_ns - 2.0 * fd_call).max(fd_call),
        OpKind::Readdir => u.readdir_ns,
        OpKind::Readlink | OpKind::Symlink | OpKind::Link => u.readlink_ns,
        OpKind::Mkdir | OpKind::Rmdir | OpKind::Unlink | OpKind::Rename => u.mkdir_rmdir_ns / 2.0,
    }
}

fn vfs_estimate_ns(layer: &Layer, u: &Units) -> f64 {
    OpKind::all()
        .iter()
        .map(|k| layer.syscalls[*k as usize] as f64 * syscall_cost_ns(*k, u))
        .sum()
}

fn sum_layers(a: &Layer, b: &Layer) -> Layer {
    let mut out = a.clone();
    out.busy_ns += b.busy_ns;
    out.calls += b.calls;
    for (x, y) in out.syscalls.iter_mut().zip(&b.syscalls) {
        *x += y;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are computed from.
pub struct Inputs<'a> {
    pub base: &'a [Lap],
    pub traced: &'a Lap,
    pub tracer: &'a Tracer,
    pub units: &'a Units,
    pub notify_dropped: u64,
    /// Σ min-filtered op time with the feature off ÷ the same ops with
    /// everything on (> 1 means the feature earns its keep).
    pub dcache_off_ratio: f64,
    pub readpath_off_ratio: f64,
    /// Throughput at `workers` ÷ throughput at one worker.
    pub par_speedup: f64,
    pub workers: usize,
}

/// The per-layer metrics, in [`PER_LAYER`] order.
pub fn compute(inp: &Inputs) -> Vec<Metric> {
    let u = inp.units;
    let t = inp.tracer;
    let tot = &inp.traced.totals;
    let ops = inp.traced.op_ns.len().max(1) as f64;
    let per_op = |x: f64| x / ops;
    let us_per_op = |ns: f64| ns / 1e3 / ops;

    let op = t.layer(trace::OP);
    let dataplane = t.layer(trace::DATAPLANE_PUMP);
    let run_once = t.layer(trace::DRIVER_RUN_ONCE);
    let poll = t.layer(trace::DRIVER_POLL_STATS);
    let driver = sum_layers(&run_once, &poll);
    let apps = t.layer(trace::ROUTER_RUN_ONCE);
    let core = sum_layers(
        &t.layer(trace::CORE_WRITE_FLOW_AT),
        &t.layer(trace::CORE_DELETE_FLOW),
    );
    let coreutils = t.layer(trace::COREUTILS_RUN);

    let pooled: Vec<u64> = inp
        .base
        .iter()
        .flat_map(|l| l.op_ns.iter().copied())
        .collect();
    let lap_totals: Vec<f64> = inp.base.iter().map(|l| l.total_ns() as f64).collect();
    let fastest = lap_totals.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = lap_totals.iter().copied().fold(0.0, f64::max);
    let base_syscalls: u64 = inp.base.first().map_or(0, |l| l.op_syscalls.iter().sum());
    let traced_syscalls: u64 = inp.traced.op_syscalls.iter().sum();

    // Codec time on both ends of the control channel (driver and sim
    // switch each encode or decode every message once).
    let polls = poll.calls as f64;
    let openflow_ns = tot.flow_mods as f64 * (u.encode_flow_mod_ns + u.decode_flow_mod_ns)
        + tot.packet_ins as f64 * (u.encode_packet_in_ns + u.decode_packet_in_ns)
        + 2.0 * polls * u.stats_reply_roundtrip_ns;
    let driver_codec_ns = tot.flow_mods as f64 * u.encode_flow_mod_ns
        + tot.packet_ins as f64 * u.decode_packet_in_ns
        + polls * u.stats_reply_roundtrip_ns;
    let vfs_ns = vfs_estimate_ns(&op, u);

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64| {
        assert!(v.insert(name, value).is_none(), "{name} computed twice");
    };

    put("raw.op_p50_us", percentile(&pooled, 50.0) as f64 / 1e3);
    put("raw.op_p95_us", percentile(&pooled, 95.0) as f64 / 1e3);
    put(
        "raw.lap_spread_pct",
        100.0 * ratio(slowest - fastest, fastest),
    );
    // One traced lap against the fastest single untraced lap: like for
    // like, neither side filtered.
    put(
        "trace.overhead_pct",
        100.0 * ratio(inp.traced.total_ns() as f64 - fastest, fastest),
    );
    put(
        "trace.syscall_delta",
        traced_syscalls.abs_diff(base_syscalls) as f64,
    );

    put(
        "dataplane.busy_us_per_op",
        us_per_op(dataplane.busy_ns as f64),
    );
    put("dataplane.events_per_op", per_op(tot.net_events as f64));
    put("dataplane.frames_per_op", per_op(tot.net_frames as f64));
    put(
        "dataplane.control_msgs_per_op",
        per_op(tot.net_control as f64),
    );
    put(
        "dataplane.ns_per_event",
        ratio(dataplane.busy_ns as f64, tot.net_events as f64),
    );
    put(
        "dataplane.table_flows",
        inp.traced.flow_counts.iter().sum::<usize>() as f64,
    );
    put(
        "dataplane.slowpath_pct",
        100.0 * ratio(tot.packet_ins as f64, tot.net_frames as f64),
    );

    put("driver.busy_us_per_op", us_per_op(driver.busy_ns as f64));
    put(
        "driver.self_us_per_op",
        us_per_op(driver.busy_ns as f64 - vfs_estimate_ns(&driver, u) - driver_codec_ns),
    );
    put("driver.runs_per_op", per_op(run_once.calls as f64));
    put("driver.sweeps_per_op", per_op(t.counts.sweeps as f64));
    put(
        "driver.idle_scans_per_op",
        per_op(t.counts.idle_scans as f64),
    );
    put("driver.flow_mods_per_op", per_op(tot.flow_mods as f64));
    put("driver.msgs_tx_per_op", per_op(tot.msgs_tx as f64));
    put("driver.msgs_rx_per_op", per_op(tot.msgs_rx as f64));
    put("driver.packet_ins_per_op", per_op(tot.packet_ins as f64));
    put(
        "driver.vfs_syscalls_per_op",
        per_op(driver.syscall_total() as f64),
    );
    put("driver.par_speedup", inp.par_speedup);
    put("driver.par_workers", inp.workers as f64);

    put("apps.busy_us_per_op", us_per_op(apps.busy_ns as f64));
    put(
        "apps.self_us_per_op",
        us_per_op(apps.busy_ns as f64 - vfs_estimate_ns(&apps, u)),
    );
    put(
        "apps.vfs_syscalls_per_op",
        per_op(apps.syscall_total() as f64),
    );
    put("apps.paths_per_op", per_op(tot.paths as f64));
    put("apps.floods_per_op", per_op(tot.floods as f64));
    put("apps.wakeups_per_op", per_op(apps.calls as f64));
    put(
        "apps.idle_wakeups_per_op",
        per_op(t.counts.idle_wakeups as f64),
    );

    put("core.busy_us_per_op", us_per_op(core.busy_ns as f64));
    put(
        "core.vfs_syscalls_per_op",
        per_op(core.syscall_total() as f64),
    );
    put("core.write_flow_us", u.write_flow_us);
    put("core.write_flow_at_us", u.write_flow_at_us);
    put("core.read_flow_us", u.read_flow_us);
    put("core.delete_flow_us", u.delete_flow_us);
    put("core.publish_packet_in_us", u.publish_packet_in_us);
    put("core.peer_us", u.peer_us);
    put("core.syscalls_per_write_flow", u.syscalls_per_write_flow);
    put(
        "core.syscalls_per_write_flow_at",
        u.syscalls_per_write_flow_at,
    );
    put("core.syscalls_per_read_flow", u.syscalls_per_read_flow);

    put("vfs.syscalls_per_op", per_op(op.syscall_total() as f64));
    for (name, kind) in [
        ("vfs.syscalls.open_per_op", OpKind::Open),
        ("vfs.syscalls.close_per_op", OpKind::Close),
        ("vfs.syscalls.read_per_op", OpKind::Read),
        ("vfs.syscalls.write_per_op", OpKind::Write),
        ("vfs.syscalls.stat_per_op", OpKind::Stat),
        ("vfs.syscalls.readdir_per_op", OpKind::Readdir),
        ("vfs.syscalls.readlink_per_op", OpKind::Readlink),
        ("vfs.syscalls.mkdir_per_op", OpKind::Mkdir),
        ("vfs.syscalls.rmdir_per_op", OpKind::Rmdir),
        ("vfs.syscalls.unlink_per_op", OpKind::Unlink),
        ("vfs.syscalls.openat_per_op", OpKind::Openat),
    ] {
        put(name, per_op(op.syscalls[kind as usize] as f64));
    }
    put("vfs.stat_ns", u.stat_ns);
    put("vfs.read_file_ns", u.read_file_ns);
    put("vfs.write_file_ns", u.write_file_ns);
    put("vfs.readdir_ns", u.readdir_ns);
    put("vfs.readlink_ns", u.readlink_ns);
    put("vfs.mkdir_rmdir_ns", u.mkdir_rmdir_ns);
    put(
        "vfs.write_batch_at_ns_per_entry",
        u.write_batch_at_ns_per_entry,
    );
    put("vfs.est_us_per_op", us_per_op(vfs_ns));
    put(
        "vfs.est_share_pct",
        100.0 * ratio(vfs_ns, op.busy_ns as f64),
    );
    put(
        "vfs.dcache_hit_ratio",
        ratio(
            tot.dcache_hits as f64,
            (tot.dcache_hits + tot.dcache_misses) as f64,
        ),
    );
    put(
        "vfs.readpath_hit_ratio",
        ratio(
            tot.readpath_hits as f64,
            (tot.readpath_hits + tot.readpath_fallbacks) as f64,
        ),
    );
    put("vfs.lock_acq_per_op", per_op(tot.lock_acquisitions as f64));
    put(
        "vfs.notify_events_per_op",
        per_op(tot.notify_delivered as f64),
    );
    put("vfs.notify_dropped", inp.notify_dropped as f64);
    put("vfs.ablate.dcache_off.op_ratio", inp.dcache_off_ratio);
    put("vfs.ablate.readpath_off.op_ratio", inp.readpath_off_ratio);

    put("openflow.encode_flow_mod_ns", u.encode_flow_mod_ns);
    put("openflow.decode_flow_mod_ns", u.decode_flow_mod_ns);
    put("openflow.encode_packet_in_ns", u.encode_packet_in_ns);
    put("openflow.decode_packet_in_ns", u.decode_packet_in_ns);
    put(
        "openflow.stats_reply_roundtrip_ns",
        u.stats_reply_roundtrip_ns,
    );
    put("openflow.est_us_per_op", us_per_op(openflow_ns));
    put("packet.summary_parse_ns", u.summary_parse_ns);

    put(
        "coreutils.busy_us_per_op",
        us_per_op(coreutils.busy_ns as f64),
    );
    put(
        "coreutils.vfs_syscalls_per_op",
        per_op(coreutils.syscall_total() as f64),
    );
    put(
        "coreutils.bytes_out_per_op",
        per_op(t.counts.shell_bytes_out as f64),
    );

    put("alloc.count_per_op", per_op(tot.alloc_count as f64));
    put("alloc.bytes_per_op", per_op(tot.alloc_bytes as f64));
    put("alloc.live_bytes_per_flow", u.live_bytes_per_flow);

    assert_eq!(
        v.len(),
        PER_LAYER.len(),
        "a computed metric is not in the contract"
    );
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = *v
                .get(name)
                .unwrap_or_else(|| panic!("{name} is in the contract but was not computed"));
            Metric::new(name, unit, value)
        })
        .collect()
}

/// Σ of the min-filtered op times of `SERIES_LAPS` prefix laps of a
/// variant world; laps are appended to `all` for the failure tally.
fn series_total_ns(wl: &Workload, variant: Variant, n_ops: usize, all: &mut Vec<Lap>) -> f64 {
    let laps: Vec<Lap> = (0..SERIES_LAPS)
        .map(|_| run_lap(wl, variant, false, n_ops).0)
        .collect();
    let series: Vec<&[u64]> = laps.iter().map(|l| l.op_ns.as_slice()).collect();
    let total = lap_min(&series).iter().sum::<u64>() as f64;
    all.extend(laps);
    total
}

/// Beside the executable, which is inside cargo's target directory and
/// so ignored wherever the build was told to put it; the working
/// directory if the executable's own path cannot be read.
fn default_span_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_default();
    dir.join(format!("trace-{workload}.jsonl"))
}

pub fn traced_pass(wl: &Workload, trace_out: Option<PathBuf>) -> Report {
    let n_ops = wl.ops.len();
    let base: Vec<Lap> = (0..BASELINE_LAPS)
        .map(|_| run_lap(wl, Variant::BASE, false, n_ops).0)
        .collect();
    let (traced, mut world) = run_lap(wl, Variant::BASE, true, n_ops);
    let tracer = world.tracer.take().expect("traced lap has a tracer");
    let notify_dropped = world.fs.notify().dropped_events();
    let units = units::measure(&world);
    drop(world);
    println!(
        "traced lap: {} spans over {} ops; {} untraced reference laps",
        tracer.span_count(),
        n_ops,
        base.len()
    );

    // Ablation and worker series on a prefix of the same op sequence,
    // against the same prefix of the baseline laps.
    let prefix = n_ops / SERIES_SHARE;
    let base_prefix: Vec<&[u64]> = base.iter().map(|l| &l.op_ns[..prefix]).collect();
    let base_prefix_ns = lap_min(&base_prefix).iter().sum::<u64>() as f64;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut series_laps: Vec<Lap> = Vec::new();
    let [dcache_off_ns, readpath_off_ns, parallel_ns] = [
        Variant {
            dcache: false,
            ..Variant::BASE
        },
        Variant {
            readpath: false,
            ..Variant::BASE
        },
        Variant {
            workers,
            ..Variant::BASE
        },
    ]
    .map(|variant| series_total_ns(wl, variant, prefix, &mut series_laps));
    println!(
        "series: {SERIES_LAPS} laps x {prefix} ops each for dcache off, readpath off, workers={workers} ({workers} cores)"
    );

    let metrics = compute(&Inputs {
        base: &base,
        traced: &traced,
        tracer: &tracer,
        units: &units,
        notify_dropped,
        dcache_off_ratio: ratio(dcache_off_ns, base_prefix_ns),
        readpath_off_ratio: ratio(readpath_off_ns, base_prefix_ns),
        par_speedup: ratio(base_prefix_ns, parallel_ns),
        workers,
    });

    // The traced lap joins the identity guard: it must charge the same
    // syscalls per op and end in the same digest and flow counts as the
    // untraced laps, or its per-layer numbers describe a different run.
    let mut refs: Vec<&Lap> = base.iter().collect();
    refs.push(&traced);
    refs.extend(series_laps.iter());
    let (attempted, failed, failure) = tally(&refs);

    let path = trace_out.unwrap_or_else(|| default_span_path(wl.kind.name()));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
    Report {
        metrics,
        attempted,
        failed,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lap::Probe;
    use std::sync::Arc;

    fn lap(op_ns: &[u64]) -> Lap {
        Lap {
            setup_s: 0.1,
            op_ns: op_ns.to_vec(),
            op_syscalls: vec![10; op_ns.len()],
            digest: 1,
            flow_counts: vec![3, 4],
            attempted: op_ns.len() as u64,
            failed: 0,
            first_failure: None,
            totals: Probe {
                net_events: 40,
                net_frames: 20,
                packet_ins: 5,
                ..Probe::default()
            },
        }
    }

    #[test]
    fn compute_emits_every_contract_metric_once_in_order() {
        let base = [lap(&[1000, 3000]), lap(&[2000, 2000])];
        let traced = lap(&[2000, 4000]);
        let tracer = Tracer::new(Arc::new(yanc_vfs::Filesystem::new()));
        let metrics = compute(&Inputs {
            base: &base,
            traced: &traced,
            tracer: &tracer,
            units: &Units::default(),
            notify_dropped: 0,
            dcache_off_ratio: 1.5,
            readpath_off_ratio: 1.0,
            par_speedup: 0.9,
            workers: 2,
        });
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, want);

        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        // lap totals 4000 and 4000 against a traced 6000.
        assert_eq!(get("trace.overhead_pct"), 50.0);
        assert_eq!(get("raw.lap_spread_pct"), 0.0);
        assert_eq!(get("dataplane.events_per_op"), 20.0);
        assert_eq!(get("dataplane.slowpath_pct"), 25.0);
        assert_eq!(get("dataplane.table_flows"), 7.0);
        assert_eq!(get("vfs.ablate.dcache_off.op_ratio"), 1.5);
        assert_eq!(get("driver.par_workers"), 2.0);
        assert_eq!(get("trace.syscall_delta"), 0.0);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn syscall_costs_follow_the_unit_costs() {
        let u = Units {
            stat_ns: 100.0,
            read_file_ns: 400.0,
            write_file_ns: 500.0,
            readdir_ns: 700.0,
            readlink_ns: 150.0,
            mkdir_rmdir_ns: 2000.0,
            ..Units::default()
        };
        assert_eq!(syscall_cost_ns(OpKind::Stat, &u), 100.0);
        assert_eq!(syscall_cost_ns(OpKind::Open, &u), 100.0);
        assert_eq!(syscall_cost_ns(OpKind::Write, &u), 300.0);
        assert_eq!(syscall_cost_ns(OpKind::Rmdir, &u), 1000.0);
        let mut layer = Layer::default();
        layer.syscalls[OpKind::Readdir as usize] = 2;
        layer.syscalls[OpKind::Readlink as usize] = 4;
        assert_eq!(vfs_estimate_ns(&layer, &u), 2000.0);
    }
}
