//! The benchmark's contract as data: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is this module rendered
//! (`yanc-benchmark --contract`); a unit test fails when the two drift,
//! so a metric cannot be renamed in one place only.

use crate::workloads::Kind;

/// Laps per run. A constant, not a function of the clock: every run of
/// the same code applies the same estimator. Six is what fits the
/// driver's time cap (92 runs in 3420 s) with a fifth to spare on the
/// 2-core box this was sized on; see the README's timing rule.
pub const LAPS: usize = 6;

/// How long one run measures, in seconds (`run_seconds`): what [`LAPS`]
/// laps take on that box, averaged over the four workloads (19 to 46 s).
pub const RUN_SECONDS: u32 = 30;

pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.07,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.07,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // harness: what the timing rule filters out, and what tracing costs
    ("raw.op_p50_us", "us", "lower"),
    ("raw.op_p95_us", "us", "lower"),
    ("raw.lap_spread_pct", "%", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.syscall_delta", "count", "lower"),
    // dataplane sim
    ("dataplane.busy_us_per_op", "us", "lower"),
    ("dataplane.events_per_op", "count", "lower"),
    ("dataplane.frames_per_op", "count", "lower"),
    ("dataplane.control_msgs_per_op", "count", "lower"),
    ("dataplane.ns_per_event", "ns", "lower"),
    ("dataplane.table_flows", "count", "lower"),
    ("dataplane.slowpath_pct", "%", "lower"),
    // driver
    ("driver.busy_us_per_op", "us", "lower"),
    ("driver.self_us_per_op", "us", "lower"),
    ("driver.runs_per_op", "count", "lower"),
    ("driver.sweeps_per_op", "count", "lower"),
    ("driver.idle_scans_per_op", "count", "lower"),
    ("driver.flow_mods_per_op", "count", "lower"),
    ("driver.msgs_tx_per_op", "count", "lower"),
    ("driver.msgs_rx_per_op", "count", "lower"),
    ("driver.packet_ins_per_op", "count", "lower"),
    ("driver.vfs_syscalls_per_op", "count", "lower"),
    ("driver.par_speedup", "ratio", "higher"),
    ("driver.par_workers", "count", "higher"),
    // apps (the router daemon)
    ("apps.busy_us_per_op", "us", "lower"),
    ("apps.self_us_per_op", "us", "lower"),
    ("apps.vfs_syscalls_per_op", "count", "lower"),
    ("apps.paths_per_op", "count", "lower"),
    ("apps.floods_per_op", "count", "lower"),
    ("apps.wakeups_per_op", "count", "lower"),
    ("apps.idle_wakeups_per_op", "count", "lower"),
    // core (YancFs)
    ("core.busy_us_per_op", "us", "lower"),
    ("core.vfs_syscalls_per_op", "count", "lower"),
    ("core.write_flow_us", "us", "lower"),
    ("core.write_flow_at_us", "us", "lower"),
    ("core.read_flow_us", "us", "lower"),
    ("core.delete_flow_us", "us", "lower"),
    ("core.publish_packet_in_us", "us", "lower"),
    ("core.peer_us", "us", "lower"),
    ("core.syscalls_per_write_flow", "count", "lower"),
    ("core.syscalls_per_write_flow_at", "count", "lower"),
    ("core.syscalls_per_read_flow", "count", "lower"),
    // vfs
    ("vfs.syscalls_per_op", "count", "lower"),
    ("vfs.syscalls.open_per_op", "count", "lower"),
    ("vfs.syscalls.close_per_op", "count", "lower"),
    ("vfs.syscalls.read_per_op", "count", "lower"),
    ("vfs.syscalls.write_per_op", "count", "lower"),
    ("vfs.syscalls.stat_per_op", "count", "lower"),
    ("vfs.syscalls.readdir_per_op", "count", "lower"),
    ("vfs.syscalls.readlink_per_op", "count", "lower"),
    ("vfs.syscalls.mkdir_per_op", "count", "lower"),
    ("vfs.syscalls.rmdir_per_op", "count", "lower"),
    ("vfs.syscalls.unlink_per_op", "count", "lower"),
    ("vfs.syscalls.openat_per_op", "count", "lower"),
    ("vfs.stat_ns", "ns", "lower"),
    ("vfs.read_file_ns", "ns", "lower"),
    ("vfs.write_file_ns", "ns", "lower"),
    ("vfs.readdir_ns", "ns", "lower"),
    ("vfs.readlink_ns", "ns", "lower"),
    ("vfs.mkdir_rmdir_ns", "ns", "lower"),
    ("vfs.write_batch_at_ns_per_entry", "ns", "lower"),
    ("vfs.est_us_per_op", "us", "lower"),
    ("vfs.est_share_pct", "%", "lower"),
    ("vfs.dcache_hit_ratio", "ratio", "higher"),
    ("vfs.readpath_hit_ratio", "ratio", "higher"),
    ("vfs.lock_acq_per_op", "count", "lower"),
    ("vfs.notify_events_per_op", "count", "lower"),
    ("vfs.notify_dropped", "count", "lower"),
    ("vfs.ablate.dcache_off.op_ratio", "ratio", "higher"),
    ("vfs.ablate.readpath_off.op_ratio", "ratio", "higher"),
    // openflow codec, packet parser
    ("openflow.encode_flow_mod_ns", "ns", "lower"),
    ("openflow.decode_flow_mod_ns", "ns", "lower"),
    ("openflow.encode_packet_in_ns", "ns", "lower"),
    ("openflow.decode_packet_in_ns", "ns", "lower"),
    ("openflow.stats_reply_roundtrip_ns", "ns", "lower"),
    ("openflow.est_us_per_op", "us", "lower"),
    ("packet.summary_parse_ns", "ns", "lower"),
    // coreutils (the operator's shell)
    ("coreutils.busy_us_per_op", "us", "lower"),
    ("coreutils.vfs_syscalls_per_op", "count", "lower"),
    ("coreutils.bytes_out_per_op", "B", "lower"),
    // allocator
    ("alloc.count_per_op", "count", "lower"),
    ("alloc.bytes_per_op", "B", "lower"),
    ("alloc.live_bytes_per_flow", "B", "lower"),
];

/// Why each workload exists, in one line.
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::ReactiveSetup => {
            "the paper's whole reactive loop, miss to forwarded packet: router daemon and driver dominate; first-contact floods form the p95"
        }
        Kind::BulkInstall => {
            "proactive path and the vfs write side (mkdirat, batched writes, rmdir, notify fan-out) with no app in the loop"
        }
        Kind::MonitorScan => {
            "operator path of section 5.4 and the vfs read side (walk, dcache, seqlock reads) beside the stats counter-write burst"
        }
        Kind::WarmForward => {
            "control: only the dataplane sim works, so a controller-side change must show no movement; its setup_s prices a warm start"
        }
    }
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn render() -> String {
    let quoted = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = Kind::ALL
        .iter()
        .map(|k| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                k.name(),
                why(*k)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_this_module_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --contract > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_respect_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            // The driver allows up to 0.25; this benchmark promises a tenth.
            assert!(m.bound > 0.0 && m.bound <= 0.10, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            assert!(["lower", "higher"].contains(better));
            assert!(seen.insert(name), "{name} used twice");
        }
        for k in Kind::ALL {
            assert!(name_ok(k.name()) && seen.insert(k.name()));
            assert!(why(k).len() <= 200 && !why(k).contains(['\n', '"', '\\']));
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(render().len() <= 64 * 1024);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
