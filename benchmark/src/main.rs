//! Wall-clock benchmark for yanc-rs. See README.md for the metrics, the
//! workloads and the timing rule; BENCHMARK.json at the repository root
//! is the machine-readable contract.

mod alloc;
mod contract;
mod lap;
mod layers;
mod rng;
mod stats;
mod trace;
mod units;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use lap::{run_lap, tally, Lap};
use stats::{lap_min, percentile, result_line, Metric};
use workloads::{Kind, Workload};
use world::Variant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: yanc-benchmark --workload <reactive_setup|bulk_install|monitor_scan|warm_forward> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>]
       yanc-benchmark --contract   (print BENCHMARK.json)";

struct Args {
    kind: Kind,
    seed: u64,
    /// The driver's `run_seconds`. Checked and echoed only: the lap
    /// count is the constant [`contract::LAPS`], so that every run of the
    /// same code uses the same estimator whatever the clock says.
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = f64::from(contract::RUN_SECONDS);
    let mut trace = false;
    let mut trace_out = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        let need = |what: &str| value.ok_or_else(|| format!("{what} needs a value"));
        match argv[i].as_str() {
            "--workload" => {
                let name = need("--workload")?;
                kind = Some(Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
                i += 2;
            }
            "--seed" => {
                let v = need("--seed")?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
                i += 2;
            }
            "--seconds" => {
                let v = need("--seconds")?;
                seconds = v.parse().map_err(|_| format!("bad seconds {v:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
                i += 2;
            }
            "--trace" => {
                trace = match need("--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(need("--trace-out")?));
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
    })
}

/// Peak resident set of this process so far, from the kernel's own
/// high-water mark. The gated figure is read after the first lap: what
/// one world needs from a cold process. Later laps ratchet the mark up by
/// a few MB at irregular points (freed arenas are not always reused),
/// which says nothing about the program.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a finished pass reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// First correctness failure, if any.
    pub failure: Option<String>,
}

/// The gated pass: replay the workload as [`contract::LAPS`] laps, take
/// each op's minimum over laps, report the five end-to-end metrics.
fn measured_pass(wl: &Workload) -> Report {
    let n_ops = wl.ops.len();
    let mut laps: Vec<Lap> = Vec::with_capacity(contract::LAPS);
    let mut first_lap_rss_mb = 0.0;
    for l in 0..contract::LAPS {
        // The lap is dropped with its world before the next one is built,
        // so peak memory is one world's, whatever the lap count.
        let (lap, world) = run_lap(wl, Variant::BASE, false, n_ops);
        drop(world);
        println!(
            "lap {l}: setup {:.4} s, {} ops in {:.4} s, {} failed",
            lap.setup_s,
            lap.op_ns.len(),
            lap.total_ns() as f64 / 1e9,
            lap.failed
        );
        laps.push(lap);
        if l == 0 {
            first_lap_rss_mb = peak_rss_mb();
        }
    }

    let series: Vec<&[u64]> = laps.iter().map(|l| l.op_ns.as_slice()).collect();
    let best = lap_min(&series);
    let best_total_s = best.iter().sum::<u64>() as f64 / 1e9;
    let items = wl.kind.items_per_op() * n_ops as u64;
    let setup_s = laps.iter().map(|l| l.setup_s).fold(f64::INFINITY, f64::min);
    let refs: Vec<&Lap> = laps.iter().collect();
    let (attempted, failed, failure) = tally(&refs);

    println!(
        "{}: {} laps x {} ops ({} samples per percentile), {} items per lap",
        wl.kind.name(),
        laps.len(),
        n_ops,
        best.len(),
        items
    );
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "items_per_s" => items as f64 / best_total_s,
        "op_p50_us" => percentile(&best, 50.0) as f64 / 1e3,
        "op_p95_us" => percentile(&best, 95.0) as f64 / 1e3,
        "peak_rss_mb" => first_lap_rss_mb,
        other => unreachable!("{other} is in the contract but not measured"),
    };
    Report {
        metrics: contract::END_TO_END
            .iter()
            .map(|m| Metric::new(m.name, m.unit, value(m.name)))
            .collect(),
        attempted,
        failed,
        failure,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--contract"] {
        print!("{}", contract::render());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = Workload::new(args.kind, args.seed);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        layers::traced_pass(&wl, args.trace_out)
    } else {
        measured_pass(&wl)
    };

    for m in &report.metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops attempted {} failed {}",
        report.attempted, report.failed
    );
    let correct = report.failure.is_none() && report.failed == 0;
    if let Some(why) = &report.failure {
        println!("INCORRECT: {why}");
    }
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_form_parses() {
        let a = args("--workload bulk_install --seed 7 --seconds 24 --trace 0").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::BulkInstall, 7, 24.0, false)
        );
        assert!(
            args("--workload warm_forward --seed 7 --seconds 24 --trace 1")
                .unwrap()
                .trace
        );
    }

    #[test]
    fn defaults_and_trace_out_parse() {
        let a = args("--workload monitor_scan --trace 1 --trace-out /tmp/x.jsonl").unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 1);
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/x.jsonl")));
        assert!(!args("--workload monitor_scan").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload bulk_install --seed x").is_err());
        assert!(args("--workload bulk_install --seconds 0").is_err());
        assert!(args("--workload bulk_install --bogus").is_err());
        assert!(args("--workload bulk_install --trace").is_err());
        assert!(args("--workload bulk_install --trace yes").is_err());
    }
}
