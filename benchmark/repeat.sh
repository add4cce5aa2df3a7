#!/usr/bin/env bash
# Repeatability check: build once, run two full sets of the benchmark and
# compare them with the benchmark's own bounds.
#
#   benchmark/repeat.sh [first-seed]
#   RUNS=10 benchmark/repeat.sh [first-seed]   # ten seeds per workload and set
#
# A set runs every workload RUNS times (default 1), with seeds first-seed ..
# first-seed+RUNS-1; the second set visits the workloads in reverse order
# so that drift over the session does not line up with one workload.
# Prints each end-to-end metric's median in either set and the relative gap
# between the two. Fails (exit 1) if a run is incorrect or if any gap, in
# either direction, exceeds the metric's bound: a second set that reads
# much better is as unrepeatable as one that reads much worse.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
runs="${RUNS:-1}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/yanc-benchmark"

exec python3 - "$bin" "$here/../BENCHMARK.json" "$seed" "$runs" <<'PY'
import json, statistics, subprocess, sys

binary, contract_path, first_seed, runs = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
contract = json.load(open(contract_path))
workloads = [w["name"] for w in contract["workloads"]]
metrics = contract["end_to_end"]
seconds = str(contract["run_seconds"])

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit(f"{workload} seed {seed}: no result line (exit {out.returncode})\n{out.stderr}")
    if out.returncode != 0 or not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {last}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def one_set(order):
    values = {}
    for w in order:
        for r in range(runs):
            m = run(w, first_seed + r)
            print(f"  {w} seed {first_seed + r}: " + " ".join(f"{k}={v:.5g}" for k, v in m.items()), flush=True)
            for k, v in m.items():
                values.setdefault((w, k), []).append(v)
    return values

print(f"set A ({runs} run(s) per workload, seeds from {first_seed})", flush=True)
a = one_set(workloads)
print("set B (reverse order)", flush=True)
b = one_set(list(reversed(workloads)))

failed = False
print(f"\n{'workload':<16}{'metric':<13}{'median A':>12}{'median B':>12}{'gap':>9}{'bound':>7}")
for w in workloads:
    for m in metrics:
        name, bound = m["name"], m["bound"]
        ma, mb = statistics.median(a[w, name]), statistics.median(b[w, name])
        # Relative to the smaller of the two medians: the stricter choice,
        # and the verdict does not depend on which set ran first.
        gap = abs(mb - ma) / min(ma, mb)
        verdict = "  GAP EXCEEDS BOUND" if gap > bound else ""
        failed |= bool(verdict)
        print(f"{w:<16}{name:<13}{ma:>12.5g}{mb:>12.5g}{gap:>9.2%}{bound:>7.0%}{verdict}")
sys.exit(1 if failed else 0)
PY
