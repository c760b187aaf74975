#!/usr/bin/env python3
"""Run the perf-tracked benches and emit BENCH_fig*.json trajectory files.

Each tracked bench prints machine-readable "@metric <name> <value>" lines
(see bench/bench_util.hpp).  This script runs the fig13 (mapping), fig14
(serving throughput), fig16 (kernel-map cache), fig17 (multi-device
sharding), fig18 (priority classes), fig19 (heterogeneous fleets), fig20
(warm-start serving), fig21 (fault-tolerant serving), and fig22
(multi-model serving) binaries, collects their metrics, and writes one
BENCH_<fig>.json per bench.

Modeled metrics are produced by the deterministic cost model, so they are
bit-reproducible across machines; the CI regression gate (--check)
compares them against the checked-in scripts/bench_baseline.json with a
20% tolerance and fails on regressions.  Metrics whose name starts with
"wall_" are host wall-clock measurements: recorded in the trajectory
files for trend inspection, never gated (CI machines are noisy).

Usage:
  bench_report.py [--build-dir build] [--preset ci|full]
                  [--check] [--update-baseline] [--out-dir .]

Presets select the synthetic workload scale via TS_BENCH_SCALE: "ci"
shrinks scans to ~20% so the whole suite runs in about a minute; "full"
uses the benches' native scales.  Baselines are stored per preset.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

BENCHES = {
    "fig13": "bench_fig13_mapping",
    "fig14": "bench_fig14_throughput",
    "fig16": "bench_fig16_map_cache",
    "fig17": "bench_fig17_sharding",
    "fig18": "bench_fig18_priority",
    "fig19": "bench_fig19_fleet",
    "fig20": "bench_fig20_warm_start",
    "fig21": "bench_fig21_faults",
    "fig22": "bench_fig22_multimodel",
}
PRESET_SCALE = {"ci": "0.2", "full": ""}
TOLERANCE = 0.20
METRIC_RE = re.compile(r"^@metric (\S+) (\S+)$", re.MULTILINE)


def run_bench(binary, scale):
    env = dict(os.environ)
    if scale:
        env["TS_BENCH_SCALE"] = scale
    elif "TS_BENCH_SCALE" in env:
        del env["TS_BENCH_SCALE"]
    start = time.monotonic()
    proc = subprocess.run(
        [binary], env=env, capture_output=True, text=True, timeout=3600
    )
    wall = time.monotonic() - start
    metrics = {m: float(v) for m, v in METRIC_RE.findall(proc.stdout)}
    return {
        "exit_code": proc.returncode,
        "wall_seconds": round(wall, 3),
        "metrics": metrics,
        "tail": proc.stdout.strip().splitlines()[-8:],
    }


def gated(metrics):
    """Modeled (deterministic) metrics only — wall_* is never gated."""
    return {k: v for k, v in metrics.items() if not k.startswith("wall_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--preset", choices=sorted(PRESET_SCALE), default="ci")
    ap.add_argument("--check", action="store_true",
                    help="fail on >%d%% modeled regression vs baseline"
                         % int(TOLERANCE * 100))
    ap.add_argument("--update-baseline", action="store_true")
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = os.path.join(repo, "scripts", "bench_baseline.json")
    scale = PRESET_SCALE[args.preset]

    os.makedirs(args.out_dir, exist_ok=True)
    results = {}
    failures = []
    for fig, target in BENCHES.items():
        binary = os.path.join(args.build_dir, target)
        if not os.path.exists(binary):
            failures.append(f"{fig}: binary {binary} not built")
            continue
        print(f"== {fig}: {binary} (preset={args.preset}) ==", flush=True)
        res = run_bench(binary, scale)
        res["preset"] = args.preset
        results[fig] = res
        out_path = os.path.join(args.out_dir, f"BENCH_{fig}.json")
        with open(out_path, "w") as f:
            json.dump(res, f, indent=2, sort_keys=True)
        print(f"   {len(res['metrics'])} metrics -> {out_path} "
              f"(exit {res['exit_code']}, {res['wall_seconds']}s)")
        if res["exit_code"] != 0:
            failures.append(
                f"{fig}: exited {res['exit_code']} (sanity anchor failed?)\n"
                + "\n".join("      " + l for l in res["tail"]))

    if args.update_baseline:
        baseline = {}
        if os.path.exists(baseline_path):
            with open(baseline_path) as f:
                baseline = json.load(f)
        baseline[args.preset] = {
            fig: gated(res["metrics"]) for fig, res in results.items()
        }
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {baseline_path}")

    if args.check:
        if not os.path.exists(baseline_path):
            failures.append(f"no baseline at {baseline_path} "
                            "(run with --update-baseline first)")
        else:
            with open(baseline_path) as f:
                baseline = json.load(f).get(args.preset, {})
            for fig, expected in baseline.items():
                got = results.get(fig, {}).get("metrics", {})
                for name, base_val in expected.items():
                    if name not in got:
                        failures.append(f"{fig}.{name}: metric missing")
                        continue
                    val = got[name]
                    denom = max(abs(base_val), 1e-12)
                    rel = abs(val - base_val) / denom
                    if rel > TOLERANCE:
                        failures.append(
                            f"{fig}.{name}: {val:.6g} vs baseline "
                            f"{base_val:.6g} ({rel * 100:.1f}% > "
                            f"{TOLERANCE * 100:.0f}%)")
            print("regression check: %d metrics compared"
                  % sum(len(v) for v in baseline.values()))

    if failures:
        print("\nFAILURES:")
        for f in failures:
            print(" - " + f)
        return 1
    print("bench report OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
