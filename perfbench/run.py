#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload engine-sweep --seed 1 --seconds 12 --trace 0

The build goes to perfbench-<hash of this source tree's path> under
$CARGO_TARGET_DIR (relative paths resolve against the repository root), or
under .bench_build when it is unset, so two checkouts that share one
CARGO_TARGET_DIR never build each other's sources. Span dumps of traced
runs go to <build dir>/traces. The benchmark's report goes to stdout; its
last line is one JSON object with the keys correct, attempted, failed and
metrics. Before printing it, this script checks the metric names and units
against BENCHMARK.json; in a traced run it gives each per-layer metric its
unit from there and fills the ones the workload does not exercise with 0.
Exit codes: 0 success, 1 a failed operation or correctness check, 2 a
build or run error, 3 a result that does not match BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = d if os.path.isabs(d) else os.path.join(ROOT, d)
    tree = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:16]
    return os.path.join(d, "perfbench-" + tree)


def build(bdir):
    """Configures once, then builds incrementally; returns the binary."""
    # Compiler temporaries stay inside the build directory.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(bdir, "perfbench")


def check_result(result, trace):
    """Exactly the contract's keys, and every metric of the run's kind
    with the unit BENCHMARK.json gives it. A traced run's per-layer
    metrics come without units; they get theirs here, and the ones the
    workload does not set read 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = result["metrics"]
    extra = sorted(set(got) - set(expected))
    if extra:
        return "metrics not in BENCHMARK.json: %s" % extra
    if trace:
        result["metrics"] = {name: {"value": got[name]["value"] if name in got
                                    else 0, "unit": unit}
                             for name, unit in expected.items()}
        return None
    missing = sorted(set(expected) - set(got))
    wrong = sorted(k for k in got if got[k].get("unit") != expected[k])
    if missing or wrong:
        return "metrics differ from BENCHMARK.json: missing %s, wrong " \
               "unit %s" % (missing, wrong)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed with exit code %d" % proc.returncode,
              file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    problem = check_result(result, args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: %s" % problem, file=sys.stderr)
        return 3
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
