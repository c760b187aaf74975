#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

Two subcommands:

  run     Runs alternating pairs of one workload on two checkouts (each a
          directory holding the benchmark) and appends one JSON line per
          run to <out>-parent.jsonl and <out>-change.jsonl:

            python3 perfbench/compare.py run --parent ../parent \\
                --change . --workload engine-sweep --pairs 10 --out cmp

          Pair i uses seed --seed0 + i; the parent runs first in even
          pairs and the change runs first in odd ones. Each side builds
          its own sources: run.py keys the build directory by the
          source tree, also when both share one CARGO_TARGET_DIR.

  report  Applies the gain and regression rules to two result sets:

            python3 perfbench/compare.py report cmp-parent.jsonl cmp-change.jsonl

The rules:
  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side), the medians differ by more than the
              parent's interquartile range, and at least 10 pairs ran;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound and not every change run beats every parent run;
  no-worse    otherwise.
Per-layer metrics have no bound, so they are only marked improved or
"-". A change that fails more operations than the parent gets no
"improved" verdict.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    if not last.startswith("{"):
        raise RuntimeError("%s: %s seed %d produced no result (exit %d)"
                           % (checkout, workload, seed, proc.returncode))
    return json.loads(last)


def cmd_run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    outs = {side: open("%s-%s.jsonl" % (args.out, side), "a")
            for side in ("parent", "change")}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            res = run_one(checkout, args.workload, seed, seconds, args.trace)
            outs[side].write(json.dumps({
                "workload": args.workload, "pair": i, "seed": seed,
                "first": order[0] == side, "trace": args.trace,
                "result": res}) + "\n")
            outs[side].flush()
            print("pair %d seed %d %s done (correct=%s)"
                  % (i, seed, side, res["correct"]), file=sys.stderr)
    for f in outs.values():
        f.close()
    return 0


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                rows[(r["workload"], r["trace"], r["pair"])] = r["result"]
    return rows


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(parent, change, better, bound):
    """parent/change: values of matched pairs, in pair order."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    iqr = pq3 - pq1
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and sign * (cmed - pmed) > iqr):
        return wins, "improved"
    if bound is None:
        return wins, "-"
    spread = iqr / abs(pmed) if pmed else float("inf")
    if spread > bound and not all_better:
        return wins, "unresolved"
    if pmed and sign * (cmed - pmed) < -bound * abs(pmed):
        return wins, "worse"
    return wins, "no-worse"


def cmd_report(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    groups = {}
    for k in keys:
        groups.setdefault(k[:2], []).append(k)
    for (workload, trace), ks in sorted(groups.items()):
        p_fail = sum(parent[k]["failed"] for k in ks)
        c_fail = sum(change[k]["failed"] for k in ks)
        print("\n%s (%s, %d pairs; failed operations: parent %d, change %d)"
              % (workload, "traced" if trace else "untraced", len(ks),
                 p_fail, c_fail))
        print("  %-34s %-32s %-32s %6s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        names = [n for n in parent[ks[0]]["metrics"] if n in defs]
        for name in names:
            pv = [parent[k]["metrics"][name]["value"] for k in ks]
            cv = [change[k]["metrics"][name]["value"] for k in ks]
            better, bound = defs[name]
            wins, v = verdict(pv, cv, better, bound)
            if v == "improved" and c_fail > p_fail:
                v = "not counted (more failures)"
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            print("  %-34s %-32s %-32s %6s  %s" % (
                name, "%.5g [%.5g, %.5g]" % (pmed, pq1, pq3),
                "%.5g [%.5g, %.5g]" % (cmed, cq1, cq3),
                "%d/%d" % (wins, len(ks)), v))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
