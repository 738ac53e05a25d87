#!/usr/bin/env python3
"""Runs alternating benchmark pairs of a parent and a change checkout.

    scripts/bench_pairs.py --parent ../parent --change . \\
        --workload local --seeds 1,2,3 --pairs 10
    scripts/bench_pairs.py --selftest

Every run lasts BENCHMARK.json's run_seconds. Each side's perfbench binary
is built by its own perfbench/run.py, into <build-root>/parent and
<build-root>/change (CARGO_TARGET_DIR). Pair i runs seed
seeds[i % len(seeds)] on both sides, parent first on even pairs and change
first on odd ones. For every metric BENCHMARK.json declares for the
chosen --trace mode the script prints both sides' medians and quartiles and
the pairs the change won (ties count for neither side). An end-to-end
metric also gets its bound and a verdict:

  unresolved     the parent's quartile spread, relative to its median, is
                 wider than the bound, and not every change run beats
                 every parent run;
  beyond bound   the change's median is worse than the parent's by more
                 than the bound;
  within bound   otherwise.

It then says whether each pair agreed on correct, attempted and failed;
--raw-out keeps every run's result object. Nothing under perfbench/ or in
BENCHMARK.json is written. The exit status is 1 when a run fails (run.py
exits non-zero or prints no result).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTCOME_KEYS = ("correct", "attempted", "failed")


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """Whether value `a` is strictly better than `b`."""
    return a > b if direction == "higher" else a < b


def wins(parent, change, direction):
    """Pairs in which the change's value beats the parent's."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def verdict(parent, change, direction, bound):
    """The no-regression verdict for one end-to-end metric."""
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    scale = abs(pmed)
    spread = (p3 - p1) / scale if scale else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    worse = (cmed - pmed) if direction == "lower" else (pmed - cmed)
    if worse > bound * scale:
        return "beyond bound"
    return "within bound"


def load_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], spec["run_seconds"]


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    """One perfbench run; returns its result object or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def report(metrics, runs):
    """Prints the per-metric table; returns the outcome mismatches."""
    print(f"{'metric':<32} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'bound':>6}  verdict")
    n = len(runs["parent"])
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        bound = m.get("bound")
        line = (f"{name:<32} {pm:>14.6g} [{p1:.6g}, {p3:.6g}]".ljust(67) +
                f" {cm:>14.6g} [{c1:.6g}, {c3:.6g}]".ljust(35) +
                f" {wins(parent, change, m['better']):>3}/{n:<2}")
        if bound is not None:
            line += f" {bound:>6}  {verdict(parent, change, m['better'], bound)}"
        print(line)
    mismatches = []
    for i, (p, c) in enumerate(zip(runs["parent"], runs["change"])):
        for key in OUTCOME_KEYS:
            if p[key] != c[key]:
                mismatches.append(f"pair {i}: {key} {p[key]} -> {c[key]}")
    return mismatches


def selftest():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert wins([1, 2, 3], [0, 2, 4], "lower") == 1
    assert wins([1, 2, 3], [0, 2, 4], "higher") == 1
    tight = [10.0, 10.1, 10.2, 10.3, 10.4]
    # Lower is better: +5% is inside a 0.1 bound, +20% is beyond it.
    assert verdict(tight, [x * 1.05 for x in tight], "lower", 0.1) == \
        "within bound"
    assert verdict(tight, [x * 1.2 for x in tight], "lower", 0.1) == \
        "beyond bound"
    # Higher is better: a 20% drop is beyond the bound, a rise is not.
    assert verdict(tight, [x * 0.8 for x in tight], "higher", 0.1) == \
        "beyond bound"
    assert verdict(tight, [x * 1.2 for x in tight], "higher", 0.1) == \
        "within bound"
    # The parent spreads over 50% of its median: no verdict either way...
    wide = [4.0, 4.5, 5.0, 6.0, 7.0]
    assert verdict(wide, [5.0] * 5, "lower", 0.25) == "unresolved"
    assert verdict(wide, [20.0] * 5, "lower", 0.25) == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(wide, [1.0, 2.0, 3.0], "lower", 0.25) == "within bound"
    assert verdict([0.0, 0.0], [0.0, 0.0], "lower", 0.1) == "within bound"
    x = {"x": {"value": 1.0, "unit": "ms"}}
    runs = {"parent": [{"correct": True, "attempted": 10, "failed": 0,
                        "metrics": x}] * 2,
            "change": [{"correct": True, "attempted": 10, "failed": 0,
                        "metrics": x},
                       {"correct": True, "attempted": 11, "failed": 0,
                        "metrics": x}]}
    metric = [{"name": "x", "better": "lower", "bound": 0.1}]
    assert report(metric, runs) == ["pair 1: attempted 10 -> 11"]
    print("selftest OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true",
                    help="check the statistics on canned values and exit")
    ap.add_argument("--parent", help="parent checkout")
    ap.add_argument("--change", help="change checkout")
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-root", default=".bench_pairs",
                    help="holds the parent/ and change/ perfbench builds")
    ap.add_argument("--raw-out",
                    help="also write every run's result object here (JSON)")
    args = ap.parse_args()
    if args.selftest:
        selftest()
        return 0
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")

    metrics, seconds = load_spec(args.trace)
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    builds = {side: os.path.abspath(os.path.join(args.build_root, side))
              for side in sides}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], builds[side], args.workload, seed,
                              seconds, args.trace)
            if result is None:
                print(f"pair {i}: the {side} run (seed {seed}) failed",
                      file=sys.stderr)
                return 1
            runs[side].append(result)
        print(f"pair {i} done (seed {seed}, {order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seeds}, "
          f"{seconds:g} s, trace {args.trace}")
    if args.raw_out:
        with open(args.raw_out, "w") as f:
            json.dump(runs, f, indent=1)
    mismatches = report(metrics, runs)
    if mismatches:
        print("correct/attempted/failed differ:")
        for m in mismatches:
            print("  " + m)
    else:
        print("correct/attempted/failed match in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
