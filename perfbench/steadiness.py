#!/usr/bin/env python3
"""Steadiness check: runs every workload several times with distinct seeds.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1000] [--holdout 99991]

For each end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against the
metric's bound from BENCHMARK.json, and whether the spread is under a third of
the bound. One traced run per workload then prints trace.overhead and
trace.unattributed_share. --holdout runs one more seed, never used while the
benchmark was tuned, and prints how far each of its metrics lies from the
median, against the bound. Run from the root of a checkout; exits non-zero
when a run fails or reports incorrect outputs, or when a spread is not under
a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d trace %d (exit %d)" % (workload, seed, trace,
                                                                p.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect outputs: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--holdout", type=int)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    steady = True
    for w in names:
        values = {m: [] for m in bounds}
        for i in range(args.runs):
            got = run(w, args.seed_base + i, seconds, 0)
            for m in bounds:
                values[m].append(got[m])
        print("%s (%d runs, seeds %d..%d)" % (w, args.runs, args.seed_base,
                                              args.seed_base + args.runs - 1))
        print("  %-18s %14s %14s %14s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread",
                                                     "bound", "verdict"))
        medians = {}
        for m, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            medians[m] = med
            if spread < bounds[m] / 3:
                verdict = "ok (< bound/3)"
            elif spread <= bounds[m]:
                verdict = "within bound, not < bound/3"
                steady = False
            else:
                verdict = "UNSTEADY"
                steady = False
            print("  %-18s %14.6g %14.6g %14.6g %8.4f %6.2f  %s" % (m, med, q1, q3, spread,
                                                                   bounds[m], verdict))
        traced = run(w, args.seed_base, seconds, 1)
        print("  trace.overhead = %.4f   trace.unattributed_share = %.4f" %
              (traced["trace.overhead"], traced["trace.unattributed_share"]))
        if args.holdout is not None:
            held = run(w, args.holdout, seconds, 0)
            for m in bounds:
                rel = held[m] / medians[m] - 1.0
                print("  holdout seed %d %-18s %14.6g  %+7.2f%% of median  %s" %
                      (args.holdout, m, held[m], 100 * rel,
                       "within bound" if abs(rel) <= bounds[m] else "OUTSIDE bound"))
        sys.stdout.flush()
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
