#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout; build output goes to a log there and is
shown on stderr only when the build fails. The last line of standard output
is the benchmark's JSON result. With --trace 1 the spans of the run are
written to <build>/spans/<workload>-<seed>.jsonl.

--self-test builds, runs the unit tests, checks that every printed metric
name and unit matches BENCHMARK.json (on short runs of every workload, both
trace modes), and checks that signoff's per-design WNS/TNS repeat exactly
across two runs with one seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "-j4", "--target", "perfbench", "perfbench_tests"]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-20000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                sys.exit(3)
    return out


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4, ""
    return p.returncode, p.stdout


def check(cond, what):
    if not cond:
        sys.stderr.write("self-test FAILED: %s\n" % what)
        sys.exit(1)


def self_test(out):
    binary = os.path.join(out, "perfbench")
    check(subprocess.run([os.path.join(out, "perfbench_tests")]).returncode == 0, "unit tests")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    rc, listed = run_binary(binary, ["--list-metrics"])
    check(rc == 0, "--list-metrics")
    listed_sets = {"0": {}, "1": {}}
    for line in listed.splitlines():
        kind, name, unit = line.split()
        listed_sets["0" if kind == "end_to_end" else "1"][name] = unit
    check(listed_sets == expected, "metric table == BENCHMARK.json: %s" % listed_sets)

    for w in spec["workloads"]:
        for trace in ("0", "1"):
            rc, stdout = run_binary(binary, ["--workload", w["name"], "--seed", "7",
                                             "--seconds", "0.5", "--trace", trace,
                                             "--nets", "512"])
            check(rc == 0, "%s trace %s exit code %d" % (w["name"], trace, rc))
            result = json.loads(stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s result keys" % w["name"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], "%s trace %s printed metrics" % (w["name"], trace))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %s outputs correct" % (w["name"], trace))
            print("ok  %-12s trace %s  %d metrics" % (w["name"], trace, len(got)))

    digests = []
    for _ in range(2):
        p = subprocess.run([binary, "--workload", "signoff", "--seed", "11", "--seconds", "0.5",
                            "--trace", "0", "--nets", "512"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        check(p.returncode == 0, "signoff digest run")
        digests.append([l for l in p.stderr.splitlines() if l.startswith("digest")][:2])
    check(len(digests[0]) == 2 and digests[0] == digests[1],
          "signoff WNS/TNS repeat across runs: %s" % digests)
    print("ok  signoff WNS/TNS repeat exactly across runs")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    out = build()
    if args.self_test:
        self_test(out)
        return 0

    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    rc, stdout = run_binary(os.path.join(out, "perfbench"), cmd)
    sys.stdout.write(stdout)
    return rc


if __name__ == "__main__":
    sys.exit(main())
