#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed baseline and fail on
regressions.

Both files are arrays of rows as written by bench/json_out.hpp:

    {"bench": ..., "n": ..., "samples": ..., "ns_per_section": ..., "speedup": ...}

Rows are keyed by (bench, n, samples). The compared quantity is the
*speedup* column — each bench's ratio against its own same-run scalar
baseline — because absolute ns/section depends on the recording machine
while the ratio is what the kernels actually promise. A cell regresses
when

    current_speedup < baseline_speedup * (1 - threshold)

Only keys present in both files are compared (a `--quick` CI run covers
a subset of the committed full grid); pass --require-all to also fail on
baseline keys missing from the current run. --current accepts several
files: each cell takes its best speedup across them, so CI can gate on
best-of-N quick runs and a single noisy run (CI runners are shared
machines) cannot fail the build on its own. Exit codes: 0 clean, 1
regression (or missing keys under --require-all), 2 usage/IO error.

Stdlib only — runs anywhere CI has a python3.
"""

from __future__ import annotations

import argparse
import json
import sys

# Largest allowed --scaling ratio: ns/unit at the large size over the
# small size. A linear loader reads ~1.0-1.2; a quadratic lookup ~3.
MAX_SCALING_RATIO = 1.5


def parse_rows(data, path, field="speedup"):
    """Returns {(bench, n, samples): row[field]} from decoded bench JSON.

    Malformed rows raise ValueError naming the row and the field — a
    truncated or hand-edited baseline must fail with a usable message,
    not a KeyError traceback.
    """
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of bench rows")
    cells = {}
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        for name in ("bench", "n", "samples", field):
            if name not in row:
                raise ValueError(f"{path}: row {i} is missing field '{name}'")
        try:
            key = (row["bench"], int(row["n"]), int(row["samples"]))
            value = float(row[field])
        except (TypeError, ValueError) as err:
            raise ValueError(f"{path}: row {i} has a non-numeric field: {err}") from None
        if key in cells:
            raise ValueError(f"{path}: duplicate row key {key}")
        cells[key] = value
    return cells


def load_rows(path, field="speedup"):
    """Returns {(bench, n, samples): row[field]} from a bench JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_rows(data, path, field)


def scaling_ratio(ns_cells, bench, small_n, large_n, path):
    """ns_per_section at large_n over small_n for one run's rows of `bench`.

    Raises ValueError naming the run when either size is missing or the
    small-size cost is not positive.
    """
    costs = {n: ns for (b, n, _), ns in ns_cells.items() if b == bench}
    for n in (small_n, large_n):
        if n not in costs:
            raise ValueError(f"{path}: no '{bench}' row at n={n}")
    if costs[small_n] <= 0.0:
        raise ValueError(f"{path}: '{bench}' at n={small_n} has a non-positive cost")
    return costs[large_n] / costs[small_n]


def check_scaling(ratios, bench, small_n, large_n, max_ratio=MAX_SCALING_RATIO):
    """Returns (ok, report line) for the best (lowest) of several runs' ratios."""
    best = min(ratios)
    runs = ", ".join(f"{r:.3g}" for r in ratios)
    line = (
        f"{bench}: ns/unit at n={large_n} over n={small_n} = {best:.3g} "
        f"(best of [{runs}]), allowed <= {max_ratio:.3g}"
    )
    return best <= max_ratio, line


def merge_best(cell_maps):
    """Per-cell best speedup across several runs of the same bench."""
    merged = {}
    for cells in cell_maps:
        for key, speedup in cells.items():
            if key not in merged or speedup > merged[key]:
                merged[key] = speedup
    return merged


def compare(baseline, current, threshold, require_all=False):
    """Returns (regressions, missing): lists of human-readable cell reports.

    `regressions` lists cells whose current speedup fell more than
    `threshold` (fractional) below the baseline; `missing` lists baseline
    keys absent from the current run (fatal only under require_all);
    `extra` names current cells with no baseline (informational: the grid
    grew, or a bench was renamed — never a traceback, never fatal).
    """
    regressions = []
    missing = []
    extra = [
        f"{key[0]} @ n={key[1]} S={key[2]}" for key in sorted(current) if key not in baseline
    ]
    for key in sorted(baseline):
        if key not in current:
            missing.append(f"{key[0]} @ n={key[1]} S={key[2]}")
            continue
        want = baseline[key]
        got = current[key]
        if got < want * (1.0 - threshold):
            regressions.append(
                f"{key[0]} @ n={key[1]} S={key[2]}: speedup {got:.3g} vs "
                f"baseline {want:.3g} ({(1.0 - got / want) * 100.0:.1f}% drop, "
                f"allowed {threshold * 100.0:.0f}%)"
            )
    if not require_all:
        missing = []
    return regressions, missing, extra


def delta_report(baseline, current):
    """One line per compared cell with the signed speedup delta.

    Printed whole when the gate fails, so triage sees every cell's
    movement at one glance — a 16% drop next to seven 1% wiggles reads
    very differently from a 16% drop next to seven 14% drops.
    """
    lines = []
    for key in sorted(baseline):
        if key not in current:
            continue
        want = baseline[key]
        got = current[key]
        pct = (got / want - 1.0) * 100.0
        lines.append(
            f"{key[0]} @ n={key[1]} S={key[2]}: speedup {got:.3g} vs {want:.3g} ({pct:+.1f}%)"
        )
    return lines


def self_test():
    base = {("k", 255, 256): 4.0, ("k", 1023, 256): 3.0, ("k", 16383, 256): 2.0}
    # Within threshold: 10% drop on one cell, improvement on another.
    ok = {("k", 255, 256): 3.6, ("k", 1023, 256): 3.5, ("k", 16383, 256): 2.0}
    regs, miss, _ = compare(base, ok, 0.15)
    assert regs == [] and miss == [], (regs, miss)
    # Beyond threshold: 20% drop must be reported for exactly that cell.
    bad = dict(ok)
    bad[("k", 1023, 256)] = 3.0 * 0.8
    regs, _, _ = compare(base, bad, 0.15)
    assert len(regs) == 1 and "n=1023" in regs[0], regs
    # Boundary: a drop of exactly the threshold is allowed.
    edge = {k: v * 0.85 for k, v in base.items()}
    regs, _, _ = compare(base, edge, 0.15)
    assert regs == [], regs
    # Subset runs pass by default, fail under require_all.
    subset = {("k", 255, 256): 4.0}
    regs, miss, _ = compare(base, subset, 0.15)
    assert regs == [] and miss == []
    _, miss, _ = compare(base, subset, 0.15, require_all=True)
    assert len(miss) == 2, miss
    # Extra keys in the current run never fail, but are named.
    grown = dict(base)
    grown[("k", 65535, 256)] = 1.5
    regs, miss, extra = compare(base, grown, 0.15, require_all=True)
    assert regs == [] and miss == []
    assert extra == ["k @ n=65535 S=256"], extra
    # Best-of-N: one noisy run is rescued by a clean sibling; a cell bad
    # in every run still fails.
    merged = merge_best([bad, ok])
    regs, _, _ = compare(base, merged, 0.15)
    assert regs == [], regs
    all_bad = merge_best([bad, dict(bad)])
    regs, _, _ = compare(base, all_bad, 0.15)
    assert len(regs) == 1, regs
    # The failure-mode delta report covers every compared cell with a
    # signed percentage, skipping cells absent from the current run.
    deltas = delta_report(base, subset)
    assert len(deltas) == 1 and "+0.0%" in deltas[0], deltas
    deltas = delta_report(base, bad)
    assert len(deltas) == 3, deltas
    assert any("-20.0%" in line for line in deltas), deltas
    assert any("-10.0%" in line for line in deltas), deltas
    # Malformed rows fail with the row index and field named, no KeyError.
    try:
        parse_rows([{"bench": "k", "n": 255, "samples": 256}], "f.json")
        raise AssertionError("missing field accepted")
    except ValueError as err:
        assert "row 0" in str(err) and "'speedup'" in str(err), err
    try:
        parse_rows([{"bench": "k", "n": "x", "samples": 256, "speedup": 2.0}], "f.json")
        raise AssertionError("non-numeric field accepted")
    except ValueError as err:
        assert "row 0" in str(err) and "non-numeric" in str(err), err
    try:
        parse_rows(["not-a-row"], "f.json")
        raise AssertionError("non-object row accepted")
    except ValueError as err:
        assert "row 0 is not an object" in str(err), err
    # Scaling cells: the ratio comes from one run's rows; the best run is
    # gated, a missing size is a usage error, and the bound is inclusive.
    linear = {("load", 2000, 1): 10.0, ("load", 16000, 1): 12.0, ("other", 2000, 1): 1.0}
    quadratic = {("load", 2000, 1): 10.0, ("load", 16000, 1): 80.0}
    assert abs(scaling_ratio(linear, "load", 2000, 16000, "a") - 1.2) < 1e-12
    ok, line = check_scaling([1.2], "load", 2000, 16000, 1.5)
    assert ok and "1.2" in line and "n=16000" in line, line
    q = scaling_ratio(quadratic, "load", 2000, 16000, "b")
    ok, line = check_scaling([q], "load", 2000, 16000, 1.5)
    assert not ok and "8" in line, line
    ok, _ = check_scaling([q, 1.2], "load", 2000, 16000, 1.5)
    assert ok
    ok, _ = check_scaling([1.5], "load", 2000, 16000, 1.5)
    assert ok
    try:
        scaling_ratio({("load", 2000, 1): 10.0}, "load", 2000, 16000, "c.json")
        raise AssertionError("missing scaling cell accepted")
    except ValueError as err:
        assert "c.json" in str(err) and "n=16000" in str(err), err
    try:
        parse_rows([{"bench": "k", "n": 2, "samples": 1, "speedup": 1.0}], "f.json",
                   "ns_per_section")
        raise AssertionError("missing ns_per_section accepted")
    except ValueError as err:
        assert "'ns_per_section'" in str(err), err
    print("bench_regress: self-test ok")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed bench JSON (e.g. BENCH_batched.json)")
    parser.add_argument(
        "--current",
        nargs="+",
        help="freshly produced bench JSON(s); each cell takes its best speedup across them",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional speedup drop per cell (default 0.15)",
    )
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="also fail when baseline cells are missing from the current run",
    )
    parser.add_argument(
        "--scaling",
        nargs=3,
        metavar=("BENCH", "SMALL_N", "LARGE_N"),
        help=(
            f"gate ns/unit at LARGE_N over SMALL_N for BENCH in --current "
            f"(no baseline; allowed <= {MAX_SCALING_RATIO})"
        ),
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run the built-in comparator checks and exit"
    )
    args = parser.parse_args(argv)

    if args.self_test:
        self_test()
        return 0
    if args.scaling:
        if not args.current:
            parser.error("--scaling needs --current")
        bench = args.scaling[0]
        try:
            small_n, large_n = int(args.scaling[1]), int(args.scaling[2])
        except ValueError:
            parser.error("--scaling sizes must be integers")
        try:
            ratios = [
                scaling_ratio(load_rows(p, "ns_per_section"), bench, small_n, large_n, p)
                for p in args.current
            ]
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"bench_regress: {err}", file=sys.stderr)
            return 2
        ok, line = check_scaling(ratios, bench, small_n, large_n)
        print(f"{'SCALING  ' if ok else 'REGRESSED'} {line}")
        return 0 if ok else 1
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or use --self-test)")
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")

    try:
        baseline = load_rows(args.baseline)
        current = merge_best([load_rows(p) for p in args.current])
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"bench_regress: {err}", file=sys.stderr)
        return 2

    regressions, missing, extra = compare(baseline, current, args.threshold, args.require_all)
    compared = sum(1 for k in baseline if k in current)
    for line in extra:
        print(f"EXTRA     {line}  (no baseline cell; not compared)")
    for line in missing:
        print(f"MISSING   {line}")
    for line in regressions:
        print(f"REGRESSED {line}")
    if regressions or missing:
        # Full per-cell picture on failure: one DELTA line per compared
        # cell, not just the cells that tripped the threshold.
        for line in delta_report(baseline, current):
            print(f"DELTA     {line}")
        print(
            f"bench_regress: {len(regressions)} regression(s), {len(missing)} missing "
            f"cell(s) out of {compared} compared"
        )
        return 1
    print(f"bench_regress: clean ({compared} cells within {args.threshold * 100.0:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
