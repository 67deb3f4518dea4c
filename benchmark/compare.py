#!/usr/bin/env python3
"""Compares two sets of benchmark results, A (the parent) and B (the change).

    python3 benchmark/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result files written by run.py
(<workload>-s<seed>-t<trace>.json); runs of A and B with the same workload,
seed and trace form a pair. Make the pairs by running both sides on seeds
1..10 or more, alternating which side runs first (README.md shows a loop).

For every workload and end-to-end metric of BENCHMARK.json it reports each
side's median and quartiles and one verdict:
  regressed   B's median is worse than A's by more than the metric's bound;
  unresolved  a side's run-to-run spread (quartile distance over median)
              exceeds the bound, and not every run of B beats every run of A;
  improved    B wins at least 9 of 10 pairs, its median differs by more than
              A's quartile distance, and there are at least 10 pairs;
  unchanged   otherwise.
B also regresses when more of its requests failed than A's.

Refuses (exit 2) to compare runs whose input hash or machine differ; exits
1 when anything regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "cpu_model", "simd_tier", "hardware_concurrency")
MIN_PAIRS_FOR_GAIN = 10


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-s*-t*.json")):
        result = json.loads(path.read_text())
        key = (result["workload"], int(result["seed"]), int(result["trace"]))
        runs[key] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, a, b):
    """a, b: paired values, one per seed."""
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins = sum(better(y, x) for x, y in zip(a, b))
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = all(better(y, x) for x in a for y in b)
    if worse > bound:
        kind = "regressed"
    elif spread > bound and not all_better:
        kind = "unresolved"
    elif (len(a) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(a)
          and abs(b_med - a_med) > a_q3 - a_q1):
        kind = "improved"
    else:
        kind = "unchanged"
    return kind, (a_q1, a_med, a_q3), (b_q1, b_med, b_q3), wins, spread, worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="results of the parent")
    parser.add_argument("b", type=Path, help="results of the change")
    args = parser.parse_args()
    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    runs_a, runs_b = load(args.a), load(args.b)
    keys = sorted(set(runs_a) & set(runs_b))
    if not keys:
        print("no paired runs (same workload, seed and trace) in both sets")
        return 2

    for key in keys:
        pa, pb = runs_a[key]["provenance"], runs_b[key]["provenance"]
        if pa["pino_sha256"] != pb["pino_sha256"]:
            print(f"refusing: {key} ran on different inputs")
            return 2
        differ = [k for k in MACHINE_KEYS if pa.get(k) != pb.get(k)]
        if differ:
            print(f"refusing: {key} ran on different machines ({', '.join(differ)})")
            return 2

    regressed = False
    for workload in sorted({k[0] for k in keys}):
        pairs = [k for k in keys if k[0] == workload and k[2] == 0] or \
                [k for k in keys if k[0] == workload]
        # Alternation: the side that started first should switch pair to pair.
        firsts = [runs_a[k]["started_at"] < runs_b[k]["started_at"] for k in pairs]
        alternating = all(x != y for x, y in zip(firsts, firsts[1:]))
        failed_a = sum(int(runs_a[k]["failed"]) for k in pairs)
        failed_b = sum(int(runs_b[k]["failed"]) for k in pairs)
        print(f"== {workload}: {len(pairs)} pairs"
              f"{'' if alternating else ' (NOT alternating: order effects unchecked)'}"
              f"{'' if len(pairs) >= MIN_PAIRS_FOR_GAIN else f'; under {MIN_PAIRS_FOR_GAIN}, no gain can be claimed'}"
              f"; failed {failed_a} -> {failed_b}")
        if failed_b > failed_a:
            print("  regressed: more requests failed")
            regressed = True
        print(f"  {'metric':<16} {'bound':>6} {'A q1/med/q3':>32} {'B q1/med/q3':>32}"
              f" {'wins':>6} {'spread':>7} {'worse':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [runs_a[k]["end_to_end"][name]["value"] for k in pairs]
            b = [runs_b[k]["end_to_end"][name]["value"] for k in pairs]
            kind, qa, qb, wins, spread, worse = verdict(metric, a, b)
            regressed |= kind == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"  {name:<16} {metric['bound']:>6.2f} {fmt(qa):>32} {fmt(qb):>32}"
                  f" {wins:>3}/{len(pairs):<2} {spread:>7.3f} {worse:>+7.3f}  {kind}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
