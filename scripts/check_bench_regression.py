#!/usr/bin/env python3
"""Gate bench_micro results against a checked-in baseline.

bench_micro appends JSON lines to $PINOCCHIO_BENCH_JSON; the validation
rungs carry google-benchmark-style names ("BM_ValidationSimd/780",
"seconds": ...). This script compares a fresh JSONL against
bench/baselines/bench-baseline.jsonl and fails (exit 1) when

  * a pinned benchmark name present in the baseline is missing from the
    fresh run (a silently-dropped measurement must not pass), or
  * a pinned benchmark's wall time regressed by more than --max-regression
    (default 1.25, i.e. >25% slower than the baseline), or
  * the SIMD filter's speedup over the full-scan scalar reference on the
    n=780 case (machine-independent, taken from the fresh run's own
    "speedup_vs_scalar" field) fell below --min-simd-speedup (default 2.0),
    or
  * with --min-parallel-efficiency set, the morsel engine's parallel
    efficiency (speedup / threads, from the fresh run's own "efficiency"
    field on BM_ParallelScaling/PIN/<--parallel-threads>) fell below the
    floor. The gate self-skips when the fresh run's recorded
    "hardware_concurrency" is below --parallel-threads: a 1-core runner
    cannot demonstrate 4-way scaling and must not fail for it.

Only names matching --filter (default "BM_Validation") are pinned; other
lines ride along in the artifact but are not gated. Regenerate the
baseline after an intentional perf change with --write-baseline.

Usage:
  scripts/check_bench_regression.py --fresh bench-kernel.jsonl
  scripts/check_bench_regression.py --fresh bench-kernel.jsonl --write-baseline
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / \
    "baselines" / "bench-baseline.jsonl"


def load_named_entries(path, name_filter):
    """Returns {name: entry-dict} for JSONL lines with a matching "name"."""
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as error:
                print(f"{path}:{line_number}: unparseable JSON line: {error}",
                      file=sys.stderr)
                sys.exit(2)
            name = entry.get("name")
            if isinstance(name, str) and name.startswith(name_filter):
                # Last occurrence wins: reruns append to the same file.
                entries[name] = entry
    return entries


def main():
    parser = argparse.ArgumentParser(
        description="Compare bench_micro JSONL output against the baseline.")
    parser.add_argument("--fresh", required=True,
                        help="JSONL produced by the current bench run")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="checked-in baseline JSONL")
    parser.add_argument("--filter", default="BM_Validation",
                        help="gate only names with this prefix")
    parser.add_argument("--max-regression", type=float, default=1.25,
                        help="fail when fresh/baseline exceeds this ratio")
    parser.add_argument("--min-simd-speedup", type=float, default=2.0,
                        help="required BM_ValidationSimd/780 speedup over "
                             "the scalar reference (0 disables)")
    parser.add_argument("--min-parallel-efficiency", type=float, default=0.0,
                        help="required parallel efficiency (speedup/threads) "
                             "on BM_ParallelScaling/PIN at --parallel-threads "
                             "(0 disables; skipped when the runner has fewer "
                             "cores than --parallel-threads)")
    parser.add_argument("--parallel-threads", type=int, default=4,
                        help="thread rung the efficiency floor applies to")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from the fresh run "
                             "instead of gating")
    args = parser.parse_args()

    fresh = load_named_entries(args.fresh, args.filter)
    if not fresh:
        print(f"no '{args.filter}*' entries in {args.fresh}; "
              "did bench_micro run with PINOCCHIO_BENCH_JSON set?",
              file=sys.stderr)
        return 1

    if args.write_baseline:
        baseline_path = Path(args.baseline)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        with open(baseline_path, "w", encoding="utf-8") as handle:
            for name in sorted(fresh):
                handle.write(json.dumps(fresh[name], sort_keys=True) + "\n")
        print(f"wrote {len(fresh)} entries to {baseline_path}")
        return 0

    baseline = load_named_entries(args.baseline, args.filter)
    if not baseline:
        print(f"no '{args.filter}*' entries in baseline {args.baseline}",
              file=sys.stderr)
        return 1

    failures = []
    for name in sorted(baseline):
        base_seconds = baseline[name].get("seconds")
        if not isinstance(base_seconds, (int, float)) or base_seconds <= 0:
            continue
        entry = fresh.get(name)
        if entry is None:
            failures.append(f"{name}: present in baseline but missing from "
                            "the fresh run")
            continue
        fresh_seconds = entry.get("seconds")
        if not isinstance(fresh_seconds, (int, float)) or fresh_seconds <= 0:
            failures.append(f"{name}: fresh entry has no usable 'seconds'")
            continue
        ratio = fresh_seconds / base_seconds
        verdict = "FAIL" if ratio > args.max_regression else "ok"
        print(f"  {name}: baseline {base_seconds:.6g}s fresh "
              f"{fresh_seconds:.6g}s ratio {ratio:.2f} [{verdict}]")
        if ratio > args.max_regression:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"(limit {args.max_regression:.2f}x)")

    if args.min_simd_speedup > 0:
        simd = fresh.get("BM_ValidationSimd/780")
        if simd is None:
            failures.append("BM_ValidationSimd/780 missing from the fresh "
                            "run; cannot verify the SIMD speedup floor")
        else:
            speedup = simd.get("speedup_vs_scalar")
            if not isinstance(speedup, (int, float)):
                failures.append("BM_ValidationSimd/780 carries no "
                                "'speedup_vs_scalar' field")
            else:
                tier = simd.get("tier", "?")
                verdict = "ok" if speedup >= args.min_simd_speedup else "FAIL"
                print(f"  BM_ValidationSimd/780: {speedup:.1f}x over the "
                      f"scalar reference (tier {tier}) [{verdict}]")
                if speedup < args.min_simd_speedup:
                    failures.append(
                        f"BM_ValidationSimd/780 speedup {speedup:.2f}x below "
                        f"the {args.min_simd_speedup:.2f}x floor")

    if args.min_parallel_efficiency > 0:
        name = f"BM_ParallelScaling/PIN/{args.parallel_threads}"
        entry = fresh.get(name)
        if entry is None:
            failures.append(f"{name} missing from the fresh run; cannot "
                            "verify the parallel efficiency floor")
        else:
            hardware = entry.get("hardware_concurrency")
            efficiency = entry.get("efficiency")
            if isinstance(hardware, (int, float)) and \
                    hardware < args.parallel_threads:
                print(f"  {name}: runner has {hardware:.0f} cores < "
                      f"{args.parallel_threads} threads; efficiency gate "
                      "skipped")
            elif not isinstance(efficiency, (int, float)):
                failures.append(f"{name} carries no 'efficiency' field")
            else:
                verdict = "ok" if efficiency >= args.min_parallel_efficiency \
                    else "FAIL"
                print(f"  {name}: parallel efficiency {efficiency:.2f} "
                      f"(floor {args.min_parallel_efficiency:.2f}) "
                      f"[{verdict}]")
                if efficiency < args.min_parallel_efficiency:
                    failures.append(
                        f"{name} efficiency {efficiency:.2f} below the "
                        f"{args.min_parallel_efficiency:.2f} floor")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print("(after an intentional perf change, regenerate with "
              "--write-baseline)", file=sys.stderr)
        return 1
    print("bench regression gate passed "
          f"({len(baseline)} pinned benchmarks).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
