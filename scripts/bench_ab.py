#!/usr/bin/env python3
"""Same-runner A/B timing gate: a parent source tree against a change tree.

    python3 scripts/bench_ab.py PARENT_TREE CHANGE_TREE

Builds both trees side by side and alternates their runs on this machine,
so every timing is judged against the other side's runs on the same
runner, taken alongside, never against a checked-in number:

  * benchmark/run.py --trace 0 on every workload, one pair per workload
    and seed 1..PAIRS, the two runs of a pair back to back and the first
    side alternating from seed to seed, judged by benchmark/compare.py;
    each side's median per-op p50 is printed after it, not gated, so a
    p50_ms move can be traced to the op that sets it;
  * RUNS runs a side of each JSONL bench: bench_micro's BM_Validation*
    rungs, bench_query_families, bench_streaming_ingest (scale 0.05) and
    bench_ablation_parallel. Each rung's seconds are judged by
    compare.py's verdict() under one BOUND. Rungs above thread budget 1
    are printed but not gated: host phases dominate their variance, and
    the efficiency floor covers scaling. BM_StreamIngest/delta's best-lag
    p99 is printed beside its seconds as both sides' medians, not gated.

Two self-relative floors are read from the change's runs: the SIMD
filter's median speedup over the scalar reference on BM_ValidationSimd/780,
and the median parallel efficiency of BM_ParallelScaling/PIN/4 (skipped
below 4 cores; PIN-VO/4's median is printed beside it, ungated).

Every bench checks its own answers (SIMD against scalar decisions,
bit-identity across thread budgets, the streamed window against a
from-scratch solve) and exits nonzero on a mismatch, which fails the gate.
Each tree keeps its build and its runs under build-ab/ (run.py builds
build-bench/). Exits 1 when a build or bench fails, anything regressed, a
gated rung is missing from the change, or a floor is missed; else 0.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ under benchmark/
sys.path.insert(0, str(ROOT / "benchmark"))
import compare  # noqa: E402  (its verdict() judges every rung)

PAIRS = 3
RUNS = 7
BOUND = 0.20
# target -> (arguments, environment). bench_micro's google-benchmark table
# is not gated; an empty filter skips it, and the validation comparison
# that writes the JSONL runs after it regardless.
BENCHES = {
    "bench_micro": (["--benchmark_filter=^$"], {}),
    "bench_query_families": ([], {}),
    "bench_streaming_ingest": ([], {"PINOCCHIO_BENCH_SCALE": "0.05"}),
    "bench_ablation_parallel": ([], {}),
}
SIMD_RUNG, SIMD_FLOOR = "BM_ValidationSimd/780", 2.0
EFFICIENCY_RUNG, EFFICIENCY_FLOOR = "BM_ParallelScaling/PIN/4", 0.75
EFFICIENCY_SHOWN = "BM_ParallelScaling/PINVO/4"


def build(tree):
    """Configures and builds the gated benches into tree/build-ab."""
    out = tree / "build-ab"
    out.mkdir(exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "-S", tree, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
              "-DPINOCCHIO_BUILD_TESTS=OFF", "-DPINOCCHIO_BUILD_EXAMPLES=OFF",
              *generator],
             ["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
              "--target", *BENCHES]]
    with open(out / "build.log", "w") as log:
        ok = all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode == 0
                 for step in steps)
    if not ok:
        report_failure(f"build failed in {tree}", out / "build.log")
    return ok


def report_failure(what, log_path):
    print(f"{what}; last lines of {log_path}:")
    print("\n".join(Path(log_path).read_text().splitlines()[-20:]))


def run_bench(tree, target, run):
    """One run of `target`; returns {rung name: JSONL entry}, or None."""
    args, env = BENCHES[target]
    runs = tree / "build-ab" / "runs"
    jsonl = runs / f"{target}-{run}.jsonl"
    with open(runs / f"{target}-{run}.log", "w") as log:
        code = subprocess.run(
            [tree / "build-ab" / "bench" / target, *args], stdout=log,
            stderr=subprocess.STDOUT,
            env={**os.environ, **env, "PINOCCHIO_BENCH_JSON": str(jsonl)}).returncode
    if code != 0 or not jsonl.exists():
        report_failure(f"{target} failed in {tree} (exit {code})", log.name)
        return None
    rungs = {}
    for line in jsonl.read_text().splitlines():
        entry = json.loads(line)
        if "name" in entry:
            rungs[entry["name"]] = entry
    return rungs


def benchmark_pairs(trees):
    """PAIRS alternating pairs of benchmark/run.py, judged by compare.py.

    A pair runs one workload on both sides back to back, so host phases
    that last minutes (this is what moves the thread-budget numbers) hit
    both runs of a pair alike. Returns compare.py's exit code, or None
    when a run failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for seed in range(1, PAIRS + 1):
        for workload in workloads:
            for tree in (trees if seed % 2 else trees[::-1]):
                runs = tree / "build-ab" / "runs"
                with open(runs / f"{workload}-s{seed}.log", "w") as log:
                    code = subprocess.run(
                        [sys.executable, tree / "benchmark" / "run.py",
                         "--workload", workload, "--seed", str(seed), "--trace",
                         "0", "--results-dir", runs / "results"],
                        stdout=log, stderr=subprocess.STDOUT).returncode
                if code != 0:
                    report_failure(f"benchmark/run.py --workload {workload} "
                                   f"--seed {seed} failed in {tree}", log.name)
                    return None
    code = subprocess.run(
        [sys.executable, ROOT / "benchmark" / "compare.py",
         *(tree / "build-ab" / "runs" / "results" for tree in trees)]).returncode
    print_per_op(trees, workloads)
    return code


def print_per_op(trees, workloads):
    """Prints each side's median of every op's p50 (detail.per_op.<op>.p50_ms)
    per workload over the pairs. Not gated."""
    sides = [compare.load(tree / "build-ab" / "runs" / "results") for tree in trees]
    print("== per-op p50_ms, medians over the pairs (not gated)")
    print(f"  {'workload/op':<24} {'A (ms)':>10} {'B (ms)':>10}")
    for workload in workloads:
        # per_op[side] = the detail.per_op object of each of its runs
        per_op = [[run["detail"]["per_op"] for (name, _, _), run in side.items()
                   if name == workload] for side in sides]
        for op in sorted({op for runs in per_op for run in runs for op in run}):
            cells = []
            for runs in per_op:
                values = [run[op]["p50_ms"] for run in runs if op in run]
                cells.append(f"{statistics.median(values):.4g}" if values else "-")
            print(f"  {workload + '/' + op:<24} {cells[0]:>10} {cells[1]:>10}")


def median_of(runs, name, field):
    values = [run[name][field] for run in runs if name in run]
    return statistics.median(values) if values else None


def milliseconds(quartiles):
    return "/".join(f"{x * 1e3:.4g}" for x in quartiles)


def main():
    sys.stdout.reconfigure(line_buffering=True)  # interleave with compare.py
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1])
        return 2
    trees = [Path(arg).resolve() for arg in sys.argv[1:]]
    if trees[0] == trees[1] or not all((t / "benchmark" / "run.py").exists() for t in trees):
        print("need two different source trees, each with benchmark/run.py")
        return 2
    for tree in trees:
        shutil.rmtree(tree / "build-ab" / "runs", ignore_errors=True)
        if not build(tree):
            return 1
        (tree / "build-ab" / "runs").mkdir()

    failures = []
    code = benchmark_pairs(trees)
    if code is None:
        return 1
    if code != 0:
        failures.append("benchmark/compare.py: "
                        + ("regressed" if code == 1 else "refused to compare"))

    # rungs[side][run] = {name: entry}; the first side alternates run to run.
    rungs = [[{} for _ in range(RUNS)] for _ in trees]
    for run in range(RUNS):
        for target in BENCHES:
            for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                got = run_bench(trees[side], target, run)
                if got is None:
                    return 1
                rungs[side][run].update(got)

    parent, change = rungs
    print(f"== JSONL rungs: {RUNS} runs a side, bound {BOUND:.2f}; "
          "rungs above budget 1 are not gated")
    print(f"  {'rung':<30} {'A q1/med/q3 (ms)':>26} {'B q1/med/q3 (ms)':>26}"
          f" {'wins':>6} {'spread':>7} {'worse':>7}  verdict")
    metric = {"bound": BOUND, "better": "lower"}
    for name in sorted(set(parent[0]) | set(change[0])):
        if not all(name in run for run in change):
            failures.append(f"{name}: missing from a run of the change")
            continue
        if not all(name in run for run in parent):
            print(f"  {name:<30} new in the change, not judged")
            continue
        a = [run[name]["seconds"] for run in parent]
        b = [run[name]["seconds"] for run in change]
        kind, qa, qb, wins, spread, worse = compare.verdict(metric, a, b)
        if change[0][name].get("threads", 1) > 1:
            kind = f"({kind}, not gated)"
        elif kind == "regressed":
            failures.append(f"{name}: median {worse:+.1%}")
        print(f"  {name:<30} {milliseconds(qa):>26} {milliseconds(qb):>26}"
              f" {wins:>3}/{RUNS:<2} {spread:>7.3f} {worse:>+7.3f}  {kind}")
        if name == "BM_StreamIngest/delta":
            # Not gated: a change to the delta path may trade the stream's
            # per-observation tail against the slice's total time.
            lag = [median_of(side, name, "best_lag_p99_seconds") * 1e6
                   for side in (parent, change)]
            print(f"  {'':<30} best_lag_p99_seconds medians (us): "
                  f"A {lag[0]:.4g}, B {lag[1]:.4g} (not gated)")

    print("== floors, medians of the change's runs")
    speedup = median_of(change, SIMD_RUNG, "speedup_vs_scalar")
    ok = speedup is not None and speedup >= SIMD_FLOOR
    print(f"  {SIMD_RUNG} speedup over scalar: {speedup} "
          f"(floor {SIMD_FLOOR}, tier {change[0].get(SIMD_RUNG, {}).get('tier')})"
          f" [{'ok' if ok else 'FAIL'}]")
    if not ok:
        failures.append(f"{SIMD_RUNG} speedup {speedup} below {SIMD_FLOOR}")
    cores = change[0].get(EFFICIENCY_RUNG, {}).get("hardware_concurrency", 0)
    efficiency = median_of(change, EFFICIENCY_RUNG, "efficiency")
    shown = median_of(change, EFFICIENCY_SHOWN, "efficiency")
    if cores < 4:
        verdict = f"skipped: {cores} cores"
    elif efficiency is not None and efficiency >= EFFICIENCY_FLOOR:
        verdict = "ok"
    else:
        verdict = "FAIL"
        failures.append(f"{EFFICIENCY_RUNG} efficiency {efficiency} below "
                        f"{EFFICIENCY_FLOOR}")
    print(f"  {EFFICIENCY_RUNG} parallel efficiency: {efficiency} "
          f"(floor {EFFICIENCY_FLOOR}) [{verdict}]; "
          f"{EFFICIENCY_SHOWN}: {shown} (not gated)")

    if failures:
        print("bench A/B FAILED:\n" + "\n".join(f"  - {f}" for f in failures))
        return 1
    print("bench A/B passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
