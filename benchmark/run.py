#!/usr/bin/env python3
"""Served-query benchmark: builds pinocchio_server and the load driver, then
measures one workload (or all of them) through freshly booted servers.

    python3 benchmark/run.py --workload mix --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --seed=1          # every workload, traced

Prints every metric by name with its unit, writes the full result (with
provenance) under build-bench/results/, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. A wrong answer exits 1 and prints no metrics. See
benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
WORK = BUILD / "work"
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; returns the binaries."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured from another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(build_log, "w") as out:
        steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=Release", *generator],
                 ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "bench_driver", "pinocchio_server"]]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(f"build failed: {' '.join(step)}; see {build_log}")
                log(build_log.read_text()[-3000:])
                return None
    return BUILD / "bench_driver", BUILD / "pinocchio" / "tools" / "pinocchio_server"


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_driver(binaries, workload, seed, seconds, trace):
    """Runs bench_driver in its own process group and kills what it leaves."""
    driver, server = binaries
    out = WORK / f"{workload}-result.json"
    out.unlink(missing_ok=True)
    cmd = [str(driver), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--server={server}",
           f"--workdir={WORK}", f"--out={out}",
           f"--trace_out={BUILD / f'trace-{workload}.jsonl'}"]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not out.exists():
        reason = "timeout" if code is None else f"exit {code}"
        log(f"{workload}: bench_driver failed ({reason})")
        return None
    return json.loads(out.read_text())


def check_metrics(result, spec):
    """Every metric BENCHMARK.json names must be present with its unit."""
    sections = ["end_to_end"] + (["per_layer"] if result["trace"] else [])
    for section in sections:
        for metric in spec[section]:
            got = result[section].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                log(f"{result['workload']}: metric {metric['name']} missing or not in {metric['unit']}")
                return False
    return True


def print_result(result):
    prov = result["provenance"]
    detail = result["detail"]
    print(f"== {result['workload']} (seed {result['seed']}, {result['seconds']:g} s): "
          f"{prov['objects']:g} objects / {prov['candidates']:g} candidates, "
          f"{result['attempted']:g} attempted, {result['failed']:g} failed, "
          f"{detail['achieved_rps']:.1f} req/s achieved")
    for section in ("end_to_end", "per_layer"):
        for name, m in result[section].items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    limit = detail["limit_ms"]
    if limit > 0:
        print(f"  latency limit: p99 of {detail['limit_on']} {detail['limit_p99_ms']:.3f} ms "
              f"<= {limit:g} ms: {'met' if detail['limit_met'] else 'MISSED'}")
    if detail["backlog_flagged"]:
        print(f"  WARNING: queue wait grew {detail['backlog_growth']:.2f}x over the run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--results-dir", type=Path, default=BUILD / "results")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log(f"missing {spec_path}")
        return 1
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        return 2
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds or spec["run_seconds"]

    binaries = build()
    if binaries is None:
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    args.results_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for workload in workloads:
        started = time.time()
        result = run_driver(binaries, workload, args.seed, seconds, args.trace)
        if result is None or not check_metrics(result, spec):
            return 1
        result["provenance"].update(machine())
        result["provenance"]["pino_sha256"] = sha256(WORK / f"{workload}.pino")
        result["started_at"] = started
        (args.results_dir / f"{workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n")
        print_result(result)
        results.append(result)

    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    if len(results) == 1:
        metrics = {n: results[0][section][n] for n in wanted}
    else:
        metrics = {f"{r['workload']}/{n}": r[section][n] for r in results for n in wanted}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
