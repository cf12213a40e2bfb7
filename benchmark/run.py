#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 benchmark/run.py --workload qcd_halo|gtc_pic|service_jobs \
        --seed N --seconds S --trace 0|1

Builds the `ledger` program from source (CMake, Release, into .bench_build/
at the repository root), refuses hosts with fewer cores than the workload
needs (exit 3), measures set-up time in several short launches, runs the
workload for --seconds (split over several processes; the rate is then the
mean across them, every other metric the median), and prints the
host record and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. See benchmark/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "benchmark"
BUILD = ROOT / ".bench_build"
PROGRAM = BUILD / "ledger"

# Threads each workload keeps busy: 4 rank workers; 1 rank + 3 helpers;
# 2 lanes x 2 ranks.
THREADS = {"qcd_halo": 4, "gtc_pic": 4, "service_jobs": 4}

# Processes the measured --seconds are split over; each metric is the median
# across them. A workload's rate depends on where the scheduler happens to
# place a process's rank, helper and lane threads, so one process is one
# sample. Each process still holds at least 400 steps or 3,000 phase B jobs
# at 30 s: two or more blocks for the p95.
PROCESSES = {"qcd_halo": 5, "gtc_pic": 3, "service_jobs": 9}

# Set-up time is the median over this many extra set-up-only launches plus
# the measuring launches themselves.
SETUP_LAUNCHES = 8

EXIT_USAGE = 2
EXIT_HOST_TOO_SMALL = 3


def fail(message, code=EXIT_USAGE):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build the program; compiler output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources to build: {ROOT / 'src'} is missing")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", PROGRAM.name]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def launch(args, timeout):
    """Run the program once; returns its JSON report (its last stdout line).

    VPAR_* variables are dropped so that every run uses the program's
    defaults: in-process transport, hybrid mode Auto, no pinning."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VPAR_")}
    t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, the program's steady clock
    try:
        proc = subprocess.run([str(PROGRAM), *args, "--t0-ns", str(t0)], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"ledger {' '.join(args)} did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"ledger {' '.join(args)} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    # The program writes a non-finite number as null.
    for name, metric in report["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fail(f"ledger {' '.join(args)} reported {name} as {metric['value']}")
    if not isinstance(report["setup_s"], (int, float)):
        fail(f"ledger {' '.join(args)} reported setup_s as {report['setup_s']}")
    return report


def source_identity():
    """The commit when run from a git checkout, else a hash of src/."""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10)
            if commit.returncode == 0:
                return {"commit": commit.stdout.strip()}
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": "unknown", "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small problem sizes (the benchmark's own tests)")
    parser.add_argument("--break-reference", action="store_true",
                        help="perturb the pinned references so checks fail")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in THREADS:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    cores = len(os.sched_getaffinity(0))
    if cores < THREADS[args.workload]:
        fail(f"{args.workload} keeps {THREADS[args.workload]} threads busy; "
             f"this host offers {cores} cores", EXIT_HOST_TOO_SMALL)

    build()

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    setup = [launch([*common, "--seconds", "1", "--trace", "0", "--setup-only"],
                    timeout=60)["setup_s"] for _ in range(SETUP_LAUNCHES)]
    processes = PROCESSES[args.workload]
    seconds = args.seconds / processes
    measured = [*common, "--seconds", repr(seconds), "--trace", str(args.trace)]
    if args.break_reference:
        measured.append("--break-reference")
    reports = [launch(measured, timeout=seconds + 100) for _ in range(processes)]
    setup += [r["setup_s"] for r in reports]

    # A process's rate falls into one of a few modes set by thread placement,
    # and the median of a mix of modes jumps between them, so the rate is the
    # mean across processes. Every other metric is the median across them.
    def across(name):
        samples = [r["metrics"][name]["value"] for r in reports]
        if name == "throughput_per_s":
            return statistics.fmean(samples)
        return statistics.median(samples)

    values = {name: {"value": across(name), "unit": metric["unit"]}
              for name, metric in reports[0]["metrics"].items()}
    values["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            fail(f"ledger did not report {name}")
        if values[name]["unit"] != metric["unit"]:
            fail(f"ledger reports {name} in {values[name]['unit']}, "
                 f"BENCHMARK.json says {metric['unit']}")
        metrics[name] = values[name]

    host = {"cores": cores, **source_identity(), **reports[0]["host"]}
    print(json.dumps({"workload": args.workload, "host": host,
                      "failed_frac": failed / max(1, attempted),
                      "setup_samples_s": setup, "failures": failures,
                      "detail": [r["detail"] for r in reports]}))
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
