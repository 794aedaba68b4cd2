#!/usr/bin/env python3
"""Builds the FeReX benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload offline_knn --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build/perfbench (later calls only re-run the incremental build).
The benchmark binary prints a human-readable report and, as its last
line, one JSON object with the keys correct/attempted/failed/metrics.
Build output goes to stderr so stdout stays the report. The exit code is
the benchmark's own, or non-zero when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ferex_perfbench")
WORKLOADS = ("offline_knn", "online_circuit", "online_churn")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    # Scratch state (WAL directories) lives in a per-run directory inside
    # the checkout and is removed afterwards; traces are kept.
    work_dir = os.path.join(
        BUILD_ROOT, "perfbench-work",
        f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_file = os.path.join(
        BUILD_ROOT, "perfbench-traces",
        f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--trace-file", trace_file]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
