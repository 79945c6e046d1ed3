#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 rtbench/run.py --workload mc_video|rtxen_scale|video_churn \
        --seed N --seconds S --trace 0|1

Configures and builds rtbench/CMakeLists.txt (the simulator libraries from
src/ plus the benchmark program) into .bench_build/rtbench, then runs the
program. The program's report goes to standard output and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Exits non-zero, without a result line, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "rtbench")
BINARY = os.path.join(BUILD_DIR, "rtbench")
WORKLOADS = ("mc_video", "rtxen_scale", "video_churn")
# The program itself stops starting simulations after 120 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(targets=("rtbench",)):
    """Configures (once) and builds `targets`; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"rtbench: build step failed: {err}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"rtbench: build step exited {result.returncode}: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"rtbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
