#!/usr/bin/env python3
"""Build origin_bench from this checkout's sources, then run one workload.

Run from the root of the repository:

    python3 originbench/run.py --workload hot --seed 1 --seconds 30 --trace 0
    python3 originbench/run.py --self-test

The build lands in .bench_build/originbench (a Release build of src/ plus the
benchmark). Build output goes to stderr, so the last line of stdout is the
benchmark's result line.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "originbench")
BINARY = os.path.join(BUILD, "origin_bench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("originbench: no src/CMakeLists.txt beside originbench/; "
                 "run from a full checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "origin_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"originbench: build step failed: {' '.join(step)}")


def main():
    build()
    try:
        result = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"originbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
