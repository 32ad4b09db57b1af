#!/usr/bin/env python3
"""Builds the TReX benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ieee_cold_era --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build tree is .bench_build/perfbench in the checkout (configured on
the first run, an incremental no-op afterwards). The benchmark binary
prints progress on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics. Without the
repository's sources next to perfbench/ the build fails and this script
exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed the answer checks corrupted answers and "
                             "exit 0 only if every one is rejected")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required (or --selftest)")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    return subprocess.call(command, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
