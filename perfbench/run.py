#!/usr/bin/env python3
"""Build the arl benchmark runner from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The runner (perfbench/runner, built by perfbench/CMakeLists.txt) is
configured and compiled under $CARGO_TARGET_DIR (default .bench_build)
on first use; later runs only re-check the build.  Build output goes
to stderr, so the last line of stdout is the runner's result object.
--self-test builds and runs the benchmark's own unit tests.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A runner process must end within this many seconds (the build excluded).
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(target):
    out = build_dir()
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_tests" if args.self_test
                       else "perfbench_runner")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([binary]).returncode

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests"),
           "--work-dir", os.path.join(build_dir(), "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
