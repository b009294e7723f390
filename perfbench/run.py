#!/usr/bin/env python3
"""Builds and runs the host wall-clock join benchmark (perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hpja_resident --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and compiles the system's libraries and the
benchmark program (Release) under $CARGO_TARGET_DIR, default .bench_build;
later calls rebuild incrementally. The benchmark's report goes to standard
output; its last line is the JSON result object. Build output goes to
standard error.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
# The run length the bounds in BENCHMARK.json were set on; the benchmark
# program itself requires --seconds.
DEFAULT_SECONDS = 20
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_call(cmd, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir, target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("system sources (src/) not found; run from the repository root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", "perfbench", "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    check_call(["cmake", "--build", build_dir, "--target", target, "-j", "4"],
               timeout=850)
    return os.path.join(build_dir, target)


def run_benchmark(args, build_root):
    binary = build(os.path.join(build_root, "perfbench"), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_root, "perfbench-out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark failed with exit code {proc.returncode}: {lines[-1]}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last output line is not JSON: {lines[-1]!r}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    sys.stdout.write(proc.stdout)
    return 0


def self_test(build_root):
    # The benchmark's own build tree; runs build only its perfbench target.
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir, "perfbench_test")
    check_call(["ctest", "--test-dir", build_dir, "--output-on-failure"],
               timeout=120)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["hpja_resident", "nonhpja_sortmerge",
                                 "nu_overflow"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if args.self_test:
        return self_test(build_root)
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args, build_root)


if __name__ == "__main__":
    sys.exit(main())
