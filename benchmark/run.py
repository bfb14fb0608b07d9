#!/usr/bin/env python3
"""End-to-end TPC-H benchmark of the RAPID engine.

Run from the repository root:

    python3 benchmark/run.py --workload tpch_scan --seed 1 --seconds 10 --trace 0

The first call builds the engine and the driver from source into
$CARGO_TARGET_DIR (default: .bench_build) with CMake; later calls only
check that the build is current. The driver's own statistics test
runs before every measurement. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"};
build output and progress go to standard error. See benchmark/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch_scan", "tpch_join", "htap_refresh")


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    steps.append([os.path.join(bdir, "stats_test")])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited with {done.returncode}")


def commit_id():
    # A checkout that is not a git repository reports "unknown" rather
    # than the commit of an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    build(bdir)

    cmd = [os.path.join(bdir, "rapid_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id()]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"driver exited with {done.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed a malformed result")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
