#!/usr/bin/env python3
"""Build the parcfl benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is its own CMake package
(perfbench/CMakeLists.txt) that compiles the library from src/; it is built
into .bench_build/ on first use. Each run first generates its inputs from the
seed in a separate process (so neither set-up time nor peak memory includes
input generation), then runs the workload, whose last stdout line is the
result JSON. Traces of --trace 1 runs are kept in .bench_build/traces/.
Exits non-zero, printing no result, when the build or any step fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("batch", "serve", "churn")
RUN_TIMEOUT_S = 170
# Extra set-ups, each in its own process, whose CPU times join the run's own
# in the setup_s median.
SETUP_PROCESSES = 4


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 1
        return subprocess.run(
            [binary, os.path.join(ROOT, "BENCHMARK.json")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    if binary is None:
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", WORK]
    inputs = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    try:
        gen = subprocess.run([binary, "gen"] + common, stdout=sys.stderr,
                             timeout=RUN_TIMEOUT_S)
        if gen.returncode != 0:
            return 1
        samples = []
        for _ in range(SETUP_PROCESSES):
            setup = subprocess.run([binary, "setup"] + common,
                                   stdout=subprocess.PIPE, text=True,
                                   timeout=RUN_TIMEOUT_S)
            if setup.returncode != 0:
                return 1
            samples.append(setup.stdout.strip())
        run = subprocess.run(
            [binary, "run"] + common +
            ["--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--setup-samples", ",".join(samples)],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 1
    finally:
        trace = os.path.join(inputs, "trace.jsonl")
        if os.path.exists(trace):
            os.makedirs(TRACES, exist_ok=True)
            shutil.move(trace, os.path.join(
                TRACES, "%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(inputs, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    # 1: the run finished but an answer check failed; the result says so.
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
