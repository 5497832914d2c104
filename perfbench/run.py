#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload pipeline-twitter --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library and the driver from source
into $CARGO_TARGET_DIR (default .bench_build) on first use, generates the
workload's inputs from --seed, measures for --seconds, checks every answer,
and prints an info line plus one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the run's spans under the build directory). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = 4
DRIVER_TIMEOUT_S = 170
WORKLOADS = ["pipeline-twitter", "serve-updates"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the driver; build output goes to stderr."""
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(BUILD_JOBS)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench_driver")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=int, default=0, help="0: workload default")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="smoke test: corrupt one expected output")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(build_dir)
    data_dir = os.path.join(build_dir, "data")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir,
               "--spans-out", os.path.join(trace_dir, "%s-%d.spans.jsonl" % (args.workload, args.seed))]
    if args.scale > 0:
        command += ["--scale", str(args.scale)]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if run.returncode != 0:
        fail("driver exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("driver metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
