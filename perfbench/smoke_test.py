#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a small scale.

    python3 perfbench/smoke_test.py

Run from the repository root. For each workload, an untraced and a traced run
must print every metric BENCHMARK.json names, with its unit, and report no
failures. A run with one corrupted expected output must report failed > 0.
Exits non-zero on the first violation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL_SCALE = {"pipeline-twitter": 14, "serve-updates": 12}
SECONDS = 2


def run(workload, trace, corrupt=False):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", str(SECONDS), "--trace", str(trace),
               "--scale", str(SMALL_SCALE[workload])]
    if corrupt:
        command.append("--corrupt-expected")
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited with %d" % (workload, trace, out.returncode))
    lines = out.stdout.strip().splitlines()
    if not lines[-2].startswith("# info"):
        raise AssertionError("%s: no info line before the result" % workload)
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in SMALL_SCALE:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, "%s trace=%d metrics differ: %s" % (
                workload, trace, sorted(set(got.items()) ^ set(want.items())))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, (
                "%s trace=%d: %s" % (workload, trace, {k: result[k] for k in ("correct", "attempted", "failed")}))
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), (
                    "%s: an end-to-end metric is not positive" % workload)
        corrupted = run(workload, 0, corrupt=True)
        assert corrupted["failed"] > 0 and not corrupted["correct"], (
            "%s: a corrupted expected output did not raise failed_frac" % workload)
        print("ok %s (failed_frac with corrupted expectation: %.4f)"
              % (workload, corrupted["failed"] / corrupted["attempted"]))
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
