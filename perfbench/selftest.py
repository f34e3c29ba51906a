#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload of BENCHMARK.json at toy
size, untraced and traced, and asserts that each run exits 0, emits exactly
the metrics BENCHMARK.json names with their units, and has no failed
correctness check (`failed == 0`, and `failed_frac == 0` when traced).
Takes about a minute after the harness is built.
"""

import json
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, group in [("0", "end_to_end"), ("1", "per_layer")]:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--toy",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in bench[group]}
            if got != want:
                problems.append(f"{label}: metrics {got} != {want}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed checks")
            if trace == "1" and result["metrics"]["failed_frac"]["value"] != 0:
                problems.append(f"{label}: failed_frac != 0")
            print(f"ok  {label}: {result['attempted']} checks", flush=True)
    for p in problems:
        print("FAIL " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
