#!/usr/bin/env python3
"""Run one benchmark workload of the symphase workspace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the repository root. Builds the `perfbench` harness from source
(release, offline; target directory `$CARGO_TARGET_DIR`, default
`.bench_build`), generates the workload's inputs from the seed into
`.bench_work/`, measures them for S seconds, and prints a host stamp line
and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` metrics named in
BENCHMARK.json, with `--trace 1` the `per_layer` ones. Exits non-zero
without printing a result when the build, the run, or the result's shape
fails. `--toy` shrinks every size (used by selftest.py).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["deep_random", "serve_mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, capture):
    """Runs cmd in its own process group, killing the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stdin=subprocess.DEVNULL,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} {cmd[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return out


def source_digest(root):
    """git rev when available, else a SHA-256 over the sources the build reads."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "sha256:" + h.hexdigest()[:16]


def rustc_version():
    try:
        return subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "Cargo.toml")):
        fail("run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    os.environ["CARGO_TARGET_DIR"] = target
    run_checked(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        BUILD_TIMEOUT_S,
        capture=False,
    )
    exe = os.path.join(target, "release", "perfbench")

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        gen = [exe, "gen", "--workload", args.workload, "--seed", str(args.seed), "--out", work]
        run_checked(gen + (["--toy"] if args.toy else []), RUN_TIMEOUT_S, capture=False)
        out = run_checked(
            [exe, "run", "--inputs", work, "--seconds", str(args.seconds), "--trace", args.trace],
            RUN_TIMEOUT_S,
            capture=True,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.strip().splitlines()
    if len(lines) < 2 or not lines[0].startswith("host "):
        fail(f"unexpected harness output: {out!r}")
    host = json.loads(lines[0][len("host "):])
    result = json.loads(lines[-1])
    want = expected_metrics(root, args.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        fail(f"malformed result {result}")
    host.update(
        workload=args.workload,
        seed=args.seed,
        rustc=rustc_version(),
        source=source_digest(root),
        nproc=os.cpu_count(),
    )
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
