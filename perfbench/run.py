#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload diverse-cr40k --seed 1 --seconds 12 --trace 0

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs only rebuild what changed. The benchmark's
last stdout line is the result object, keeping the metrics BENCHMARK.json
names for the mode: end_to_end with --trace 0, per_layer with --trace 1.
With --trace 1 the recorded spans are also written to
.bench_build/perfbench/spans/. Build output goes to stderr. The exit code
is non-zero when the build fails, a verdict disagrees with linear search,
or a metric could not be measured.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(BUILD, "perfbench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        measured = {}
    if set(measured) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in measured["metrics"]]
    if missing:
        print(f"perfbench: not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = dict(measured, metrics={n: measured["metrics"][n] for n in names})
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if run.returncode != 0 or not result["correct"]:
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
