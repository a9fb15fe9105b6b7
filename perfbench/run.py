#!/usr/bin/env python3
"""End-to-end benchmark of the rtlf simulator.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe from source (release profile, build directory
.bench_build), runs one workload and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics from a separate traced run. See NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
REFERENCE = os.path.join("perfbench", "reference.txt")
WORKLOADS = ["figures", "overload_n100", "churn_n1000"]
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--build-dir", BUILD_DIR, "--cache=disabled", "perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [EXE, "trace" if args.trace else "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--reference", REFERENCE]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.exit("perfbench: main.exe exited with %d" % run.returncode)

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    differ = expected_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        sys.exit("perfbench: metric names differ from BENCHMARK.json: %s"
                 % sorted(differ))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
