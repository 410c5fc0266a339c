#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload superopt --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The first call configures
perfbench/CMakeLists.txt into .bench_build/ and builds the rmiopt library
plus the driver; later calls only re-check that build.  The driver's
stdout is passed through: one "name value unit" line per metric, then the
result as one JSON object on the last line.  A traced run (--trace 1) also
writes its spans to .bench_build/spans/<workload>.csv.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("superopt", "webserver_bulk", "compile")
# The driver stops measuring after --seconds plus at most one iteration.
RUN_TIMEOUT_S = 175


def build():
    for need in ("src/CMakeLists.txt", "examples/miniparty"):
        if not (ROOT / need).exists():
            sys.exit(f"run.py: {need} is missing under {ROOT}; "
                     "run from the root of a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rmibench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return BUILD / "rmibench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sources", str(ROOT / "examples" / "miniparty")]
    if args.trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"run.py: rmibench exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: rmibench printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
