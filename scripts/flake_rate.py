#!/usr/bin/env python3
"""Counts how often scheduling-sensitive gtest cases fail on two builds.

    python3 scripts/flake_rate.py OLD_BUILD NEW_BUILD \\
        --test Lu.Table3Shape --test AppConfig.PipeliningReducesTimePerPage \\
        [--runs 300] [--busy 3]

Each build tree must hold a built tests/rmiopt_tests.  For every named
test the two builds take turns, one batch of 50 runs at a time
(--gtest_repeat), until each has run the test --runs times, so a slow
phase of a shared host hits both sides alike.  With --busy K, K busy
loops spin beside the tests for the whole measurement, which makes the
races these tests are sensitive to more frequent.  The script prints the
failures of each test on each side, with the range over batches; it
exits 1 if a batch crashed (a run that reported neither OK nor FAILED).
"""
import argparse
import re
import subprocess
import sys
from pathlib import Path

BATCH = 50  # runs per batch


def run_batch(binary, test, repeat):
    """Runs `test` `repeat` times; returns (passed, failed)."""
    done = subprocess.run(
        [str(binary), f"--gtest_filter={test}", f"--gtest_repeat={repeat}",
         "--gtest_brief=0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    name = re.escape(test)
    passed = len(re.findall(rf"^\[       OK \] {name} \(", done.stdout, re.M))
    failed = len(re.findall(rf"^\[  FAILED  \] {name} \(", done.stdout, re.M))
    return passed, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("builds", nargs=2, metavar="BUILD",
                    help="build trees to compare (old, then new)")
    ap.add_argument("--test", action="append", required=True,
                    help="full gtest name; repeat for several tests")
    ap.add_argument("--runs", type=int, default=300,
                    help="runs per test per build (default 300)")
    ap.add_argument("--busy", type=int, default=0,
                    help="busy loops to spin beside the tests (default 0)")
    args = ap.parse_args()
    binaries = [Path(b) / "tests" / "rmiopt_tests" for b in args.builds]
    for b in binaries:
        if not b.exists():
            sys.exit(f"flake_rate.py: {b} does not exist; build it first")

    spinners = [subprocess.Popen([sys.executable, "-c", "while True: pass"])
                for _ in range(args.busy)]
    crashed = False
    try:
        for test in args.test:
            tally = [{"runs": 0, "failed": 0, "batches": []}
                     for _ in binaries]
            while any(t["runs"] < args.runs for t in tally):
                for binary, t in zip(binaries, tally):
                    repeat = min(BATCH, args.runs - t["runs"])
                    if repeat <= 0:
                        continue
                    passed, failed = run_batch(binary, test, repeat)
                    if passed + failed != repeat:
                        print(f"  {binary}: batch of {repeat} reported "
                              f"{passed} OK and {failed} FAILED (crash?)")
                        crashed = True
                    t["runs"] += repeat
                    t["failed"] += failed
                    t["batches"].append(failed)
            print(test)
            for build, t in zip(args.builds, tally):
                b = t["batches"]
                print(f"  {build}: {t['failed']} of {t['runs']} failed "
                      f"(per batch of {BATCH}: {min(b)}-{max(b)})")
    finally:
        for s in spinners:
            s.kill()
            s.wait()
    sys.exit(1 if crashed else 0)


if __name__ == "__main__":
    main()
