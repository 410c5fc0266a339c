#!/usr/bin/env python3
"""The benchmark's own test.

For every workload it makes one untraced run and two traced runs with the
same seed, and checks that:

  * each run is correct and reports exactly the metrics BENCHMARK.json
    names for its mode (end_to_end untraced, per_layer traced);
  * every count metric (unit count, B or ratio) of the two traced runs is
    identical: the per-RMI serial and wire counts, the compile pass
    executions and the cache hits.  Left out: net.ctx_switches_per_rmi,
    which the OS decides, and on webserver_bulk the allocation and reuse
    counts: its 2 clients race for the caller's one return-reuse slot, and
    the loser allocates a fresh page.

    python3 perfbench/test_counts.py [--seed N] [--seconds S]

Exits 0 when every check passes.  Takes about a minute: one superopt
iteration alone is ~8 s.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "B", "ratio"}
NOT_REPEATABLE = {"net.ctx_switches_per_rmi"}
RACY = {"webserver_bulk": {"objmodel.objects_alloc_per_rmi",
                           "serial.reused_ratio"}}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=HERE.parent)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()

    want = {0: [m["name"] for m in BENCHMARK["end_to_end"]],
            1: [m["name"] for m in BENCHMARK["per_layer"]]}
    problems = []
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        results = [run(w, args.seed, args.seconds, trace) for trace in (0, 1, 1)]
        for trace, r in zip((0, 1, 1), results):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} trace={trace}: run not correct")
            if sorted(r["metrics"]) != sorted(want[trace]):
                problems.append(f"{w} trace={trace}: metric set differs "
                                "from BENCHMARK.json")
        first, second = results[1]["metrics"], results[2]["metrics"]
        skip = NOT_REPEATABLE | RACY.get(w, set())
        counts = [n for n, m in first.items()
                  if m["unit"] in COUNT_UNITS and n not in skip]
        for name in counts:
            if first[name]["value"] != second.get(name, {}).get("value"):
                problems.append(f"{w}: {name} {first[name]['value']} != "
                                f"{second.get(name, {}).get('value')}")
        print(f"{w}: {len(counts)} count metrics compared")
    for p in problems:
        print("FAIL", p)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
