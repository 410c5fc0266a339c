#!/usr/bin/env python3
"""Summarises and compares benchmark result lines.

Collect the last stdout line of several runs into a file, one per line:

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload superopt --seed $s --seconds 20 \\
          --trace 0 | tail -n 1
    done > superopt.jsonl

then:

    compare.py summary RUNS.jsonl              median, quartiles, spread
    compare.py diff PARENT.jsonl CHANGE.jsonl  change vs parent, per bound
    compare.py overhead UNTRACED.jsonl TRACED.jsonl

Spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4).  The
bounds come from BENCHMARK.json.  Tracing overhead is the share of
untraced ops_per_s that the traced run's trace.ops_per_s loses.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    if not runs:
        sys.exit(f"compare.py: no result lines in {path}")
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (vals[0], None, vals[0]))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def spec():
    bench = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def failures(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def summary(path):
    runs, metrics = load(path), spec()
    failed, attempted = failures(runs)
    print(f"{len(runs)} runs, {failed}/{attempted} operations failed")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}")
    for name in runs[0]["metrics"]:
        med, q1, q3, spread = stats(values(runs, name))
        bound = metrics.get(name, {}).get("bound")
        flag = "" if bound is None or spread <= bound else "  WIDER THAN BOUND"
        print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:7.2%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}{flag}")


def diff(parent_path, change_path):
    parent, change, metrics = load(parent_path), load(change_path), spec()
    for label, runs in (("parent", parent), ("change", change)):
        failed, attempted = failures(runs)
        print(f"{label}: {len(runs)} runs, {failed}/{attempted} failed")
    print(f"{'metric':34} {'parent':>14} {'change':>14} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for name in parent[0]["metrics"]:
        p_med, _, _, p_spread = stats(values(parent, name))
        c_vals = values(change, name)
        if not c_vals:
            print(f"{name:34} missing from the change")
            continue
        c_med = statistics.median(c_vals)
        m = metrics.get(name, {})
        lower_better = m.get("better", "lower") == "lower"
        worse = ((c_med - p_med) if lower_better else (p_med - c_med))
        worse = worse / p_med if p_med else 0.0
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif worse > bound:
            verdict = "REGRESSION"
        elif p_spread > bound:
            verdict = "unresolved (parent spread wider than bound)"
        else:
            verdict = "ok"
        print(f"{name:34} {p_med:14.6g} {c_med:14.6g} {worse:9.2%} "
              f"{'' if bound is None else f'{bound:.0%}':>6}  {verdict}")


def overhead(untraced_path, traced_path):
    plain = statistics.median(values(load(untraced_path), "ops_per_s"))
    traced = statistics.median(values(load(traced_path), "trace.ops_per_s"))
    print(f"untraced ops_per_s {plain:.6g}, traced {traced:.6g}, "
          f"tracing overhead {(plain - traced) / plain:.2%}")


def main():
    commands = {"summary": (summary, 1), "diff": (diff, 2),
                "overhead": (overhead, 2)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands \
            or len(sys.argv) != 2 + commands[sys.argv[1]][1]:
        sys.exit(__doc__)
    fn, _ = commands[sys.argv[1]]
    fn(*sys.argv[2:])


if __name__ == "__main__":
    main()
