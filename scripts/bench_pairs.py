#!/usr/bin/env python3
"""Runs a parent and a change checkout in alternating pairs, one workload.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload webserver_bulk --seeds 41-50

For each seed it runs both checkouts' own perfbench/run.py, unchanged,
with --seconds 20 --trace 0, one after the other; the side that runs first
alternates from seed to seed, so a host that speeds up or slows down
during the batch favours neither.  It then prints, for every metric, both
sides' median and quartiles, how many pairs the change won (its value is
better than the parent's at the same seed), and whether the gain rule
holds: the change wins at least 9 of every 10 pairs, and its median is
better than the parent's by more than the parent's interquartile range.
Last comes `perfbench/compare.py diff` over the same runs, which judges
each end-to-end metric against its bound in BENCHMARK.json.

--seeds takes a range (41-50), a list (1,3,5) or both (1-4,9).  Each
checkout needs its perfbench build; run.py makes it on the first call.
"""
import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import compare  # noqa: E402

SECONDS = 20


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(root, workload, seed):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs.py: {' '.join(cmd[1:])} in {root} failed "
                 f"(exit {done.returncode})")
    return json.loads(lines[-1])


def report(parent, change):
    spec = compare.spec()
    pairs = len(parent)
    need = math.ceil(0.9 * pairs)
    print(f"{'metric':34} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'change':>8} {'wins':>6}  "
          f"gain rule")
    for name in parent[0]["metrics"]:
        p_vals = compare.values(parent, name)
        c_vals = compare.values(change, name)
        if len(p_vals) != pairs or len(c_vals) != pairs:
            print(f"{name:34} missing from some runs")
            continue
        higher = spec.get(name, {}).get("better", "lower") == "higher"
        sign = 1 if higher else -1
        p_med, p_q1, p_q3, _ = compare.stats(p_vals)
        c_med, c_q1, c_q3, _ = compare.stats(c_vals)
        wins = sum(sign * (c - p) > 0 for p, c in zip(p_vals, c_vals))
        gain = sign * (c_med - p_med)
        holds = wins >= need and gain > p_q3 - p_q1
        rel = (c_med - p_med) / p_med if p_med else 0.0
        print(f"{name:34} {p_med:12.6g} [{p_q1:8.4g}, {p_q3:8.4g}] "
              f"{c_med:12.6g} [{c_q1:8.4g}, {c_q3:8.4g}] {rel:+8.2%} "
              f"{wins:>3}/{pairs:<2}  {'holds' if holds else 'no'}")
    print(f"(gain rule: the change wins at least {need} of {pairs} pairs and "
          "its median is better by more than the parent's IQR)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the parent commit's checkout")
    ap.add_argument("change", help="the change's checkout")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in json.loads(
                        compare.BENCHMARK.read_text())["workloads"]])
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="seeds to pair, e.g. 41-50")
    args = ap.parse_args()
    roots = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(roots[side], args.workload, seed))
        print(f"seed {seed}: {order[0]} first; ops_per_s parent "
              f"{runs['parent'][-1]['metrics']['ops_per_s']['value']:.6g}, "
              f"change {runs['change'][-1]['metrics']['ops_per_s']['value']:.6g}",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(args.seeds)} alternating pairs at "
          f"{SECONDS} s, seeds {','.join(map(str, args.seeds))}")
    print(f"parent {roots['parent']}\nchange {roots['change']}\n")
    report(runs["parent"], runs["change"])
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for side in ("parent", "change"):
            paths.append(Path(tmp) / f"{side}.jsonl")
            paths[-1].write_text("".join(json.dumps(r) + "\n"
                                         for r in runs[side]))
        print("\ncompare.py diff (parent against change, per bound):")
        compare.diff(*paths)


if __name__ == "__main__":
    main()
