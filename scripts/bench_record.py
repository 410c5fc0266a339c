#!/usr/bin/env python3
"""Records a commit's benchmark numbers and virtual tables in one file.

    python3 scripts/bench_record.py [--root DIR] [--diff OLD.json]
    python3 scripts/bench_record.py --diff OLD.json --record NEW.json

The first form measures the checkout at --root (default: this repository)
and writes BENCH_<short-sha>.json at its root (BENCH_<short-sha>-dirty.json
when tracked files differ from that commit).  It drives perfbench/run.py,
unchanged, for every workload in BENCHMARK.json: one untraced run per seed
1-10 at 20 s (interleaved seed by seed across the workloads), then one
traced run per workload at seed 1.  The record keeps every result line,
each untraced metric's median and quartiles (perfbench/compare.py), and the
stdout of the eight golden outputs (scripts/check_golden_tables.py) and of
bench_table3_lu verbatim, run from <root>/build (already built).

With --diff, the new record is compared with OLD.json: each workload's
untraced runs by `perfbench/compare.py diff` (OLD as the parent), the
traced runs side by side, then every golden output, which must match
exactly.  The LU table varies run to run (real threads advance one virtual
clock), so it is recorded but not compared.  The second form compares two
existing records without running anything.  The exit status is 1 when a
golden output differs; records taken under different protocols are
refused.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import compare  # noqa: E402
from check_golden_tables import TABLES  # noqa: E402

LU = "bench_table3_lu"
PROTOCOL = {"seeds": list(range(1, 11)), "seconds": 20, "traced_seed": 1}


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def commit_name(root):
    sha = git(root, "rev-parse", "--short", "HEAD")
    changed = [line for line in git(root, "status", "--porcelain",
                                    "--untracked-files=no").splitlines()
               if not line[3:].startswith("BENCH_")]
    return sha, bool(changed)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_workload(root, workload, seed, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(PROTOCOL["seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_record.py: {' '.join(cmd[1:])} failed "
                 f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    return result


def summarize(runs):
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        med, q1, q3, _ = compare.stats(compare.values(runs, name))
        metrics[name] = {"unit": first["unit"], "median": med,
                         "q1": q1, "q3": q3}
    return metrics


def bench_outputs(build, names):
    outputs = {}
    for name in names:
        done = subprocess.run([str(build / "bench" / name)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"bench_record.py: {name} exited with {done.returncode}")
        outputs[name] = done.stdout
    return outputs


def record(root):
    build = root / "build"
    missing = [n for n in TABLES + [LU]
               if not (build / "bench" / n).exists()]
    if missing:
        sys.exit(f"bench_record.py: {build} lacks {', '.join(missing)}; "
                 "build it first (cmake --build)")
    sha, dirty = commit_name(root)
    workloads = [w["name"] for w in json.loads(compare.BENCHMARK.read_text())
                 ["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in PROTOCOL["seeds"]:
        for w in workloads:
            runs[w].append(run_workload(root, w, seed, 0))
    rec = {
        "commit": sha,
        "dirty": dirty,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "protocol": PROTOCOL,
        "workloads": {w: {"summary": summarize(runs[w]), "runs": runs[w],
                          "traced": run_workload(
                              root, w, PROTOCOL["traced_seed"], 1)}
                      for w in workloads},
        "golden": bench_outputs(build, TABLES),
        "lu": bench_outputs(build, [LU])[LU],
    }
    out = root / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return out


def diff(old_path, new_path):
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    if old["protocol"] != new["protocol"]:
        sys.exit(f"bench_record.py: {old_path} and {new_path} were taken "
                 f"under different protocols ({old['protocol']} and "
                 f"{new['protocol']})")
    print(f"old {old['commit']}{' (dirty)' if old['dirty'] else ''}, "
          f"new {new['commit']}{' (dirty)' if new['dirty'] else ''}")
    with tempfile.TemporaryDirectory() as tmp:
        for w, o in old["workloads"].items():
            n = new["workloads"].get(w)
            print(f"\n{w}: untraced (compare.py diff; parent = old)")
            if n is None:
                print("missing from the new record")
                continue
            paths = []
            for label, runs in (("old", o["runs"]), ("new", n["runs"])):
                paths.append(Path(tmp) / f"{w}-{label}.jsonl")
                paths[-1].write_text("".join(json.dumps(r) + "\n"
                                             for r in runs))
            compare.diff(*paths)
            print(f"{w}: traced, seed {PROTOCOL['traced_seed']}")
            for name, ov in o["traced"]["metrics"].items():
                nv = n["traced"]["metrics"].get(name, {}).get("value")
                if nv is None:
                    print(f"  {name:32} {ov['value']:12.6g}      missing")
                    continue
                change = (nv - ov["value"]) / ov["value"] if ov["value"] \
                    else 0.0
                print(f"  {name:32} {ov['value']:12.6g} {nv:12.6g} "
                      f"{change:+9.2%}")
    differ = [t for t in old["golden"]
              if new["golden"].get(t) != old["golden"][t]]
    print()
    for t in old["golden"]:
        print(f"{'DIFFERS' if t in differ else 'same   '} {t}")
    return 1 if differ else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(HERE.parent),
                    help="checkout to measure (default: this repository)")
    ap.add_argument("--diff", metavar="OLD.json",
                    help="compare the new record with this one")
    ap.add_argument("--record", metavar="NEW.json",
                    help="with --diff: compare this record, run nothing")
    args = ap.parse_args()
    if args.record:
        if not args.diff:
            ap.error("--record needs --diff")
        sys.exit(diff(args.diff, args.record))
    out = record(Path(args.root).resolve())
    if args.diff:
        sys.exit(diff(args.diff, out))


if __name__ == "__main__":
    main()
