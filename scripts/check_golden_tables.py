#!/usr/bin/env python3
"""Byte-identity gate for the seven deterministic paper tables and the
one bench output that pins the introspective (HEAVY) wire protocol.

Runs bench_table{1,2,5,7}, bench_table{4,6,8}_*_stats and
ablation_wire_typeinfo from a build tree and diffs each one's stdout
against its capture in bench/golden/.  The paper tables run only the
five paper levels; ablation_wire_typeinfo also prints the type-info and
wire bytes of one 100-node list message at `introspect`, `class` and
`site`, so the class-name protocol is gated byte for byte too.  Every
virtual makespan and counter in these outputs is deterministic, so any
difference at all means a change moved the simulation.  The LU table
(bench_table3_lu) is scheduling-sensitive and stays on
scripts/check_lu_tolerance.py instead.

Usage:
    python3 scripts/check_golden_tables.py [BUILD_DIR]     # default: build
"""

import difflib
import pathlib
import subprocess
import sys

TABLES = [
    "bench_table1_linkedlist",
    "bench_table2_array2d",
    "bench_table4_lu_stats",
    "bench_table5_superopt",
    "bench_table6_superopt_stats",
    "bench_table7_webserver",
    "bench_table8_webserver_stats",
    "ablation_wire_typeinfo",
]

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden"


def main(argv):
    build = pathlib.Path(argv[1] if len(argv) > 1 else "build")
    failures = 0
    for name in TABLES:
        binary = build / "bench" / name
        run = subprocess.run([str(binary)], capture_output=True, text=True)
        if run.returncode != 0:
            print(f"FAIL {name}: exit code {run.returncode}\n{run.stderr}")
            failures += 1
            continue
        golden = GOLDEN_DIR / f"{name}.txt"
        expected = golden.read_text()
        if run.stdout == expected:
            print(f"ok   {name}")
            continue
        failures += 1
        print(f"FAIL {name}: output differs from {golden}")
        sys.stdout.writelines(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                run.stdout.splitlines(keepends=True),
                fromfile=f"golden/{name}.txt",
                tofile=f"{name} (this build)",
            )
        )
    if failures:
        print(f"{failures} of {len(TABLES)} outputs differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
