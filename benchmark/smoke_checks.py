#!/usr/bin/env python3
"""Checks of lazybench against BENCHMARK.json (a ctest of benchmark/).

    python3 smoke_checks.py LAZYBENCH BENCHMARK.json

1. The metrics and workloads `lazybench --list` declares equal those in
   BENCHMARK.json, units included: none extra, none missing.
2. The negative control — table1_dagwt under NaiveLazy, which is not
   serializable — fails its verdict and exits with the verdict code (3).
"""

import json
import subprocess
import sys

VERDICT_EXIT = 3


def main():
    exe, bench_json = sys.argv[1], sys.argv[2]
    with open(bench_json) as f:
        bench = json.load(f)
    listed = subprocess.run([exe, "--list"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    declared = {"end_to_end": set(), "per_layer": set(), "workload": set()}
    for line in filter(None, listed):
        kind, rest = line.split(" ", 1)
        declared[kind].add(rest)
    def named(metrics):
        return {f"{m['name']} {m['unit']}" for m in metrics}

    expected = {
        "end_to_end": named(bench["end_to_end"]),
        "per_layer": named(bench["per_layer"]),
        "workload": {w["name"] for w in bench["workloads"]},
    }
    ok = True
    for kind in expected:
        for extra in sorted(declared[kind] - expected[kind]):
            print(f"{kind}: '{extra}' emitted but not in BENCHMARK.json")
            ok = False
        for missing in sorted(expected[kind] - declared[kind]):
            print(f"{kind}: '{missing}' in BENCHMARK.json but not emitted")
            ok = False

    control = subprocess.run([exe, "--smoke", "--smoke-naive"],
                             capture_output=True, text=True)
    if control.returncode != VERDICT_EXIT:
        print(f"negative control exited {control.returncode}, "
              f"want {VERDICT_EXIT}:\n{control.stderr[-2000:]}")
        ok = False
    else:
        print("negative control failed its verdict as it must:",
              control.stderr.strip().splitlines()[-1])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
