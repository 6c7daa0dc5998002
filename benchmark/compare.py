#!/usr/bin/env python3
"""Compare two lazybench result sets by a paired, interleaved-run rule.

Collect interleaved pairs from two checkouts (A = parent, B = change; the
same checkout twice gives the agreement check):

    python3 benchmark/compare.py collect --a PARENT_ROOT --b CHANGE_ROOT \
        --out-a parent.jsonl --out-b change.jsonl [--pairs 10] [--first-seed 1]

Each pair runs one seed on every workload on both sides, alternating
which side goes first (ABBA...), with the run length BENCHMARK.json
fixes; pick a --first-seed not used while the change was written. Then
compare:

    python3 benchmark/compare.py compare parent.jsonl change.jsonl

Per workload and metric it prints each side's median and quartiles and a
verdict — for the end-to-end metrics, and below them, not gating the exit
status, for the whole-system per-layer metrics (run_s, replicated_tps,
latencies, cpu_us_per_txn, ...) at the default 10% bound:

  regressed   the change's median is worse than the parent's by more than
              the metric's tolerance
  unresolved  a side's spread (IQR) is wider than the tolerance and not
              every change run beats every parent run
  ok          neither; "ok (gain)" when the change also wins >= 9/10 of
              the pairs (ties count for neither side) and the medians
              differ by more than the parent's IQR

The tolerance is the metric's bound times the parent's median, but at
least 1 ms for setup_s, a sub-millisecond span.

Then the failure checks of each side: the share of requests that failed
(failed / attempted) and the share of 2PL attempts that aborted and were
retried (1 - 1 / attempts_per_txn, median over runs). Either growing —
the abort share by more than 0.5 points — marks the workload not ok, and
no gain counts there. Exit status 0 when every verdict is ok and no
failure share grew, 1 otherwise, 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


# Absolute floors under a metric's tolerance: set-up takes well under a
# millisecond, so a relative bound alone would judge scheduler noise.
ABS_FLOOR = {"setup_s": 1e-3}
# How far the median abort share may grow, in share points.
ABORT_SHARE_BOUND = 0.005
# The bound the ungated whole-system metrics are judged at.
DEFAULT_BOUND = 0.10


def load_bench():
    with open(BENCH_JSON) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    # run.py's artifacts hold every median of the untraced reps, the
    # whole-system per-layer metrics included.
    with open(os.path.join(root, ".bench_out",
                           f"{workload}-seed{seed}-trace0",
                           "result.json")) as f:
        untraced = json.load(f)["untraced"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), untraced


def collect(args):
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    sides = [("a", args.a, args.out_a), ("b", args.b, args.out_b)]
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for side, root, out in order:
                result, untraced = run_once(root, workload, seed,
                                            bench["run_seconds"])
                record = {"workload": workload, "seed": seed, "side": side,
                          "result": result, "untraced": untraced}
                with open(out, "a") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed} side {side} done", flush=True)


def read_set(path):
    """{workload: {seed: record}} from a JSONL result set."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failure_share(runs):
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def abort_share(runs):
    return statistics.median(
        1 - 1 / r["metrics"]["attempts_per_txn"]["value"] for r in runs)


def fmt(quartile_triple):
    return "/".join(f"{x:.4g}" for x in quartile_triple)


def judge(parent, change, better, bound, floor=0.0):
    """Verdict for one metric on one workload, from paired value lists."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    tolerance = max(bound * abs(pm), floor)
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if max(p3 - p1, c3 - c1) > tolerance and not all_better:
        verdict = "unresolved"
    elif sign * (pm - cm) > tolerance:
        verdict = "regressed"
    else:
        verdict = "ok"
        if (wins >= 0.9 * len(parent) and sign * (cm - pm) > 0
                and abs(cm - pm) > (p3 - p1)):
            verdict = "ok (gain)"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "worse": worse,
            "spread": spread, "wins": wins, "verdict": verdict}


def compare(args):
    bench = load_bench()
    parent, change = read_set(args.parent), read_set(args.change)
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        seeds = sorted(set(parent.get(workload, {})) &
                       set(change.get(workload, {})))
        if len(seeds) < 10:
            print(f"{workload}: {len(seeds)} pairs; at least 10 are needed")
            sys.exit(2)
        p_recs = [parent[workload][s] for s in seeds]
        c_recs = [change[workload][s] for s in seeds]
        p_runs = [r["result"] for r in p_recs]
        c_runs = [r["result"] for r in c_recs]
        p_fail, c_fail = failure_share(p_runs), failure_share(c_runs)
        p_abort, c_abort = abort_share(p_runs), abort_share(c_runs)
        more_failures = (c_fail > p_fail
                         or c_abort - p_abort > ABORT_SHARE_BOUND)
        print(f"== {workload}: {len(seeds)} pairs; failure share parent "
              f"{p_fail:.3g}, change {c_fail:.3g}; abort share parent "
              f"{p_abort:.2%}, change {c_abort:.2%}"
              + ("  FAILURES GREW: no gain counts" if more_failures else ""))
        ok &= not more_failures
        print(f"  {'metric':16s} {'parent q1/med/q3':>34s} "
              f"{'change q1/med/q3':>34s} {'worse':>7s} {'spread':>7s} "
              f"{'bound':>6s} {'wins':>5s}  verdict")
        ungated = [dict(m, bound=DEFAULT_BOUND) for m in bench["per_layer"]
                   if m["name"] in p_recs[0].get("untraced", {})]
        for m in bench["end_to_end"] + ungated:
            name = m["name"]
            gated = m in bench["end_to_end"]
            if gated:
                p_vals = [r["metrics"][name]["value"] for r in p_runs]
                c_vals = [r["metrics"][name]["value"] for r in c_runs]
            else:
                p_vals = [r["untraced"][name] for r in p_recs]
                c_vals = [r["untraced"][name] for r in c_recs]
            j = judge(p_vals, c_vals, m["better"], m["bound"],
                      ABS_FLOOR.get(name, 0.0))
            verdict = j["verdict"]
            if more_failures and verdict == "ok (gain)":
                verdict = "ok"
            if gated:
                ok &= verdict.startswith("ok")
            else:
                verdict += " (not gated)"
            parent_q, change_q = fmt(j["parent"]), fmt(j["change"])
            print(f"  {name:16s} {parent_q:>34s} {change_q:>34s} "
                  f"{j['worse']:+7.1%} {j['spread']:7.1%} {m['bound']:6.0%} "
                  f"{j['wins']:>2d}/{len(seeds):<2d}  {verdict}")
    print("all ok" if ok else "NOT ok")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(
        description="Compare lazybench result sets (see module doc).")
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run interleaved pairs")
    c.add_argument("--a", required=True, help="parent checkout root")
    c.add_argument("--b", required=True, help="change checkout root")
    c.add_argument("--out-a", required=True)
    c.add_argument("--out-b", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    k = sub.add_parser("compare", help="judge two result sets")
    k.add_argument("parent")
    k.add_argument("change")
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
