#!/usr/bin/env python3
"""Build lazybench from source and run one workload.

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The benchmark is configured and built with
CMake (Release) into $CARGO_TARGET_DIR/lazybench, or .bench_build/lazybench
when that variable is unset, then run; the last line lazybench prints is
the result as one JSON object. Build output goes to stderr. Artifacts
(provenance, per-rep values, and for --trace 1 a Chrome trace and a
Prometheus snapshot) go to .bench_out/<workload>-seed<N>-trace<T>/.

Exit status: lazybench's own (0 ok, 2 refused, 3 a verdict failed,
4 ledger incomplete), or 2 when the build fails.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

_child = None


def _stop(signum, _frame):
    """Ends the running child (build step or lazybench) before exiting."""
    if _child is not None and _child.poll() is None:
        _child.terminate()
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, **kwargs):
    """Runs `cmd` to completion as the one tracked child; returns its code."""
    global _child
    _child = subprocess.Popen(cmd, **kwargs)
    code = _child.wait()
    _child = None
    return code if code >= 0 else 128 - code


def build():
    """Configures and builds lazybench; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "lazybench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # Concurrent invocations share one build directory: serialize builds.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "lazybench",
             "-j", jobs],
        ):
            if run(cmd, stdout=sys.stderr) != 0:
                sys.exit(2)
    return os.path.join(build_dir, "lazybench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)

    exe = build()
    out = os.path.join(ROOT, ".bench_out",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out, exist_ok=True)
    sys.exit(run([
        exe, f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}", f"--out={out}",
    ]))


if __name__ == "__main__":
    main()
