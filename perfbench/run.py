#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload graph_mem --seed 7 --seconds 10 --trace 0

Run from the repository root. The driver (perfbench.cc) is compiled together
with the library sources under src/ into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs reuse that build. Build output
goes to stderr, so the last line of stdout is the driver's JSON result.
With --trace 1 the spans are written to <build dir>/traces/. See README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph_mem", "disk_hybrid", "ivf_stream", "ivf_open")
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
