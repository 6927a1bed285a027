#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/test_determinism.py [--seed 7] [--workloads a,b]

Runs every workload twice at one seed (a short window: the exact counts come
from the verification pass, not from the timed window) and requires the
EXACT line of both runs to be identical: recall@10, memory bytes, hops,
distance computations, disk reads, simulated device time, I/O waves,
prefetches, lists probed and codes scanned. Exits non-zero on any mismatch.
"""
import argparse
import json
import subprocess
import sys

import run


def exact_counts(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, out.returncode))
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s: incorrect answers or failed operations" % workload)
    for line in lines:
        if line.startswith("EXACT "):
            return json.loads(line[len("EXACT "):])
    raise RuntimeError("%s printed no EXACT line" % workload)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = p.parse_args()
    binary = run.build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    ok = True
    for workload in args.workloads.split(","):
        first = exact_counts(binary, workload, args.seed)
        second = exact_counts(binary, workload, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        status = "ok" if not diff else "MISMATCH " + ",".join(diff)
        print("%-12s seed %d recall_at_10 %.4f %s" %
              (workload, args.seed, first["recall_at_10"], status))
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
