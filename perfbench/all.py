"""Run every workload once, untraced, and print all end-to-end metrics.

    python3 perfbench/all.py [--seed N] [--seconds S]

Each workload runs in its own process through run.py. The table lists
each workload's metrics with their units, and the failed requests over
the attempted ones. Exits 1 when any run fails or reports wrong outputs.
"""

from __future__ import annotations

import argparse
import sys

import workloads as W


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args()
    ok = True
    for workload in W.WORKLOADS:
        try:
            result = W.run_bench(workload, args.seed, args.seconds, 0)
        except W.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(f"{workload}: {result['failed']} failed of {result['attempted']} attempted")
        for name, m in result["metrics"].items():
            print(f"  {workload + '/' + name:34s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
