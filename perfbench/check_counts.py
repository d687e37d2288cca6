"""Self-check: two traced runs with the same seed count the same work.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Runs ``run.py --trace 1`` twice per workload and compares the exact
per-request counts (terms, naive calls, FE inner evaluations, zeta calls,
cache hits, cache lookups, coefficients) over the requests both runs
reached.  Exits 1 when any count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as W


def traced_counts(workload: str, seed: int, seconds: float) -> list[list[int]]:
    if not W.run_bench(workload, seed, seconds, 1)["correct"]:
        raise W.BenchError(f"{workload}: traced run reported incorrect outputs")
    path = W.OUT / f"last-{workload}-trace1.json"
    return json.loads(path.read_text(encoding="utf-8"))["counts"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("workloads", nargs="*", default=list(W.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for workload in args.workloads:
        try:
            first = traced_counts(workload, args.seed, args.seconds)
            second = traced_counts(workload, args.seed, args.seconds)
        except W.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        n = min(len(first), len(second))
        differ = [i for i in range(n) if first[i] != second[i]]
        totals = [sum(col) for col in zip(*first[:n])]
        print(f"{workload}: {n} requests compared, {len(differ)} differ; totals {totals}")
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
