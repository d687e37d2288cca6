"""autoseries benchmark: three closed-loop workloads, one client, in-process.

    python3 perfbench/run.py --workload registry|interactive|high_precision \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/`` and driven through ``autoseries.cli.main(argv)`` with stdout
captured.  The seed chooses the order and the draws from each request
pool; no request repeats within a run.  The run measures whole passes
until ``--seconds`` have elapsed (the registry workload is always exactly
one pass) and checks each output against the references in ``refs/`` as
soon as its request's clock stops.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the functions of every layer are
wrapped (see tracer.py) and the JSON holds the per-layer metrics.  A
traced run also starts an untraced copy of itself, to measure the tracing
overhead and to check that traced outputs are bit-identical.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
import workloads as W

#: fresh interpreters timed per run for setup_s, half of them before the
#: timed passes and half after, so the samples span the run; the median is
#: reported
SETUP_RUNS = 10
#: the percentile req_tail_ms reports, fixed per workload so that a faster
#: or slower program is compared at the same percentile.  Only interactive
#: has enough requests for a tail: at least 100 samples lie beyond its p95
#: (about 300 of 6,000).  The registry's one request and high_precision's
#: hundred or so report the median.
TAIL_Q = {"registry": 50.0, "interactive": 95.0, "high_precision": 50.0}


@dataclass(frozen=True)
class Result:
    """What is kept of one request: the output itself is checked and
    digested as soon as the request's clock stops, then dropped, so the
    harness's memory does not grow with the number of requests."""
    stratum: str
    seconds: float
    digest: str
    failure: str | None


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_samples(n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    autoseries and answered W.SETUP_REQUEST.  The child reads the same
    monotonic clock when it is ready, so its exit is not timed."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import workloads as W; "
        "W.call(W.load_cli(), W.SETUP_REQUEST); print(time.perf_counter())"
    )
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(W.HERE)], cwd=W.ROOT,
                              check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_passes(cli, passes, seconds: float, recorder=None):
    """Time whole passes until ``seconds`` have elapsed.

    A pass's time is the sum of its requests' times.  Returns the pass
    times and a Result per request."""
    pass_times, results = [], []
    # the harness's own objects (the request pool) stay out of the
    # program's garbage collections
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    for p in passes:
        pass_s = 0.0
        for req in p:
            if recorder is not None:
                recorder.request = len(results)
            dt, rc, out, err, report = W.timed(cli, req)
            why = W.check(req, rc, out, err, report)
            failure = None if why is None else \
                f"request {len(results)} [{' '.join(req.argv)}]: {why}"
            results.append(Result(req.stratum, dt, W.digest(out, report), failure))
            pass_s += dt
        pass_times.append(pass_s)
        if time.perf_counter() - start >= seconds:
            break
    return pass_times, results


def last_run_path(workload: str, trace: int):
    return W.OUT / f"last-{workload}-trace{trace}.json"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def untraced_copy(args) -> tuple[dict, dict]:
    """Run this benchmark untraced, without set-up samples, in a fresh
    process; (its result, its outputs)."""
    result = W.run_bench(args.workload, args.seed, args.seconds, 0, "--no-setup", timeout=170)
    outputs = json.loads(last_run_path(args.workload, 0).read_text(encoding="utf-8"))
    return result, outputs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the untraced copy a traced run starts needs no setup_s
    ap.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        cli = W.load_cli()
        passes = W.make_passes(args.workload, args.seed)
    except W.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    W.OUT.mkdir(exist_ok=True)
    timed_setup = not (args.trace or args.no_setup)
    setup = setup_samples(SETUP_RUNS // 2) if timed_setup else []
    for warm in W.warmups(args.workload):
        W.call(cli, warm)

    recorder = None
    if args.trace:
        recorder = tracer.Recorder()
        recorder.install()
    try:
        pass_times, results = run_passes(cli, passes, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    if timed_setup:
        setup += setup_samples(SETUP_RUNS - SETUP_RUNS // 2)

    failures = [r.failure for r in results if r.failure is not None]
    digests = [r.digest for r in results]
    latencies = [r.seconds for r in results]
    print(f"workload {args.workload}: seed {args.seed}, {len(pass_times)} passes, "
          f"{len(results)} requests, {len(failures)} failed")
    for line in failures[:20]:
        print(f"FAILED {line}")
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r.stratum, []).append(r.seconds * 1e3)
    for kind, times in sorted(by_kind.items()):
        print(f"  {kind:28s} {len(times):5d} requests, median {statistics.median(times):9.2f} ms")
    correct = not failures

    if not args.trace:
        q = TAIL_Q[args.workload]
        print(f"req_tail_ms is p{q:g} of {len(latencies)} request latencies")
        last_run_path(args.workload, 0).write_text(
            json.dumps({"seed": args.seed, "digests": digests}), encoding="utf-8")
        metrics = {
            "pass_s": (statistics.median(pass_times), "s"),
            "req_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "req_tail_ms": (percentile(latencies, q) * 1e3, "ms"),
        }
        if setup:
            metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        emit(correct, len(results), len(failures), metrics)
        return 0

    spans = tracer.Spans(recorder)
    recorder.write(W.OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    counts = tracer.request_counts(spans, len(results))
    last_run_path(args.workload, 1).write_text(
        json.dumps({"seed": args.seed, "digests": digests, "counts": counts}), encoding="utf-8")
    metrics = tracer.layer_metrics(spans, len(pass_times), sum(pass_times))
    try:
        plain, plain_outputs = untraced_copy(args)
    except (W.BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    common = min(len(digests), len(plain_outputs["digests"]))
    mismatched = [i for i in range(common) if digests[i] != plain_outputs["digests"][i]]
    print(f"traced vs untraced outputs: {common} compared, {len(mismatched)} differ")
    correct = correct and plain["correct"] and not mismatched
    metrics["trace.overhead_frac"] = (
        statistics.median(pass_times) / plain["metrics"]["pass_s"]["value"] - 1.0, "ratio")
    layers = ", ".join(f"{layer} {metrics[layer + '.self_ms'][0]:.1f}"
                       for layer in tracer.LAYERS)
    print(f"traced pass (ms): {layers}, remainder {metrics['trace.remainder_ms'][0]:.1f}"
          f" = {metrics['trace.pass_ms'][0]:.1f}")
    emit(correct, len(results), len(failures) + len(mismatched), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
