"""Request pools, seeded passes, warm-up requests and the output gate.

Every request is an ``autoseries`` command line, run in-process through
``autoseries.cli.main(argv)`` with stdout and stderr captured.  The pools
and their reference outputs live in ``refs/*.json`` (written by
``make_refs.py``).  A workload's run is a sequence of passes; a pass holds
one request from each stratum of the pool, so every pass does the same
kinds of work, and no request appears twice in a run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
#: Scratch space for the reports `verify --out` writes (ignored by git).
OUT = HERE / "out"

WORKLOADS = ("registry", "interactive", "high_precision")

#: Tolerance `solve --verify-at-solution` uses when no --eps is given.
SOLVE_EPS = 1e-6

#: Warm-up exponent: outside every pool (pools stop at s = 4.05), so a
#: warm-up request never repeats a timed one.
WARM_S = "6"


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or references)."""


def load_cli():
    """Import ``autoseries.cli`` from this checkout's ``src`` directory."""
    if not (SRC / "autoseries" / "__init__.py").is_file():
        raise BenchError(f"no autoseries sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import autoseries.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "autoseries":
        raise BenchError(f"imported autoseries from {cli.__file__}, not {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one command line; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails this request, not the run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str          # "eval", "solve" or "verify"
    stratum: str       # which kind of request, for per-kind statistics
    argv: tuple[str, ...]
    eps: float         # requested tolerance; the registry's are per record, in ref
    ref: tuple         # reference output, layout depends on kind


def eval_argv(series: str, s: str, eps: str, bits: int | None) -> list[str]:
    argv = ["eval", series, s, eps, "--format", "json"]
    if bits is not None:
        argv += ["--precision-bits", str(bits)]
    return argv


def solve_argv(case: str, k: str, l: str) -> list[str]:
    # "--" keeps negative alphabet values such as -9/2 from parsing as flags
    return ["solve", "--mint", "--verify-at-solution", "--", case, k, l]


def verify_argv(identities: list[str], s: str | None) -> list[str]:
    argv = ["verify", *identities]
    if s is not None:
        argv += ["--s", s]
    return argv + ["--out", str(OUT / "report.json")]


def load_strata(workload: str) -> list[list[Request]]:
    """The workload's pool, one list of requests per stratum."""
    path = REFS / f"{workload}.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read references {path}: {exc}") from exc
    strata = []
    for st in data["strata"]:
        reqs = []
        if st["kind"] == "eval":
            for s, value, bound in st["cells"]:
                argv = eval_argv(st["series"], s, st["eps"], st.get("bits"))
                reqs.append(Request("eval", st["name"], tuple(argv), float(st["eps"]),
                                    (float(value), float(bound))))
        elif st["kind"] == "solve":
            for k, l, s, bounds in st["cells"]:
                reqs.append(Request("solve", st["name"], tuple(solve_argv(st["case"], k, l)),
                                    SOLVE_EPS, (float(s), float(bounds))))
        else:
            # the registry: one request verifies every record; make_passes
            # fills in the command line, whose identity order is seeded
            rows = tuple((ident, s, float(eps), heuristic, float(lv), float(lb),
                          float(rv), float(rb))
                         for ident, s, eps, heuristic, lv, lb, rv, rb in st["cells"])
            reqs.append(Request("verify", st["name"], (), 0.0, rows))
        strata.append(reqs)
    return strata


def make_passes(workload: str, seed: int) -> list[list[Request]]:
    """Seeded passes.  Each stratum is shuffled once and pass i takes its
    i-th request, so a run never repeats a request; the order inside each
    pass is shuffled too.  The registry is a single pass of a single
    request: `verify` of every identity, in seeded order, at its default
    s values and eps, like `verify --all`."""
    rng = random.Random(seed)
    strata = [list(st) for st in load_strata(workload)]
    if workload == "registry":
        (req,) = strata[0]
        ids = list(dict.fromkeys(row[0] for row in req.ref))
        rng.shuffle(ids)
        return [[dataclasses.replace(req, argv=tuple(verify_argv(ids, None)))]]
    for st in strata:
        rng.shuffle(st)
    passes = []
    for i in range(min(len(st) for st in strata)):
        p = [st[i] for st in strata]
        rng.shuffle(p)
        passes.append(p)
    return passes


_WARM_SERIES = ("f", "g", "phi", "gamma", "delta", "composite9", "digitsum:3")


#: What a setup_s sample runs after importing autoseries: one cheap request,
#: the same on every workload, so set-up time is the program's start-up and
#: not the cost of a workload's own warm-ups.
SETUP_REQUEST = eval_argv("f", WARM_S, "1e-8", None)


def warmups(workload: str) -> list[list[str]]:
    """One untimed request per series kind, on the workload's own path.

    The first call of each kind fills lazy state (the Bernoulli table,
    numpy's first-call set-up); a later pass must not pay for it."""
    if workload == "high_precision":
        reqs = [eval_argv(name, WARM_S, "1e-14", None) for name in _WARM_SERIES]
        return reqs + [eval_argv("f", WARM_S, "1e-10", 64)]
    reqs = [eval_argv(name, WARM_S, "1e-8", None) for name in _WARM_SERIES]
    if workload == "interactive":
        # solved s = log2(31) ~ 4.95, outside the pool's [2, 4]
        return reqs + [solve_argv("pows", "-1", "-16/15")]
    return reqs + [verify_argv(["theorem3"], WARM_S)]


# ---------------------------------------------------------------------------
# output gate and digests
# ---------------------------------------------------------------------------


def _close(value: float, ref: float, bound: float, ref_bound: float) -> bool:
    return abs(value - ref) <= bound + ref_bound


def read_report() -> dict:
    return json.loads((OUT / "report.json").read_text(encoding="utf-8"))


def check(req: Request, rc: int, out: str, err: str, report: dict | None) -> str | None:
    """Why the request's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    try:
        if req.kind == "eval":
            doc = json.loads(out)
            value, bound = float(doc["value"]), float(doc["abs_error_bound"])
            if not bound <= req.eps:
                return f"bound {bound:g} exceeds eps {req.eps:g}"
            if not _close(value, req.ref[0], bound, req.ref[1]):
                return f"value {value!r} disagrees with reference {req.ref[0]!r}"
            return None
        if req.kind == "solve":
            lines = out.splitlines()
            s = float(lines[0].split("-> s=")[1].split()[0])
            last = lines[-1]
            if not last.startswith("[PASS]"):
                return f"minted identity did not pass: {last}"
            bounds = float(last.split("bounds=")[1].split()[0])
            if not bounds <= req.eps:
                return f"bound {bounds:g} exceeds eps {req.eps:g}"
            if not math.isclose(s, req.ref[0], rel_tol=1e-10):
                return f"solved s={s!r} disagrees with reference {req.ref[0]!r}"
            return None
        refs = {(row[0], row[1]): row[2:] for row in req.ref}
        records = report["records"]
        if len(records) != len(refs):
            return f"{len(records)} records, expected {len(refs)}"
        bad = [f"{rec['identity']} s={rec['s']}: {why}" for rec in records
               if (why := _check_record(rec, refs)) is not None]
        return "; ".join(bad) or None
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_record(rec: dict, refs: dict) -> str | None:
    s = None if rec["s"] is None else f"{float(rec['s']):g}"
    eps, heuristic, lv, lb, rv, rb = refs[(rec["identity"], s)]
    lhs, lhs_b = float(rec["lhs_value"]), float(rec["lhs_bound"])
    rhs, rhs_b = float(rec["rhs_value"]), float(rec["rhs_bound"])
    if not rec["pass"]:
        return "record did not PASS"
    # a heuristic record's lhs bound is its threshold, eps itself
    over = max(lhs_b, rhs_b) if heuristic else lhs_b + rhs_b
    if not over <= eps:
        return f"bound {over:g} exceeds eps {eps:g}"
    if not (_close(lhs, lv, lhs_b, lb) and _close(rhs, rv, rhs_b, rb)):
        return "a side disagrees with its reference"
    return None


def digest(out: str, report: dict | None) -> str:
    """Hash of a request's deterministic output, for bit-identity checks:
    stdout plus the report's records without their wall-clock field."""
    h = hashlib.sha256(out.encode())
    if report is not None:
        for rec in report["records"]:
            h.update(json.dumps({k: v for k, v in rec.items() if k != "wall_time_s"},
                                sort_keys=True).encode())
    return h.hexdigest()[:12]


def timed(cli, req: Request) -> tuple[float, int, str, str, dict | None]:
    """Run one request; the clock covers the command only."""
    t0 = time.perf_counter()
    rc, out, err = call(cli, list(req.argv))
    dt = time.perf_counter() - t0
    report = read_report() if req.kind == "verify" and rc == 0 else None
    return dt, rc, out, err, report


def run_bench(workload: str, seed: int, seconds: float, trace: int, *extra: str,
              timeout: float = 600) -> dict:
    """Run run.py in a fresh process and return its result (the JSON object
    on the last line of its stdout)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: run.py took over {timeout:g} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: run.py failed: {proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload}: run.py printed no result") from exc
