"""Regenerate the request pools and reference outputs in refs/*.json.

Run from the repository root, at the commit whose outputs should serve as
references (the pools checked in were made from the sources of commit
16fc16d):

    python3 perfbench/make_refs.py [registry|interactive|high_precision ...]

Each candidate request is run once through ``autoseries.cli.main``.
Refused requests (non-zero exit) are dropped, and so are requests slower
than the workload's cost cap, timed as the faster of two tries.  What
remains is stored with its output, which the benchmark's output gate later
compares against.  The pools are deliberately larger than one run needs,
so different seeds draw different requests.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import workloads as W

#: interactive keeps requests the reference commit answers in about 50 ms
INTERACTIVE_CAP_S = 0.050
#: high_precision keeps cells that finish in about 2 s
HIGH_PRECISION_CAP_S = 2.0

EPS_GRID = ("1e-8", "1e-10", "1e-12")

#: interactive eval strata: series -> (lowest s, highest s, grid step).
#: The steps give every stratum about 500 cells, twice what a 30 s run
#: draws (g's grid is finer because many of its cells are refused or slow).
#: delta, composite9 and digitsum:3 below s = 3 exceed the cost cap
#: (1.4 to 4 s) or are refused.
INTERACTIVE_SERIES = {
    "f": (2.0, 4.0, 0.004), "g": (2.0, 4.0, 0.002), "phi": (2.0, 4.0, 0.004),
    "gamma": (2.0, 4.0, 0.004), "delta": (3.0, 4.0, 0.002),
    "composite9": (3.0, 4.0, 0.002), "digitsum:3": (3.0, 4.0, 0.002),
}

#: high_precision strata: (series, eps, precision bits or None, lowest s).
#: Each draws s from [lowest, lowest + 0.04] in steps of 0.001: a cell of
#: the ROADMAP grid with a small seeded offset, so requests never repeat
#: while every pass costs about the same.  The number of strata is odd, so
#: the median request falls inside one stratum, not between two unlike ones.
HIGH_PRECISION_STRATA = (
    ("f", "1e-13", None, 3.0),
    ("f", "1e-14", None, 4.0),
    ("phi", "1e-13", None, 3.5),
    ("phi", "1e-14", None, 4.0),
    ("gamma", "1e-13", None, 4.0),
    ("gamma", "1e-14", None, 3.5),
    ("g", "1e-13", None, 4.0),
    ("delta", "1e-13", None, 4.0),
    ("composite9", "1e-13", None, 4.0),
    ("digitsum:3", "1e-10", 64, 4.0),
    ("f", "1e-8", 80, 3.0),
)

#: alphabet values k, l for the solve pool: p/q with |p| <= 12, q <= 8
_ALPHABET = sorted({Fraction(p, q) for p in range(-12, 13) for q in range(1, 9)})
SOLVE_CASES = ("zero", "pows", "powsminus2")
#: candidates tried per case (every n-th of all with solved s in [2, 4])
SOLVE_CANDIDATES = 700


def _run(cli, argv: list[str], cap: float):
    """(stdout, report) of a request that succeeds within cap, else None."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        rc, out, _err = W.call(cli, argv)
        dt = time.perf_counter() - t0
        if rc != 0:
            return None
        best = dt if best is None else min(best, dt)
        if best <= cap:
            break
    if best > cap:
        return None
    report = W.read_report() if argv[0] == "verify" else None
    return out, report


def _eval_cells(cli, series, eps, bits, s_values, cap):
    cells = []
    for s in s_values:
        got = _run(cli, W.eval_argv(series, s, eps, bits), cap)
        if got is not None:
            doc = json.loads(got[0])
            cells.append([s, doc["value"], doc["abs_error_bound"]])
    return cells


def registry(cli) -> list[dict]:
    from autoseries import IdentityKind, builtin_registry

    cells = []
    for ident in builtin_registry():
        dirichlet = ident.kind is IdentityKind.DIRICHLET
        for s in ([f"{s:g}" for s in ident.default_s] if dirichlet else [None]):
            got = _run(cli, W.verify_argv([ident.identity_id], s), float("inf"))
            if got is None:
                raise W.BenchError(f"{ident.identity_id} at s={s} fails at this commit")
            (rec,) = got[1]["records"]
            cells.append([ident.identity_id, s, repr(ident.default_eps), rec["heuristic"],
                          rec["lhs_value"], rec["lhs_bound"], rec["rhs_value"], rec["rhs_bound"]])
    return [{"name": "registry", "kind": "verify", "cells": cells}]


def interactive(cli) -> list[dict]:
    strata = []
    for series, (lo, hi, step) in INTERACTIVE_SERIES.items():
        grid = [f"{lo + step * i:.3f}" for i in range(round((hi - lo) / step) + 1)]
        for eps in EPS_GRID:
            cells = _eval_cells(cli, series, eps, None, grid, INTERACTIVE_CAP_S)
            print(f"interactive {series} {eps}: {len(cells)}/{len(grid)} cells", flush=True)
            if cells:
                strata.append({"name": f"eval:{series}:{eps}", "kind": "eval",
                               "series": series, "eps": eps, "cells": cells})
    from autoseries.solver import solve_case

    for case in SOLVE_CASES:
        cands, crashed = [], []
        for k in _ALPHABET:
            for l in _ALPHABET:
                try:
                    sol = solve_case(case, float(k), float(l))
                except ValueError:  # the case's guards refuse this alphabet
                    continue
                except ZeroDivisionError:
                    # a guard compares floats exactly and lets a zero
                    # denominator through; such alphabets crash `solve`
                    crashed.append(f"{k},{l}")
                    continue
                if 2.0 <= sol.s <= 4.0:
                    cands.append((str(k), str(l)))
        if crashed:
            print(f"solve {case}: {len(crashed)} alphabets crash solve_case "
                  f"(ZeroDivisionError), left out: {' '.join(crashed)}", flush=True)
        step = max(1, len(cands) // SOLVE_CANDIDATES)
        cells = []
        for k, l in cands[::step]:
            got = _run(cli, W.solve_argv(case, k, l), INTERACTIVE_CAP_S)
            if got is not None:
                lines = got[0].splitlines()
                s = lines[0].split("-> s=")[1].split()[0]
                bounds = lines[-1].split("bounds=")[1].split()[0]
                cells.append([k, l, s, bounds])
        print(f"interactive solve {case}: {len(cells)}/{len(cands[::step])} cells", flush=True)
        strata.append({"name": f"solve:{case}", "kind": "solve", "case": case, "cells": cells})
    return strata


def high_precision(cli) -> list[dict]:
    strata = []
    for series, eps, bits, lo in HIGH_PRECISION_STRATA:
        grid = [f"{lo + 0.001 * i:.3f}" for i in range(41)]
        cells = _eval_cells(cli, series, eps, bits, grid, HIGH_PRECISION_CAP_S)
        print(f"high_precision {series} {eps} bits={bits}: {len(cells)}/{len(grid)} cells",
              flush=True)
        name = f"eval:{series}:{eps}" + (f":bits{bits}" if bits else "")
        strata.append({"name": name, "kind": "eval", "series": series, "eps": eps,
                       "bits": bits, "cells": cells})
    return strata


def main(argv: list[str]) -> int:
    cli = W.load_cli()
    W.OUT.mkdir(exist_ok=True)
    W.REFS.mkdir(exist_ok=True)
    builders = {"registry": registry, "interactive": interactive,
                "high_precision": high_precision}
    for name in argv or W.WORKLOADS:
        for warm in W.warmups(name):
            W.call(cli, warm)
        (W.REFS / f"{name}.json").write_text(_dump(name, builders[name](cli)), encoding="utf-8")
    return 0


def _dump(name: str, strata: list[dict]) -> str:
    """JSON with one pool cell per line, so diffs of regenerated pools read well."""
    parts = []
    for st in strata:
        head = json.dumps({k: v for k, v in st.items() if k != "cells"})[:-1]
        cells = ",\n".join(json.dumps(c) for c in st["cells"])
        parts.append(f'{head}, "cells": [\n{cells}\n]}}')
    return f'{{"workload": "{name}", "strata": [\n' + ",\n".join(parts) + "\n]}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
