"""Bit-identity guard: every catalog series on every route ``--method``
allows, at s in {3, 4} and eps in {1e-8, 1e-13}, against values recorded
from an earlier commit in ``data/eval_bit_identity.json``.  Each command
runs under a cap of 10^5 terms, so the guard takes about a second: the one
cell past it, digitsum:3 at (3, 1e-13), sums 1.3e7 terms on the mpmath
path.

The value is compared as the command line prints it (a float's repr, or an
mpf's decimal string), and the bound, the term count and the method must
match exactly too: a refactor of the evaluation code may not move a single
bit.  Cells that the recording commit refused, the capped one among them,
are not recorded.

Regenerate the data at the commit whose values are the reference, from the
repository root:

    PYTHONPATH=src python tests/test_bit_identity.py

It re-runs every cell and writes nothing unless each cell's bound is at
most its eps and each cell that moved lies within its recorded bound plus
its new bound of the recorded value; it prints the moved, unchanged, new
and dropped cells either way, and exits 1 when it refuses.
"""

import contextlib
import io
import json
import sys
from decimal import Decimal
from pathlib import Path


DATA = Path(__file__).resolve().parent / "data" / "eval_bit_identity.json"

SERIES = ("f", "g", "phi", "gamma", "delta", "odd-epsilon", "composite9", "digitsum:3",
          "affine:1:4", "affine:-1:0:shifted")
METHODS = ("auto", "naive", "odd", "functional")
CELLS = [(s, eps) for s in ("3", "4") for eps in ("1e-8", "1e-13")]


def _eval(argv):
    """(exit code, parsed JSON output or None) of one ``eval`` command line."""
    from autoseries.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None


def _record():
    rows = []
    for name in SERIES:
        for method in METHODS:
            for s, eps in CELLS:
                argv = ["eval", name, s, eps, "--method", method, "--format", "json",
                        "--max-terms", "100000"]
                code, doc = _eval(argv)
                if code == 0:
                    rows.append({"argv": argv, **{k: doc[k] for k in
                                 ("value", "abs_error_bound", "terms_used", "method")}})
    return rows


def _recorded():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_recorded_cells_cover_every_series():
    names = {row["argv"][1] for row in _recorded()}
    assert names == set(SERIES)


def test_every_recorded_cell_is_bit_identical():
    for row in _recorded():
        code, doc = _eval(row["argv"])
        assert code == 0, row["argv"]
        got = {k: doc[k] for k in ("value", "abs_error_bound", "terms_used", "method")}
        want = {k: row[k] for k in got}
        assert got == want, row["argv"]


def _faults(old, new):
    """Why ``new``, a fresh row, may not replace ``old``, the recorded row
    of the same command line (None for a new cell)."""
    eps = Decimal(new["argv"][3])
    value, bound = Decimal(new["value"]), Decimal(new["abs_error_bound"])
    faults = [] if bound <= eps else [f"bound {bound} exceeds eps {eps}"]
    if old is not None:
        moved = abs(value - Decimal(old["value"]))
        allowed = Decimal(old["abs_error_bound"]) + bound
        if moved > allowed:
            faults.append(f"value moved by {moved:.3e} > old + new bound {allowed:.3e}")
    return faults


def _cell(argv) -> str:
    """series, s, eps and method of a recorded command line."""
    return " ".join((*argv[1:4], argv[5]))


def _rerecord() -> int:
    """Write the fresh rows if every cell passes ``_faults``; 1 if not."""
    old = {tuple(row["argv"]): row for row in _recorded()}
    new = {tuple(row["argv"]): row for row in _record()}
    groups = {"unchanged": [], "moved": [], "new": [], "dropped": sorted(old.keys() - new.keys())}
    refused = []
    for argv, row in new.items():
        before = old.get(argv)
        group = "new" if before is None else "unchanged" if before == row else "moved"
        groups[group].append(argv)
        refused += [(argv, fault) for fault in _faults(before, row)]
    for group, cells in groups.items():
        print(f"{group}: {len(cells)}")
        for argv in cells:
            if group == "moved":
                before, row = old[argv], new[argv]
                rise = Decimal(row["abs_error_bound"]) - Decimal(before["abs_error_bound"])
                print(f"  {_cell(argv)}: {before['value']} +- {before['abs_error_bound']} "
                      f"({before['method']}, {before['terms_used']} terms) -> {row['value']} "
                      f"+- {row['abs_error_bound']} ({row['method']}, {row['terms_used']} terms); "
                      f"bound {rise / Decimal(argv[3]):+.2e} eps")
            else:
                print(f"  {_cell(argv)}")
    for argv, fault in refused:
        print(f"REFUSED {_cell(argv)}: {fault}", file=sys.stderr)
    if refused:
        print(f"left {DATA} as it was", file=sys.stderr)
        return 1
    DATA.write_text(json.dumps(list(new.values()), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {DATA}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(_rerecord())
