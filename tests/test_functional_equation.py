"""The functional equation applied to f's tail: deep tolerances, bound
honesty against a recorded table and an independent route, the work each
call may do, and grid cells that used to hang."""

import json
import math
import time
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.ctx_base import StandardBaseContext

from autoseries import fixed_point
from autoseries.errors import ResourceLimitError
from autoseries.evaluator import (
    DEFAULT_MAX_TERMS,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    PHI_SERIES,
    SeriesSpec,
    _fe_plan,
    eval_functional_equation,
    eval_naive,
)
from autoseries.fixed_point import _odd_primes
from autoseries.identities import Route, eval_series_spec
from autoseries.precision import Precision
from autoseries.result import Method

#: f(s) at eps 1e-40, recorded from the route before it recurred on f's
#: tail (its levels summed every leaf f(s + J0 + i) directly): each row's
#: value, bound and method as ``autoseries eval f <s> 1e-40 --format json``
#: printed them.
CONSTANTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "certified_constants.json").read_text("utf-8")
)
F_TABLE = {float(row["s"]): row for row in CONSTANTS if row["series"] == "f"}


def _mp(bits: int):
    ctx = mpmath.MPContext()
    ctx.prec = bits
    return ctx


@pytest.mark.parametrize("s, eps", [(2.0, 1e-20), (3.0, 1e-30)])
def test_deep_tolerances_certify_in_seconds(s, eps):
    # summing every inner f(s + k) directly took 52 s and more than 200 s;
    # the target is 2 s, with twice that for a shared 2-core host
    start = time.perf_counter()
    r = eval_functional_equation(s, eps)
    assert time.perf_counter() - start < 4.0
    assert r.abs_error_bound <= eps


def test_f2_at_1e20_matches_the_direct_inner_sums():
    # the same request with every inner f(2 + k) summed directly (7.2e6
    # terms, 52 to 60 s) certified this value within 8.231880687725485e-21
    r = eval_functional_equation(2.0, 1e-20)
    ctx = _mp(200)
    ref = ctx.mpf("0.693153452218084923501457838471")
    assert r.abs_error_bound <= 1e-20
    # the reference's 30 digits round it by less than 1e-30
    assert abs(ctx.mpf(r.value) - ref) <= r.abs_error_bound + 8.231880687725485e-21 + 1e-30


def test_f3_at_1e30_against_1e40_with_40_more_bits():
    # every level sizes its truncation depth at its own s + j: a depth
    # sized for s alone left the value 4e-24 off at 1e-30
    coarse = eval_functional_equation(3.0, 1e-30)
    bits = Precision.for_eps(1e-40).working_bits + 40
    fine = eval_functional_equation(3.0, 1e-40, prec=Precision(bits, 1e-40))
    assert coarse.abs_error_bound <= 1e-30 and fine.abs_error_bound <= 1e-40
    ctx = _mp(bits + 40)
    gap = abs(ctx.mpf(coarse.value) - ctx.mpf(fine.value))
    assert gap <= coarse.abs_error_bound + fine.abs_error_bound


def _reference(s: float, eps: float, bits: int):
    """(value, bound) of f(s) far inside ``eps``: the odd split (an
    independent naive sum) at 20 more bits where it needs at most 10^5
    terms, else the recorded table (None where s is not in it)."""
    ref_eps = eps * 1e-3
    try:
        r = eval_series_spec(
            F_SERIES, s, ref_eps, Route.ODD_SPLIT, Precision(bits + 20, ref_eps), 10**5
        )
    except ResourceLimitError:
        row = F_TABLE.get(s)
        return None if row is None else (row["value"], float(row["abs_error_bound"]))
    return r.value, r.abs_error_bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    s=st.one_of(st.sampled_from(sorted(x for x in F_TABLE if 1.2 <= x <= 6.0)), st.floats(1.2, 6.0)),
    log_eps=st.floats(-14.0, -6.0),
    wide=st.booleans(),
)
def test_functional_equation_bound_holds(s, log_eps, wide):
    # the default width (53 bits down to eps 1e-12) or 80 bits
    eps = 10.0**log_eps
    prec = Precision(80, eps) if wide else Precision.for_eps(eps)
    ref = _reference(s, eps, prec.working_bits)
    assume(ref is not None)
    r = eval_functional_equation(s, eps, prec=prec)
    assert r.abs_error_bound <= eps
    ctx = _mp(2 * prec.working_bits + 40)
    assert abs(ctx.mpf(r.value) - ctx.mpf(ref[0])) <= r.abs_error_bound + ref[1]


_TABLE_EPS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-20, 1e-30)


@pytest.mark.parametrize("s", sorted(F_TABLE))
def test_functional_equation_against_the_recorded_table(s):
    # both paths: the default width (float64 down to 1e-12) and 80 bits,
    # or the default width where 80 bits cannot certify eps
    row = F_TABLE[s]
    ctx = _mp(400)
    ref, ref_bound = ctx.mpf(row["value"]), float(row["abs_error_bound"])
    for eps in _TABLE_EPS:
        default = Precision.for_eps(eps)
        wide = Precision(max(80, default.working_bits), eps)
        for prec in (default, wide):
            r = eval_functional_equation(s, eps, prec=prec)
            assert r.abs_error_bound <= eps, (s, eps, prec.working_bits)
            assert isinstance(r.value, float) is prec.is_double
            assert abs(ctx.mpf(r.value) - ref) <= r.abs_error_bound + ref_bound, (s, eps)


# -- the work one call may do -------------------------------------------------------


def _spy(monkeypatch, owner, name: str) -> list:
    """The arguments of every call of ``owner.name`` from now on."""
    original = getattr(owner, name)
    calls = []

    def spied(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)
    return calls


@pytest.mark.parametrize("s, eps", [(3.02, 1e-13), (3.51, 1e-13), (4.01, 1e-14), (2.0, 1e-30), (8.0, 1e-20),
                                    (1.51, 1e-13), (2.02, 1e-14), (4.01, 1e-20)])
def test_mpmath_call_builds_one_table_and_powers_only_small_primes(monkeypatch, s, eps):
    # a term cap of 128, below every direct count here, keeps the levels
    # at M = 16 where f summed directly has a short fixed-point head (the
    # first five cells); the last three take the levels by default too
    tables = _spy(monkeypatch, fixed_point, "_Weights")
    bases = _spy(monkeypatch, StandardBaseContext, "power")
    r = eval_functional_equation(s, eps, max_terms=128)
    assert r.method is Method.FUNCTIONAL_EQUATION and not isinstance(r.value, float)
    assert len(tables) == 1
    allowed = {2} | {p for p in _odd_primes(math.ceil(4 * s)) if p < 4 * s}
    assert {int(base) for _, base, _ in bases} <= allowed


@pytest.mark.parametrize("s, eps", [(2.2, 1e-12), (2.5, 1e-12), (2.0, 1e-10), (1.1, 1e-8)])
def test_float_call_builds_one_block(monkeypatch, s, eps):
    # aligned blocks sum f directly in a few hundred float64 counters at
    # these eps, so the levels run only under a term cap below that; they
    # read one fixed-point table, as on the mpmath path, and no float64 block
    tables = _spy(monkeypatch, fixed_point, "_Weights")
    blocks = _spy(monkeypatch, SeriesSpec, "term_block")
    r = eval_functional_equation(s, eps, max_terms=64)
    assert r.method is Method.FUNCTIONAL_EQUATION and isinstance(r.value, float)
    assert len(tables) == 1 and blocks == []
    rn = eval_naive(F_SERIES, s, eps)
    assert abs(rn.value - r.value) <= rn.abs_error_bound + r.abs_error_bound


def test_plan_asks_for_counters_at_most_twice(monkeypatch):
    calls = _spy(monkeypatch, SeriesSpec, "required_counters")
    for s in (1.01, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0, 40.0):
        for eps in (1e-8, 1e-10, 1e-12, 1e-14, 1e-20, 1e-30):
            calls.clear()
            _fe_plan(s, eps, Precision.for_eps(eps), DEFAULT_MAX_TERMS)
            assert len(calls) <= 2, (s, eps)


@pytest.mark.parametrize(
    "spec, route, s",
    [
        (F_SERIES, Route.FUNCTIONAL_EQUATION, 1.1),
        (G_SERIES, Route.AUTO, 1.1),
        (PHI_SERIES, Route.DECOMPOSED, 1.1),
        (GAMMA_SERIES, Route.DECOMPOSED, 1.1),
        (G_SERIES, Route.AUTO, 2.0),
    ],
    ids=["f-1.1", "g-1.1", "phi-1.1", "gamma-1.1", "g-2"],
)
def test_grid_cells_at_1e14_answer_within_a_second(spec, route, s):
    # the routes of `autoseries eval <name>`; these cells ran past 30 s
    start = time.perf_counter()
    try:
        r = eval_series_spec(spec, s, 1e-14, route)
    except ResourceLimitError:
        pass
    else:
        assert r.abs_error_bound <= 1e-14
    assert time.perf_counter() - start < 1.0
