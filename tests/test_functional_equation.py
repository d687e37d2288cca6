"""The functional equation applied to itself: deep tolerances, bound
honesty against an independent route, and grid cells that used to hang."""

import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoseries.errors import ResourceLimitError
from autoseries.evaluator import (
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    PHI_SERIES,
    eval_functional_equation,
)
from autoseries.identities import Route, eval_series_spec
from autoseries.precision import Precision


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
    """f(s) far inside ``eps``: the odd split (an independent naive sum) at
    20 more bits where it needs at most 10^5 terms, else the functional
    equation at twice the bits and eps 1e-6."""
    ref_eps = eps * 1e-3
    try:
        return eval_series_spec(
            F_SERIES, s, ref_eps, Route.ODD_SPLIT, Precision(bits + 20, ref_eps), 10**5
        )
    except ResourceLimitError:
        return eval_functional_equation(s, eps * 1e-6, prec=Precision(2 * bits, eps * 1e-6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    s=st.floats(1.2, 6.0),
    log_eps=st.floats(-14.0, -6.0),
    wide=st.booleans(),
)
def test_functional_equation_bound_holds(s, log_eps, wide):
    # the default width (53 bits down to eps 1e-12) or 80 bits
    eps = 10.0**log_eps
    prec = Precision(80, eps) if wide else Precision.for_eps(eps)
    r = eval_functional_equation(s, eps, prec=prec)
    assert r.abs_error_bound <= eps
    ref = _reference(s, eps, prec.working_bits)
    ctx = _mp(2 * prec.working_bits + 40)
    assert abs(ctx.mpf(r.value) - ctx.mpf(ref.value)) <= r.abs_error_bound + ref.abs_error_bound


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
