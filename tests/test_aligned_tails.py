"""Naive tails over aligned 2^k Thue-Morse blocks: the law against closed
forms, the counters it saves, and the refusal of a term cap below one."""

import math
import time

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from autoseries import identities
from autoseries.cli import main
from autoseries.errors import DomainError
from autoseries.evaluator import (
    COMPOSITE9_SERIES,
    DEFAULT_MAX_TERMS,
    DELTA_SERIES,
    G_SERIES,
    ODD_PLUS_MINUS_SERIES,
    DenominatorForm,
    SeriesSpec,
    eval_functional_equation,
    eval_naive,
)
from autoseries.identities import Route, eval_series_spec, get_identity, verify
from autoseries.precision import Precision
from autoseries.sequences import CoefficientSequence, thue_morse

_LETTERS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 1.5, 3.0])
_REF_BITS = 300
_f_refs = {}


def _ctx():
    ctx = mpmath.MPContext()
    ctx.prec = _REF_BITS
    return ctx


def _f(s: float):
    """f(s) from the functional equation at 1e-40, and its bound."""
    if s not in _f_refs:
        _f_refs[s] = eval_functional_equation(s, 1e-40)
    return _f_refs[s]


def _closed_form(spec: SeriesSpec, s: float, ctx):
    """(value, bound) of a sum of alphabets over t from zeta(s) and f(s):
    a part {low, high} is mu - delta e over t, mu = (low+high)/2 and
    delta = (high-low)/2; read at n - 1 over n^s it is mu zeta - delta f,
    at n it is mu zeta + delta (2^s+1)/(2^s-1) f, and over (2m+1)^s it is
    mu (1 - 2^-s) zeta - delta (1 + 2^-s) f."""
    f = _f(s)
    x = ctx.power(2, ctx.mpf(s))
    alpha = beta = ctx.zero
    for low, high, shift in spec.coeffs.parts:
        mu, delta = (ctx.mpf(low) + high) / 2, (ctx.mpf(high) - low) / 2
        if spec.denom is DenominatorForm.POWER_OF_ODD_N:
            alpha += mu * (1 - 1 / x)
            beta -= delta * (1 + 1 / x)
        elif shift:
            alpha += mu
            beta -= delta
        else:
            alpha += mu
            beta += delta * (x + 1) / (x - 1)
    value = alpha * ctx.zeta(ctx.mpf(s)) + beta * ctx.mpf(f.value)
    return value, float(abs(beta)) * f.abs_error_bound + 1e-60


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    parts=st.lists(st.tuples(_LETTERS, _LETTERS, st.sampled_from([0, 1])), min_size=1, max_size=3),
    odd=st.booleans(),
    s=st.floats(1.01, 8.0),
    k=st.integers(0, 6),
    blocks=st.integers(1, 24),
)
def test_true_tail_lies_within_the_aligned_block_bound(parts, odd, s, k, blocks):
    # cut where j1 - rho is 2^k times ``blocks``: the series' closed form
    # less the summed prefix, the mean part mu sum_{j>=j1} w(j) (a Hurwitz
    # zeta) and each t_{n-1} part's boundary term lies within the bound
    if odd:
        parts = [(low, high, 0) for low, high, _ in parts]
    spec = SeriesSpec(
        CoefficientSequence.alphabets(*parts),
        DenominatorForm.POWER_OF_ODD_N if odd else DenominatorForm.POWER_OF_N,
    )
    moving = [shift for low, high, shift in parts if low != high]
    rho = 0 if 0 in moving or not moving else 1
    j0 = spec.counter_start
    j1 = rho + (1 << k) * blocks
    n = j1 - j0
    assume(n >= 1)
    ctx = _ctx()
    value, ref_bound = _closed_form(spec, s, ctx)
    step, base = (2, 1) if odd else (1, 0)
    neg_s = -ctx.mpf(s)
    coeffs = spec.coeffs.block(j0, j1).tolist()
    prefix = ctx.fsum(c * ctx.power(step * j + base, neg_s) for j, c in zip(range(j0, j1), coeffs))
    mu = sum((ctx.mpf(low) + high) / 2 for low, high, _ in parts)
    mean = mu * ctx.power(step, neg_s) * ctx.zeta(ctx.mpf(s), ctx.mpf(step * j1 + base) / step)
    boundary = ctx.zero
    if k and rho == 0:
        for low, high, shift in parts:
            if shift:
                letter = high if thue_morse(j1 - 1) else low
                boundary += (letter - (ctx.mpf(low) + high) / 2) * ctx.power(step * j1 + base, neg_s)
    tail = value - prefix - mean - boundary
    assert abs(tail) <= spec.tail_bound(n, s, k) + ref_bound, (n, k, float(tail))


def test_an_unaligned_cut_has_no_block_law():
    with pytest.raises(DomainError, match="aligned block"):
        G_SERIES.tail_bound(100, 2.0, 4)
    with pytest.raises(DomainError, match="no aligned-block tail law"):
        COMPOSITE9_SERIES.tail_bound(127, 2.0, 3)


# -- the counters the law saves -------------------------------------------------


@pytest.mark.parametrize(
    "spec, s, eps, most",
    [
        # the Abel law took 2,023 (g), 2,974,442 (odd-epsilon) and 25,914,763 (phi)
        (G_SERIES, 4.02, 1e-13, 200),
        (DELTA_SERIES, 4.02, 1e-13, 200),
        (ODD_PLUS_MINUS_SERIES, 3.0, 1e-20, 1_300),
        (SeriesSpec(CoefficientSequence.affine(0.0, 1.0, 1)), 1.1, 1e-8, 200),
    ],
    ids=["g", "delta", "odd-epsilon", "phi"],
)
def test_naive_work_guards(spec, s, eps, most):
    start = time.perf_counter()
    r = eval_naive(spec, s, eps)
    assert time.perf_counter() - start < 0.5
    assert r.terms_used <= most and r.abs_error_bound <= eps


def test_composite9_cuts_both_progressions_at_one_counter():
    # n^-s - (4n+3)^-s decreases and is at most n^-s, so one cut of both
    # under the n^-s law (period-doubling keeps k = 0)
    cut = COMPOSITE9_SERIES.required_counters(4.0, 0.7e-13, DEFAULT_MAX_TERMS)
    assert (cut.counters, cut.k) == (3262, 0)
    r = eval_series_spec(COMPOSITE9_SERIES, 4.0, 1e-13)
    ctx = _ctx()
    ref = ctx.power(4, -4) * ctx.zeta(4, ctx.mpf(1) / 4)
    assert abs(ctx.mpf(r.value) - ref) <= r.abs_error_bound <= 1e-13


def test_lemma1_naive_leg_at_1e30(monkeypatch):
    # the Abel law needed about 2.3e15 counters for lemma1's g leg at s = 2
    legs = []

    def spied(spec, *args, **kwargs):
        r = eval_naive(spec, *args, **kwargs)
        legs.append((spec, r.terms_used))
        return r

    monkeypatch.setattr(identities, "eval_naive", spied)
    rec = verify(get_identity("lemma1"), 2.0, 1e-30)
    assert rec.passed
    assert [n for spec, n in legs if spec == G_SERIES] == [20_479]


def test_deep_registry_records_pass_at_1e30(capsys):
    # `verify lemma1 corollary2-phi corollary2-gamma example8 --eps 1e-30`:
    # their naive legs needed about 10^15 terms under the Abel law
    for name in ("lemma1", "corollary2-phi", "corollary2-gamma", "example8"):
        start = time.perf_counter()
        assert main(["verify", name, "--eps", "1e-30"]) == 0, name
        assert time.perf_counter() - start < 5.0, name
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 11 and "FAIL" not in out


# -- a term cap below one ----------------------------------------------------------


@pytest.mark.parametrize("cap", [0, -5])
def test_a_term_cap_below_one_is_refused_by_name(cap):
    calls = [
        lambda: eval_series_spec(G_SERIES, 2.0, 1e-8, max_terms=cap),
        lambda: eval_series_spec(G_SERIES, 2.0, 1e-8, Route.NAIVE, max_terms=cap),
        lambda: eval_functional_equation(2.0, 1e-8, max_terms=cap),
        lambda: eval_functional_equation(3.0, 1e-13, max_terms=cap),
        lambda: eval_naive(COMPOSITE9_SERIES, 3.0, 1e-8, max_terms=cap),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"max_terms must be at least 1, got {cap}"):
            call()
    assert math.isfinite(eval_naive(G_SERIES, 40.0, 1e-8, max_terms=2).value)
