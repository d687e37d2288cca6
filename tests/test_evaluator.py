"""Evaluator routes: cross-method oracles, tail-bound honesty, determinism."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.ctx_base import StandardBaseContext

from autoseries import fixed_point
from autoseries.errors import DomainError, ResourceLimitError
from autoseries.evaluator import (
    COMPOSITE9_SERIES,
    DEFAULT_MAX_TERMS,
    DELTA_SERIES,
    DenominatorForm,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
    ZETA_SERIES,
    _FE_CAPS,
    _FE_M,
    _ROUNDING_OPS,
    _fe_plan,
    _fe_weights,
    _float_budget,
    _naive_head,
    _naive_truncation,
    _sum,
    depth_for,
    eval_functional_equation,
    eval_naive,
    eval_phi_gamma,
    partial_sum,
)
from autoseries.fixed_point import _WEIGHT_UNITS, _odd_primes, _Weights
from autoseries.identities import Route, eval_series_spec
from autoseries.precision import Precision
from autoseries.result import Method
from autoseries.sequences import CoefficientSequence, pm_thue_morse, thue_morse
from autoseries.special_functions import riemann_zeta

_R2 = 2.0**0.5


# -- series spec plumbing -----------------------------------------------------


def test_shift_equivalence_is_the_same_series():
    # a stream read at n - 1 puts coefficient n-1 at denominator n:
    # f = sum e_{n-1}/n^s and phi = sum t_{n-1}/n^s, against scalar sums
    for s in (2.0, 3.5):
        for n in (1, 2, 7, 100, 5000):
            f_ref = math.fsum(pm_thue_morse(m - 1) / m**s for m in range(1, n + 1))
            phi_ref = math.fsum(thue_morse(m - 1) / m**s for m in range(1, n + 1))
            assert partial_sum(F_SERIES, s, n) == pytest.approx(f_ref, rel=0, abs=1e-14)
            assert partial_sum(PHI_SERIES, s, n) == pytest.approx(phi_ref, rel=0, abs=1e-14)


def test_spec_validation():
    # the odd denominators start at counter 0, which a stream read at
    # n - 1 does not have
    for seq in (CoefficientSequence.delta(), CoefficientSequence.affine(1, -1, 1)):
        with pytest.raises(DomainError, match="starts at index 1"):
            SeriesSpec(seq, DenominatorForm.POWER_OF_ODD_N)
    with pytest.raises(DomainError):
        SeriesSpec(CoefficientSequence.thue_morse(), denom=COMPOSITE9_SERIES.denom)


def test_gamma_prefix_matches_hand_unrolled_terms():
    # first eight 0/1 values at n = 1..8 are 1,1,0,1,0,0,1,1
    prefix = [1, 1, 0, 1, 0, 0, 1, 1]
    assert [thue_morse(n) for n in range(1, 9)] == prefix
    oracle = math.fsum(t / n**2 for n, t in zip(range(1, 9), prefix))
    assert partial_sum(GAMMA_SERIES, 2.0, 8) == pytest.approx(oracle, abs=1e-15)


# -- naive route ---------------------------------------------------------------


def test_naive_zeta_coefficients():
    r = eval_naive(ZETA_SERIES, 2.0, 1e-6)
    assert abs(r.value - math.pi**2 / 6) <= 1e-6
    assert r.abs_error_bound <= 1e-6
    assert r.method is Method.NAIVE


def test_naive_reports_required_terms_beyond_cap():
    # aligned 2^k blocks cut g(1.05) at 1e-12 after 768 counters
    with pytest.raises(ResourceLimitError, match=r"N"):
        eval_naive(G_SERIES, 1.05, 1e-12, max_terms=100)


def test_naive_rejects_bad_domain():
    with pytest.raises(DomainError):
        eval_naive(F_SERIES, 1.0, 1e-6)
    with pytest.raises(DomainError):
        eval_naive(F_SERIES, 2.0, -1e-6)


def test_naive_digit_sum_series_against_partial_sum_oracle():
    # extrapolation-style references are unreliable for fractal coefficients,
    # so the oracle is a long plain partial sum plus the integral tail bracket
    spec = SeriesSpec(CoefficientSequence.digit_sum(3))
    s = 2.5
    r = eval_naive(spec, s, 1e-6)
    n_max = 2_000_000
    partial = partial_sum(spec, s, n_max)
    tail_hi = spec.tail_bound(n_max, s)
    assert partial - r.abs_error_bound <= r.value <= partial + tail_hi + r.abs_error_bound


def test_determinism_bit_identical():
    a = eval_naive(DELTA_SERIES, 2.0, 1e-7)
    b = eval_naive(DELTA_SERIES, 2.0, 1e-7)
    assert a == b
    c = eval_functional_equation(2.0, 1e-10)
    d = eval_functional_equation(2.0, 1e-10)
    assert c == d


# -- odd split -----------------------------------------------------------------


def test_odd_series_first_term_dominance_at_six():
    r = eval_naive(ODD_PLUS_MINUS_SERIES, 6.0, 1e-12)
    assert abs(r.value - 1.0) < 3.0**-6 * 1.1


def test_odd_split_relation_at_four():
    f = eval_functional_equation(4.0, 1e-10)
    a = eval_naive(ODD_PLUS_MINUS_SERIES, 4.0, 1e-10)
    factor = 2.0**4 / (2.0**4 + 1.0)
    resid = abs(f.value - factor * a.value)
    assert resid <= f.abs_error_bound + factor * a.abs_error_bound


def test_odd_series_even_odd_split_of_g():
    # A(s) = sum e_m/(2m)^s - sum e_m/m^s = (2^-s - 1) g(s)
    s = 2.0
    a = eval_naive(ODD_PLUS_MINUS_SERIES, s, 1e-7)
    g = eval_naive(G_SERIES, s, 1e-7)
    factor = 2.0**-s - 1.0
    resid = abs(a.value - factor * g.value)
    assert resid <= a.abs_error_bound + abs(factor) * g.abs_error_bound


def test_decomposed_zeta_only_is_tagged_euler_maclaurin():
    # the all-ones alphabet has beta = 0, so only the zeta leaf runs; phi's
    # f leaf names the result: the FE's levels at (3, 1e-20), where f summed
    # directly has a fixed-point head past the mpmath path's cap
    assert eval_series_spec(ZETA_SERIES, 2, 1e-12, Route.DECOMPOSED).method is Method.EULER_MACLAURIN
    assert eval_series_spec(PHI_SERIES, 3, 1e-20, Route.DECOMPOSED).method is Method.FUNCTIONAL_EQUATION
    assert eval_series_spec(PHI_SERIES, 2, 1e-12, Route.DECOMPOSED).method is Method.NAIVE


def test_f_via_odd_split_method_tag():
    r = eval_series_spec(F_SERIES, 3.0, 1e-9, Route.ODD_SPLIT)
    assert r.method is Method.ODD_DECOMPOSITION
    f = eval_functional_equation(3.0, 1e-10)
    assert abs(r.value - f.value) <= r.abs_error_bound + f.abs_error_bound


# -- functional equation ---------------------------------------------------------


def test_functional_equation_agrees_with_naive_at_two():
    rn = eval_naive(F_SERIES, 2.0, 1e-7)
    rf = eval_functional_equation(2.0, 1e-10)
    assert abs(rn.value - rf.value) <= 2e-7
    assert abs(rn.value - rf.value) <= rn.abs_error_bound + rf.abs_error_bound


def test_lemma_relation_f_against_g():
    # f(2) = -(3/5) g(2), the two routes being fully independent
    rf = eval_functional_equation(2.0, 1e-10)
    rg = eval_naive(G_SERIES, 2.0, 1e-8)
    resid = abs(rf.value + 0.6 * rg.value)
    assert resid <= rf.abs_error_bound + 0.6 * rg.abs_error_bound


def test_shift_ratio_on_wide_grid():
    # f = (1-2^s)/(1+2^s) g, down at s = 1.5 where naive g is still affordable
    grid_eps = {1.5: 1e-3, 2.0: 1e-7, 3.0: 1e-9, 4.0: 1e-9, 6.0: 1e-10}
    for s, eps in grid_eps.items():
        rf = eval_functional_equation(s, 1e-10)
        rg = eval_naive(G_SERIES, s, eps)
        ratio = (1.0 - 2.0**s) / (1.0 + 2.0**s)
        resid = abs(rf.value - ratio * rg.value)
        assert resid <= rf.abs_error_bound + abs(ratio) * rg.abs_error_bound, s


def test_binomial_weights_at_integer_s():
    # binom(s+k-1, k) at s = 2 is k+1, so w_k = (k+1) 2^(-2-k), exactly
    # representable at 60 bits: each fixed-point weight is within its error
    w, err = _fe_weights(2.0, 20, 60)
    for k in range(1, 22):
        assert abs(w[k] - ((k + 1) << (58 - k))) <= err[k] < 50
    # at level j the weights are those of s + j: w_1(5) = 5 2^-6
    w, err = _fe_weights(2.0, 3, 60, level=3)
    assert abs(w[1] - (5 << 54)) <= err[1]


def test_cross_method_grid():
    # naive tolerances picked so the direct sums stay affordable per s
    naive_eps = {1.5: 1e-3, 2.0: 1e-7, 3.0: 1e-9, 4.0: 1e-10, 6.0: 1e-12}
    for s, eps in naive_eps.items():
        rn = eval_naive(F_SERIES, s, eps)
        rf = eval_functional_equation(s, 1e-10)
        assert abs(rn.value - rf.value) <= rn.abs_error_bound + rf.abs_error_bound, s


def test_functional_equation_levels_against_naive():
    # where the direct sum fits the path's direct caps the route takes it
    # (and says so): float64 (2, 1e-12) and mpmath (8, 1e-14), (3, 1e-8),
    # and (3, 1e-13), (4, 1e-14) and (6, 1e-20), whose fixed-point heads
    # are 6, 7 and 43 counters; the plans below keep levels (in float64
    # only under a term cap below the direct count: aligned blocks sum f
    # directly in a few hundred counters there), which must agree with an
    # independent naive sum
    assert eval_functional_equation(2.0, 1e-12).method is Method.NAIVE
    for s, eps in ((8.0, 1e-14), (3.0, 1e-13), (4.0, 1e-14), (6.0, 1e-20)):
        assert eval_functional_equation(s, eps).method is Method.NAIVE
    assert eval_functional_equation(3.0, 1e-8, Precision(80, 1e-8)).method is Method.NAIVE
    cells = [(2.0, 1e-10, 53, 64, 7), (2.0, 1e-12, 53, 64, 9), (2.5, 1e-12, 53, 64, 8),
             (1.5, 1e-13, 74, DEFAULT_MAX_TERMS, 10), (2.0, 1e-14, 77, DEFAULT_MAX_TERMS, 10),
             (4.0, 1e-20, 97, DEFAULT_MAX_TERMS, 13), (6.0, 1e-30, 130, DEFAULT_MAX_TERMS, 19)]
    for s, eps, bits, cap, j0 in cells:
        prec = Precision(bits, eps)
        assert _fe_plan(s, eps, prec, cap)[0] == j0, (s, eps)
        rf = eval_functional_equation(s, eps, prec, cap)
        assert rf.method is Method.FUNCTIONAL_EQUATION
        assert isinstance(rf.value, float) is (bits == 53)
        rn = eval_naive(F_SERIES, s, eps, prec)
        assert abs(rn.value - rf.value) <= rn.abs_error_bound + rf.abs_error_bound, (s, eps)


def _skipped_terms(p: float, depth: int, m: int) -> float:
    """sum_{k>depth} w_k(p) 2(m+1)^-(p+k), summed term by term (in logs)
    until a term no longer moves the sum."""
    def term(k):
        log_w = math.lgamma(p + k) - math.lgamma(p) - math.lgamma(k + 1) - (p + k) * math.log(2)
        return 2.0 * math.exp(log_w - (p + k) * math.log(m + 1.0))

    total, k = 0.0, depth + 1
    while (t := term(k)) > 1e-18 * total or k < p:
        total += t
        k += 1
    return total


@pytest.mark.parametrize(
    "bits,epsilons",
    [(53, (1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12)), (120, (1e-8, 1e-12, 1e-14, 1e-20, 1e-30))],
)
def test_functional_equation_plan_follows_the_term_caps(bits, epsilons):
    # J0 = 0 exactly when f(s) summed directly fits the direct caps (at
    # most the float64 cap of counters, and on the mpmath path a
    # fixed-point head of at most the mpmath cap), else the least J0 >= 1
    # whose leaves g_M(s + J0 + i), each within the Abel tail 2(M+1)^-(s+J0)
    # of 0, fit 0.45 eps, with each depth the least whose remainder fits
    # 0.45 eps / J0
    def direct(p, eps):
        try:
            n = F_SERIES.required_counters(p, 0.95 * eps, DEFAULT_MAX_TERMS).counters
        except ResourceLimitError:
            return False
        return n <= _FE_CAPS[True] and (
            bits == 53 or _naive_head(F_SERIES, p, eps, n)[0] <= _FE_CAPS[False])

    m = _FE_M
    for s in (1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 40.0):
        for eps in epsilons:
            j0, ks, plan_m = _fe_plan(s, eps, Precision(bits, eps), DEFAULT_MAX_TERMS)
            assert (j0 == 0) is direct(s, eps), (s, eps)
            if j0 == 0:
                assert ks == [] and plan_m == 0
                continue
            leaf = [2.0 * (m + 1.0) ** -math.nextafter(s + j, 0.0) for j in (j0 - 1, j0)]
            assert plan_m == m and len(ks) == j0, (s, eps)
            assert leaf[1] <= 0.45 * eps and (j0 == 1 or leaf[0] > 0.45 * eps), (s, eps)
            for j, k in enumerate(ks):
                assert k == depth_for(s + j, 0.45 * eps / j0, m)
                assert _skipped_terms(s + j, k, m) <= 0.45 * eps / j0, (s, eps, j)


# -- 0/1 series -------------------------------------------------------------------


def test_phi_gamma_against_naive():
    for s in (2.0, 3.0, 4.0):
        pa = eval_phi_gamma("phi", s, 1e-9)
        pn = eval_naive(PHI_SERIES, s, 1e-7)
        assert abs(pa.value - pn.value) <= pa.abs_error_bound + pn.abs_error_bound
        ga = eval_phi_gamma("gamma", s, 1e-9)
        gn = eval_naive(GAMMA_SERIES, s, 1e-7)
        assert abs(ga.value - gn.value) <= ga.abs_error_bound + gn.abs_error_bound


@pytest.mark.parametrize(
    "which,s,eps",
    [(w, s, e) for w in ("phi", "gamma") for s in (2.0, 3.71) for e in (1e-8, 1e-12)]
    + [("phi", 3.0, 1e-13), ("gamma", 4.0, 1e-14)],
)
def test_phi_gamma_is_the_decomposed_route(which, s, eps):
    spec = PHI_SERIES if which == "phi" else GAMMA_SERIES
    a = eval_phi_gamma(which, s, eps)
    b = eval_series_spec(spec, s, eps, Route.DECOMPOSED)
    assert a == b


@pytest.mark.parametrize("spec", [G_SERIES, DELTA_SERIES, PHI_SERIES])
def test_functional_equation_route_is_f_only(spec):
    with pytest.raises(DomainError, match=re.escape(spec.label())):
        eval_series_spec(spec, 3.0, 1e-8, Route.FUNCTIONAL_EQUATION)
    f = eval_series_spec(F_SERIES, 3.0, 1e-8, Route.FUNCTIONAL_EQUATION)
    assert f == eval_functional_equation(3.0, 1e-8)


def test_theorem_combination_examples():
    # 5 phi(2) + 3 gamma(2) = 4 zeta(2) = 2 pi^2/3 and 9 phi(3) + 7 gamma(3) = 8 zeta(3)
    ph2 = eval_phi_gamma("phi", 2.0, 1e-9)
    ga2 = eval_phi_gamma("gamma", 2.0, 1e-9)
    assert abs(5 * ph2.value + 3 * ga2.value - 2 * math.pi**2 / 3) <= 1e-8
    ph3 = eval_phi_gamma("phi", 3.0, 1e-9)
    ga3 = eval_phi_gamma("gamma", 3.0, 1e-9)
    z3 = riemann_zeta(3.0, Precision(target_eps=1e-12))
    assert abs(9 * ph3.value + 7 * ga3.value - 8 * z3.value) <= 1e-8


def test_index_split_sum_relation():
    # gamma + phi - 2^-s (gamma - phi) - zeta = 0 (even/odd index split)
    for s in (2.0, 3.0, 4.0):
        ph = eval_phi_gamma("phi", s, 1e-9)
        ga = eval_phi_gamma("gamma", s, 1e-9)
        z = riemann_zeta(s, Precision(target_eps=1e-10))
        resid = abs(ga.value + ph.value - 2.0**-s * (ga.value - ph.value) - z.value)
        bound = (
            (1 + 2.0**-s) * (ph.abs_error_bound + ga.abs_error_bound) + z.abs_error_bound
        )
        assert resid <= bound


# -- composite form ---------------------------------------------------------------


def test_composite9_even_terms_vanish():
    blk = COMPOSITE9_SERIES.term_block(1, 4001, 2.0)
    assert all(blk[n - 1] == 0.0 for n in range(2, 4001, 2))


def test_composite9_against_hurwitz():
    from autoseries.special_functions import hurwitz_zeta

    for s, eps in ((2.0, 1e-6), (3.0, 1e-8)):
        rc = eval_naive(COMPOSITE9_SERIES, s, eps)
        hz = hurwitz_zeta(s, 0.25, Precision(target_eps=1e-10))
        resid = abs(rc.value - 4.0**-s * hz.value)
        assert resid <= rc.abs_error_bound + 4.0**-s * hz.abs_error_bound


_PD_GRID_S = (1.5, 2.0, 3.0, 4.0, 5.5)
_PD_GRID_EPS = (1e-6, 1e-8, 1e-10, 1e-13)


def _pd_paths(eps: float):
    """(precision, term cap): the float64 path where 53 bits certify eps,
    and the fixed-point mpmath path at 64 bits or the default width."""
    paths = []
    if Precision.for_eps(eps).is_double:
        paths.append((Precision(53, eps), 4 * 10**6))
    wide = Precision(max(64, Precision.for_eps(eps).working_bits), eps)
    paths.append((wide, 2 * 10**5))
    return paths


def test_composite9_bound_honesty_against_hurwitz():
    # Abel tail with mu = 1/3 and B(M) = 1 + (log2 M)/4, and the mean part
    # over both progressions: against 4^-s zeta(s, 1/4) at twice the bits;
    # a request past the cap must be refused with a named limit
    checked = 0
    for s in _PD_GRID_S:
        for eps in _PD_GRID_EPS:
            for prec, cap in _pd_paths(eps):
                try:
                    r = eval_naive(COMPOSITE9_SERIES, s, eps, prec, cap)
                except ResourceLimitError:
                    continue
                checked += 1
                assert r.abs_error_bound <= eps
                assert prec.is_double == isinstance(r.value, float)
                ctx = mpmath.MPContext()
                ctx.prec = 2 * prec.working_bits
                ref = ctx.power(4, -ctx.mpf(s)) * ctx.zeta(ctx.mpf(s), ctx.mpf(1) / 4)
                err = abs(ctx.mpf(r.value) - ref)
                assert err <= r.abs_error_bound, (s, eps, prec.working_bits)
    assert checked >= 25


def test_period_doubling_series_against_itself_wider():
    # sum_{n>=1} p_n/n^s: every request against the same series at 20 more
    # bits and eps 1e-3, where that reference stays under 2e5 terms
    spec = SeriesSpec(CoefficientSequence.period_doubling())
    checked = 0
    for s in _PD_GRID_S:
        for eps in _PD_GRID_EPS:
            ref_eps = eps * 1e-3
            if spec.required_counters(s, 0.7 * ref_eps, 10**12).counters > 2 * 10**5:
                continue
            for prec, cap in _pd_paths(eps):
                r = eval_naive(spec, s, eps, prec, cap)
                ref = eval_naive(spec, s, ref_eps, Precision(prec.working_bits + 20, ref_eps))
                assert r.abs_error_bound <= eps
                ctx = mpmath.MPContext()
                ctx.prec = prec.working_bits + 60
                diff = abs(ctx.mpf(r.value) - ctx.mpf(ref.value))
                assert diff <= r.abs_error_bound + ref.abs_error_bound, (s, eps, prec.working_bits)
                checked += 1
    assert checked >= 15


@pytest.mark.parametrize(
    "spec",
    [SeriesSpec(CoefficientSequence.period_doubling()), COMPOSITE9_SERIES],
    ids=lambda spec: spec.label(),
)
def test_period_doubling_tail_dominates_its_abel_sum(spec):
    # the tail law must dominate |R_J| w_J + sum_{n>J} |R_n| (w_{n-1} - w_n)
    # over the stream's actual partial sums R_n = sum_{m<n} (c_m - 1/3),
    # here up to n = 2^18, for the J where |R_J| peaks; 2 w_J, the bound
    # of a constant B = 1, falls short by up to 1.8 times
    top = 2**18
    c = spec.coeffs.block(0, top + 1)
    abs_r = np.abs(np.concatenate([[0.0], np.cumsum(3.0 * c - 1.0)])) / 3.0
    j = np.arange(1, top + 1, dtype=np.float64)
    for s in (1.1, 1.5, 2.0, 3.0):
        w = np.zeros(top + 1)
        for sign, d, step in spec.denominators(1):
            w[1:] += sign * (d + step * (j - 1)) ** -s
        for k in range(3, 17):
            j1 = 2**k + int(np.argmax(abs_r[2**k : 2 ** (k + 1)]))
            steps = w[j1 : top - 1] - w[j1 + 1 : top]
            abel = abs_r[j1] * w[j1] + np.sum(abs_r[j1 + 1 : top] * steps)
            assert abel <= spec.tail_bound(j1 - spec.counter_start, s), (s, j1)


def test_composite9_work_counts():
    # 2.15e6 terms under the constant majorant at (2, 1e-6); 14,701 at
    # (4.01, 1e-13) on the mpmath path
    assert eval_naive(COMPOSITE9_SERIES, 2.0, 1e-6).terms_used <= 5_000
    r = eval_series_spec(COMPOSITE9_SERIES, 4.01, 1e-13)
    assert not isinstance(r.value, float) and r.terms_used <= 5_000


def test_delta_bridge_to_odd_series():
    for s in (2.0, 3.0):
        rd = eval_naive(DELTA_SERIES, s, 1e-6)
        ra = eval_naive(ODD_PLUS_MINUS_SERIES, s, 1e-6)
        factor = 4.0**s / (4.0**s - 1.0)
        resid = abs(rd.value - factor * ra.value)
        assert resid <= rd.abs_error_bound + factor * ra.abs_error_bound


# -- bound honesty ------------------------------------------------------------------


def test_bound_honesty_spot_checks():
    cases = [
        (ZETA_SERIES, 2.5, 1e-5),
        (G_SERIES, 2.0, 1e-5),
        (DELTA_SERIES, 3.0, 1e-7),
        (ODD_PLUS_MINUS_SERIES, 2.0, 1e-5),
    ]
    for spec, s, eps in cases:
        coarse = eval_naive(spec, s, eps)
        fine = eval_naive(spec, s, eps / 100.0)
        assert abs(coarse.value - fine.value) <= coarse.abs_error_bound


def test_tail_bound_is_truthful_for_positive_series():
    # for the all-ones series the discarded tail is known: zeta(s) - partial
    s = 2.0
    r = eval_naive(ZETA_SERIES, s, 1e-5)
    true_value = math.pi**2 / 6
    assert abs(r.value - true_value) <= r.abs_error_bound


# -- discrepancy (Abel) tails ---------------------------------------------------------

#: the values (low, high) of a two-letter stream where t_n = 0 and 1:
#: e_n, t_n and three more alphabets
_TWO_LETTER = [(1.0, -1.0), (0.0, 1.0), (-1.0, 0.0), (1.0 / 3.0, 4.0 / 3.0), (-_R2, 1.0 - _R2)]
_ABEL_CASES = [
    (SeriesSpec(CoefficientSequence.affine(*letters, shift), denom), letters)
    for letters in _TWO_LETTER
    for shift, denom in (
        (0, DenominatorForm.POWER_OF_N),
        (1, DenominatorForm.POWER_OF_N),
        (0, DenominatorForm.POWER_OF_ODD_N),
    )
] + [(DELTA_SERIES, None)]
_REF_BITS = 106
_ref_leaves = {}


def _zeta_f_reference(spec, letters, s):
    """(value, bound) of ``spec`` from zeta(s) and f(s) at 106 bits.

    With c = mu - delta e over t: sum c_{n-1}/n^s = mu zeta - delta f,
    sum c_n/n^s = mu zeta + delta (2^s+1)/(2^s-1) f,
    sum c_m/(2m+1)^s = mu (1-2^-s) zeta - delta (1+2^-s) f, and
    sum d_n/n^s = 2^s/(2^s-1) f.
    """
    if s not in _ref_leaves:
        _ref_leaves[s] = (
            riemann_zeta(s, Precision(_REF_BITS, 1e-25)),
            eval_functional_equation(s, 1e-12, prec=Precision(_REF_BITS, 1e-12)),
        )
    zeta, f = _ref_leaves[s]
    with mpmath.workprec(_REF_BITS):
        x = mpmath.mpf(2) ** s
        if letters is None:
            alpha, beta = 0, x / (x - 1)
        else:
            mu = (mpmath.mpf(letters[0]) + letters[1]) / 2
            delta = (mpmath.mpf(letters[1]) - letters[0]) / 2
            if spec.denom is DenominatorForm.POWER_OF_ODD_N:
                alpha, beta = mu * (1 - 1 / x), -delta * (1 + 1 / x)
            elif spec.coeffs.min_index:
                alpha, beta = mu, -delta
            else:
                alpha, beta = mu, delta * (x + 1) / (x - 1)
        value = alpha * zeta.value + beta * f.value
        bound = abs(alpha) * zeta.abs_error_bound + abs(beta) * f.abs_error_bound + 1e-25
    return value, float(bound)


@pytest.mark.parametrize("spec, letters", _ABEL_CASES, ids=[c[0].label() for c in _ABEL_CASES])
def test_abel_tail_bound_honesty(spec, letters):
    for s in (1.5, 2.0, 3.0, 4.0):
        ref, ref_bound = _zeta_f_reference(spec, letters, s)
        for eps in (1e-6, 1e-8, 1e-10):
            r = eval_naive(spec, s, eps)
            assert r.abs_error_bound <= eps
            assert abs(r.value - ref) <= r.abs_error_bound + ref_bound, (s, eps)


def test_abel_tail_counts_for_g_at_two():
    # the Abel law 2B (N+1)^-s <= 0.95 eps took N = 14,509 counters; blocks
    # of 2^4 cut at N + 1 = 112 (= 7 * 16), and no aligned cut of any order
    # with fewer counters fits 0.95 eps
    r = eval_naive(G_SERIES, 2.0, 1e-8)
    assert r.terms_used == 111
    assert G_SERIES.required_counters(2.0, 0.95e-8, DEFAULT_MAX_TERMS).k == 4
    assert G_SERIES.tail_bound(111, 2.0, 4) <= 0.95e-8
    assert G_SERIES.tail_bound(14_509, 2.0) <= 0.95e-8 < G_SERIES.tail_bound(14_508, 2.0)
    for k in range(8):
        for n in range((1 << k) - 1, 111, 1 << k):
            if n >= 2:
                assert G_SERIES.tail_bound(n, 2.0, k) > 0.95e-8, (n, k)


def test_odd_mean_tail_at_huge_s():
    # 2^-s underflows to 0 in the mean part's coefficient; t_0 = 0 and
    # 3^-1100 underflows too, so the value is 0
    spec = SeriesSpec(CoefficientSequence.thue_morse(), denom=DenominatorForm.POWER_OF_ODD_N)
    r = eval_naive(spec, 1100.0, 1e-8)
    assert r.value == 0.0 and r.abs_error_bound <= 1e-8


def test_constant_alphabet_is_all_mean():
    # B = 0: two summed terms, the rest is zeta(s, 3) from Euler-Maclaurin
    r = eval_naive(ZETA_SERIES, 2.0, 1e-12)
    assert r.terms_used < 30
    assert abs(r.value - math.pi**2 / 6) <= r.abs_error_bound <= 1e-12


@pytest.mark.parametrize(
    "a, b, s, eps", [(2.0, 3.0, 4.0, 1e-12), (300.0, 301.0, 3.0, 1e-10), (2.0, 3.0, 2.0, 1e-12)]
)
def test_zeta_leaf_finer_than_double_guard_bits(a, b, s, eps):
    # the zeta leaves' shares, 0.25 eps/|mu| on both routes, fall under
    # 2^-43, which 53 bits with 10 guard bits cannot certify: the leaves run
    # wider and the values come back as floats
    spec = SeriesSpec(CoefficientSequence.affine(a, b))
    naive = eval_naive(spec, s, eps)
    decomposed = eval_series_spec(spec, s, eps, Route.DECOMPOSED)
    for r in (naive, decomposed):
        assert isinstance(r.value, float) and r.abs_error_bound <= eps
    assert abs(naive.value - decomposed.value) <= naive.abs_error_bound + decomposed.abs_error_bound
    if s >= 3.0:
        # sum c_n/n^s = mu zeta + delta (2^s+1)/(2^s-1) f, both leaves to 1e-16
        prec = Precision(_REF_BITS, 1e-16)
        zeta = riemann_zeta(s, prec)
        f = eval_functional_equation(s, 1e-16, prec=prec)
        with mpmath.workprec(_REF_BITS):
            x = mpmath.mpf(2) ** s
            mu, delta = (mpmath.mpf(a) + b) / 2, (mpmath.mpf(b) - a) / 2
            ref = mu * zeta.value + delta * (x + 1) / (x - 1) * f.value
        ref_bound = abs(mu) * 1e-16 + abs(delta) * 2 * 1e-16
        assert abs(naive.value - ref) <= naive.abs_error_bound + ref_bound


# -- high working precision ----------------------------------------------------------


def test_mp_phi_matches_high_precision_reference():
    # 110-bit evaluation of the shifted 0/1 series against a 200-bit direct
    # sum with integral tail (tail at N=10^4, s=6 is ~2e-21)
    prec = Precision(working_bits=110, target_eps=1e-20)
    r = eval_phi_gamma("phi", 6.0, 1e-20, prec=prec)
    n_max = 10**4
    with mpmath.workprec(200):
        ref = mpmath.fsum(
            mpmath.mpf(thue_morse(n - 1)) / mpmath.power(n, 6) for n in range(1, n_max + 1)
        )
        tail = mpmath.mpf(n_max) ** -5 / 5
        assert abs(r.value - ref) <= tail + mpmath.mpf(r.abs_error_bound)


def test_mp_summation_path():
    prec = Precision(working_bits=90, target_eps=1e-20)
    r = eval_naive(F_SERIES, 6.0, 1e-20, prec=prec)
    with mpmath.workprec(140):
        ref = mpmath.nsum(
            lambda n: mpmath.mpf(1 - 2 * thue_morse(int(n) - 1)) / mpmath.power(n, 6),
            [1, mpmath.inf],
        )
        assert abs(r.value - ref) < mpmath.mpf(10) ** -19
    double = eval_naive(F_SERIES, 6.0, 1e-12)
    assert abs(float(r.value) - double.value) <= double.abs_error_bound


# -- the fixed-point kernel of the mpmath path ----------------------------------

_KERNEL_STREAMS = {
    "t": CoefficientSequence.thue_morse(),
    "pm": CoefficientSequence.plus_minus(),
    "delta": CoefficientSequence.delta(),
    "pd": CoefficientSequence.period_doubling(),
    "digitsum3": CoefficientSequence.digit_sum(3),
    "third-five-halves": CoefficientSequence.affine(1 / 3, 2.5),
    "neg": CoefficientSequence.affine(-2.0, 0.75),
    # 3 + (0.1 - 3) rounds to 0.10000000000000009, not to the letter 0.1
    "three-tenth": CoefficientSequence.affine(3.0, 0.1),
}
_KERNEL_FORMS = {
    "n": (0, DenominatorForm.POWER_OF_N),
    "shifted": (1, DenominatorForm.POWER_OF_N),
    "odd": (0, DenominatorForm.POWER_OF_ODD_N),
    "composite9": (0, DenominatorForm.COMPOSITE9),
}

# (stream, form, working bits) -> eval_naive's (terms_used, abs_error_bound)
# at s = 6 and eps 1e-12 (64 bits) or 1e-16 (113 bits).  The alphabets cut
# where aligned 2^k blocks of t bound their tails (2^k <= 16 here, so 36-161
# counters where the Abel law of the per-term loop the kernel replaced took
# 54-589); period-doubling keeps its Abel tail (mu = 1/3, B = 1 + (log2
# M)/4), composite9 both progressions at one cut under the n^-s law; every
# mean-part leaf zeta(s, N1), N1 >= 16, sums no prefix.  Each bound holds
# the float64 part's budget past the fixed-point head, under eps/1024
_KERNEL_COUNTS = {
    ('t', 'n', 64): (56, 4.964949068933826e-13),
    ('t', 'n', 113): (144, 5.056127081341663e-17),
    ('t', 'shifted', 64): (57, 4.234065037478406e-13),
    ('t', 'shifted', 113): (145, 4.7185305914612455e-17),
    ('t', 'odd', 64): (37, 4.1668429165873156e-13),
    ('t', 'odd', 113): (97, 5.790708859593123e-17),
    ('pm', 'n', 64): (63, 5.97015493193699e-13),
    ('pm', 'n', 113): (159, 7.830156947315901e-17),
    ('pm', 'shifted', 64): (56, 8.465788981978167e-13),
    ('pm', 'shifted', 113): (144, 9.42836686668933e-17),
    ('pm', 'odd', 64): (36, 8.332877271116118e-13),
    ('pm', 'odd', 113): (96, 8.639057665066216e-17),
    ('delta', 'n', 64): (56, 9.196614778316499e-13),
    ('delta', 'n', 113): (160, 7.61685310595596e-17),
    ('pd', 'n', 64): (142, 6.879379885630707e-13),
    ('pd', 'n', 113): (678, 6.969957443344799e-17),
    ('pd', 'odd', 64): (71, 6.569600189723987e-13),
    ('pd', 'odd', 113): (336, 6.889410656554023e-17),
    ('pd', 'composite9', 64): (143, 6.879380222495785e-13),
    ('pd', 'composite9', 113): (679, 6.969957504653188e-17),
    ('digitsum3', 'n', 64): (307, 9.38227575530505e-13),
    ('digitsum3', 'n', 113): (2027, 9.49088369533236e-17),
    ('third-five-halves', 'n', 64): (64, 6.470308766779974e-13),
    ('third-five-halves', 'n', 113): (160, 3.824087067248341e-17),
    ('third-five-halves', 'shifted', 64): (65, 5.716010845739102e-13),
    ('third-five-halves', 'shifted', 113): (161, 3.593667119765774e-17),
    ('third-five-halves', 'odd', 64): (41, 3.929497843588535e-13),
    ('third-five-halves', 'odd', 113): (105, 6.130476203538584e-17),
    ('neg', 'n', 64): (64, 4.817129339143153e-13),
    ('neg', 'n', 113): (160, 4.84846077894471e-17),
    ('neg', 'shifted', 64): (65, 4.209628126520344e-13),
    ('neg', 'shifted', 113): (161, 4.5560481329918075e-17),
    ('neg', 'odd', 64): (41, 4.986948784709646e-13),
    ('neg', 'odd', 113): (113, 4.006613786165482e-17),
    ('three-tenth', 'n', 64): (64, 4.332410245163833e-13),
    ('three-tenth', 'n', 113): (160, 5.1120265055345644e-17),
    ('three-tenth', 'shifted', 64): (65, 3.768783822505393e-13),
    ('three-tenth', 'shifted', 113): (161, 4.803631086860349e-17),
    ('three-tenth', 'odd', 64): (41, 5.259336907012778e-13),
    ('three-tenth', 'odd', 113): (113, 4.227644606451719e-17),
}


def _kernel_spec(stream: str, form: str) -> SeriesSpec:
    shift, denom = _KERNEL_FORMS[form]
    seq = _KERNEL_STREAMS[stream]
    if shift:
        seq = CoefficientSequence.alphabets(*((low, high, 1) for low, high, _ in seq.parts))
    return SeriesSpec(seq, denom)


# -- one spelling per series, one denominator table ----------------------------------


def test_one_spelling_per_series():
    assert CoefficientSequence.thue_morse() == CoefficientSequence.affine(0, 1)
    assert CoefficientSequence.plus_minus() == CoefficientSequence.affine(1, -1)
    spec = SeriesSpec(CoefficientSequence.affine(1, -1, 1))
    assert spec == F_SERIES
    # the routes that evaluate f alone take f written as an alphabet
    naive = eval_naive(F_SERIES, 2.0, 1e-10)
    for route in (Route.FUNCTIONAL_EQUATION, Route.ODD_SPLIT):
        r = eval_series_spec(spec, 2.0, 1e-10, route)
        assert r.abs_error_bound <= 1e-10
        assert abs(r.value - naive.value) <= r.abs_error_bound + naive.abs_error_bound


@pytest.mark.parametrize("form", list(_KERNEL_FORMS))
def test_one_denominator_table_drives_the_terms(form):
    spec = _kernel_spec("pd" if form == "composite9" else "neg", form)
    j0 = spec.counter_start
    # the first counter whose every denominator is at least 1
    assert all(d >= 1 for _, d, _ in spec.denominators(j0))
    assert j0 == 0 or min(d for _, d, _ in spec.denominators(j0 - 1)) < 1
    s = 2.5
    for lo in (j0, j0 + 1, 1000, 2**40):
        c = spec.coeffs.block(lo, lo + 64).tolist()
        table = spec.denominators(lo)
        expected = [
            c[i] * math.fsum(sign * float(d + step * i) ** -s for sign, d, step in table)
            for i in range(64)
        ]
        assert spec.term_block(lo, lo + 64, s).tolist() == pytest.approx(expected, rel=1e-14, abs=0)


def _oracle_check(spec: SeriesSpec, s: float, n: int, bits: int) -> None:
    """``partial_sum`` on the mpmath path against a plain mpmath fsum of
    c_j times its denominators' powers, 40 bits wider than the kernel.

    At the kernel's width P = bits + 20 + bit_length(n) each weight is
    within ``_WEIGHT_UNITS`` units of 2^-P (checked one by one in
    ``test_every_weight_within_its_unit_bound``); the errors seen are a few
    units, so the sum is held to 2^-P (|value| + sum_j |c_j| sum_d
    (log2 d + 2))."""
    value = partial_sum(spec, s, n, Precision(bits, 1e-3))
    assert not isinstance(value, float)
    width = bits + 20 + n.bit_length()
    ctx = mpmath.MPContext()
    ctx.prec = width + 40
    neg_s = -ctx.mpf(s)
    j0 = spec.counter_start
    terms, units = [], 0.0
    for j, c in zip(range(j0, j0 + n), spec.coeffs.block(j0, j0 + n).tolist()):
        if spec.denom is DenominatorForm.COMPOSITE9:
            dens = ((1, j), (-1, 4 * j + 3))
        elif spec.denom is DenominatorForm.POWER_OF_ODD_N:
            dens = ((1, 2 * j + 1),)
        else:
            dens = ((1, j),)
        terms.append(ctx.mpf(c) * ctx.fsum(sign * ctx.power(d, neg_s) for sign, d in dens))
        units += abs(c) * sum(math.log2(d) + 2 for _, d in dens)
    ref = ctx.fsum(terms)
    allowed = 2.0**-width * (abs(float(ref)) + units) + n * 2.0 ** -(width + 38)
    assert abs(ctx.mpf(value) - ref) <= allowed


@pytest.mark.parametrize(
    "stream, form, bits", list(_KERNEL_COUNTS), ids=["-".join(map(str, k)) for k in _KERNEL_COUNTS]
)
def test_fixed_point_kernel_against_mpmath_oracle(stream, form, bits):
    _oracle_check(_kernel_spec(stream, form), 2.7183, 1200, bits)


@pytest.mark.parametrize(
    "stream, form, bits", list(_KERNEL_COUNTS), ids=["-".join(map(str, k)) for k in _KERNEL_COUNTS]
)
def test_mp_naive_terms_and_bounds(stream, form, bits):
    spec = _kernel_spec(stream, form)
    eps = 1e-12 if bits == 64 else 1e-16
    r = eval_naive(spec, 6.0, eps, Precision(bits, eps))
    assert not isinstance(r.value, float)
    assert (r.terms_used, r.abs_error_bound) == _KERNEL_COUNTS[stream, form, bits]


@pytest.mark.parametrize("form", list(_KERNEL_FORMS))
def test_fixed_point_kernel_past_a_small_table(form, monkeypatch):
    # with the table cut at 41 most denominators lie past it: odd ones
    # split at their smallest prime factor or take a power, even ones whose
    # odd part is past it take a power; 41 itself is the first cofactor
    # outside the table
    monkeypatch.setattr("autoseries.fixed_point._TABLE_LIMIT", 41)
    _oracle_check(_kernel_spec("pd" if form == "composite9" else "neg", form), 3.5, 1500, 64)


@pytest.mark.parametrize("form", list(_KERNEL_FORMS))
def test_fixed_point_kernel_first_terms(form):
    for n in range(1, 6):
        _oracle_check(_kernel_spec("pd" if form == "composite9" else "t", form), 2.5, n, 64)


def test_fixed_point_kernel_past_the_table_cap():
    # 4n+3 reaches 120,003: past the 32,768 cap, 3 (d/3) has its cofactor
    # outside the table from d = 98,304 on
    _oracle_check(COMPOSITE9_SERIES, 2.5, 30_000, 64)


def _counting_powers(monkeypatch) -> list:
    """The bases of every ``ctx.power`` call made from now on."""
    power = StandardBaseContext.power
    bases = []

    def counted(ctx, x, y):
        bases.append(x)
        return power(ctx, x, y)

    monkeypatch.setattr(StandardBaseContext, "power", counted)
    return bases


def _primes_below(top: float) -> list[int]:
    return [p for p in range(2, math.ceil(top)) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def test_mp_kernel_powers_only_at_primes(monkeypatch):
    # N = 191 denominators and pi(191) = 43 primes among them, but only
    # 2 and the odd primes below 4s = 16.08 take a power; every other prime
    # is a binomial step from a neighbour
    bases = _counting_powers(monkeypatch)
    partial_sum(G_SERIES, 4.02, 191, Precision.for_eps(1e-13))
    assert sorted(bases) == _primes_below(4 * 4.02) == [2, 3, 5, 7, 11, 13]
    # eval_naive cuts g there after 191 counters and sums the first 3 in
    # fixed point, the rest in float64
    bases.clear()
    r = eval_naive(G_SERIES, 4.02, 1e-13)
    assert r.terms_used == 191
    assert sorted(bases) == [2, 3]


# -- the mixed-precision naive sum of the mpmath path ----------------------------

# every form each stream admits: composite9 takes period-doubling only,
# and (2n+1)^s reads counter 0, before delta and the digit sums start
_MIXED_FORMS = {"t": ("n", "odd"), "pm": ("n", "odd"), "delta": ("n",),
                "pd": ("n", "odd", "composite9"), "digitsum3": ("n",)}
_MIXED_CASES = [(stream, form, bits)
                for stream, forms in _MIXED_FORMS.items() for form in forms for bits in (64, 113)]


@pytest.mark.parametrize(
    "stream, form, bits", _MIXED_CASES, ids=["-".join(map(str, k)) for k in _MIXED_CASES]
)
def test_mixed_sum_agrees_with_the_fixed_point_sum(stream, form, bits):
    # the first h counters in fixed point and the rest in float64 against
    # all of them in fixed point: apart by at most the float64 part's
    # budget and both sums' fixed-point rounding envelopes
    spec = _kernel_spec(stream, form)
    s, n = 3.5, 3000
    eps = 1e-12 if bits == 64 else 1e-16
    prec = Precision(bits, eps)
    head, budget = _naive_head(spec, s, eps, n)
    assert 0 < head < n and budget <= eps / 1024
    mixed = _sum(spec, s, n, prec, head)
    pure = partial_sum(spec, s, n, prec)
    envelope = _ROUNDING_OPS * prec.unit_roundoff * spec.abs_sum_bound(n, s)
    assert abs(mixed - pure) <= budget + 2 * envelope
    # the budget is the float64 kernel's over the counters past the head
    assert budget == _ROUNDING_OPS * 2.0**-52 * spec.abs_sum_bound(n, s, head) + (n - head) * 2.0**-1070
    assert _float_budget(spec, s, head - 1, n) > eps / 1024


def test_abs_sum_bound_from_a_later_counter():
    # the first weight plus the integral over the range bounds the sum of
    # |terms| over it, and for f, whose |c_n| = 1, within 3 times
    for spec in (F_SERIES, ODD_PLUS_MINUS_SERIES, COMPOSITE9_SERIES,
                 SeriesSpec(CoefficientSequence.digit_sum(3))):
        terms = np.abs(spec.term_block(spec.counter_start, spec.counter_start + 5000, 2.5))
        for start in (0, 1, 7, 100, 4999):
            bound = spec.abs_sum_bound(5000, 2.5, start)
            assert math.fsum(terms[start:]) <= bound
            if spec == F_SERIES:
                assert bound <= 3.0 * math.fsum(terms[start:])
        assert spec.abs_sum_bound(5000, 2.5, 5000) == 0.0


@pytest.mark.parametrize(
    "spec, s, eps, bits, counters, head",
    [(COMPOSITE9_SERIES, 4.0, 1e-13, None, 3262, 3),
     (SeriesSpec(CoefficientSequence.digit_sum(3)), 4.0, 1e-10, 64, 3960, 1),
     (F_SERIES, 3.02, 1e-13, None, 320, 6),
     (F_SERIES, 3.0, 1e-30, None, 11264, 11264),
     (G_SERIES, 100.0, 1e-310, None, 1199, 1199)],
    ids=["composite9-4-1e-13", "digitsum3-4-1e-10-64", "f-3.02-1e-13", "f-3-1e-30",
         "g-100-1e-310"],
)
def test_fixed_point_heads(spec, s, eps, bits, counters, head):
    # at g(100, 1e-310) the budget alone would leave counters 997 on to
    # float64, where 1199^-100 is below the normal range, so all go in
    # fixed point
    prec = Precision(bits, eps) if bits else Precision.for_eps(eps)
    cut = _naive_truncation(spec, s, eps, DEFAULT_MAX_TERMS, prec)
    assert (cut.counters, _naive_head(spec, s, eps, cut.counters)[0]) == (counters, head)
    if spec == F_SERIES:
        # f goes direct where its head fits the mpmath path's cap
        method = eval_functional_equation(s, eps).method
        assert (method is Method.NAIVE) is (head <= _FE_CAPS[False] < counters)


def test_composite9_at_1e20_sums_a_short_head(monkeypatch):
    # 12,572,796 terms, of which the fixed-point kernel sums 19,074 and the
    # float64 kernel the rest (the per-term fixed-point loop took 31-35 s)
    heads = []
    original = fixed_point.fixed_point_sums

    def spied(spec, s, counts, ctx, deep_from=0):
        heads.append((counts, ctx.prec))
        return original(spec, s, counts, ctx, deep_from)

    monkeypatch.setattr(fixed_point, "fixed_point_sums", spied)
    r = eval_naive(COMPOSITE9_SERIES, 3.0, 1e-20)
    assert r.terms_used == 12_572_796 and r.abs_error_bound <= 1e-20
    assert heads == [([19_074], 97 + 20 + 15)]


@pytest.mark.parametrize("form", list(_KERNEL_FORMS))
def test_no_denominator_past_a_small_table_takes_a_power(form, monkeypatch):
    monkeypatch.setattr("autoseries.fixed_point._TABLE_LIMIT", 41)
    bases = _counting_powers(monkeypatch)
    partial_sum(_kernel_spec("pd" if form == "composite9" else "neg", form), 3.5, 1500,
                Precision(64, 1e-3))
    assert set(bases) <= set(_primes_below(4 * 3.5))


def _weight_errors(s, limit: int, top: int, prec: int) -> list[float]:
    """|w(d) - 2^P d^-s| in units of 2^-P for every weight the kernel can
    read up to ``top``: the powers of two, the odd table below ``limit``
    (products, and steps from a neighbour d -+ 1), the odd weights past it
    (steps from the nearest multiple of 2^k whose odd part is in the
    table) and the even products 2^k o; reference at 2P bits."""
    ctx = mpmath.MPContext()
    ctx.prec = prec
    weights = _Weights(s, top, limit, _odd_primes(math.isqrt(top)), ctx)
    ref = mpmath.MPContext()
    ref.prec = 2 * prec
    neg_s = -ref.mpf(s)
    got = {1 << k: w for k, w in enumerate(weights.two)}
    got.update((2 * i + 1, w) for i, w in enumerate(weights.table))
    for d in range(2, top + 1):
        k = (d & -d).bit_length() - 1
        w = weights.odd(d >> k)
        got.setdefault(d, w if k == 0 else (weights.two[k] * w) >> prec)
    assert got.keys() >= set(range(1, top + 1))
    return [float(abs(w - ref.ldexp(ref.power(d, neg_s), prec))) for d, w in got.items()]


_S80 = mpmath.MPContext()
_S80.prec = 80


@pytest.mark.parametrize(
    "s", [1.01, 2.5, 4.02, 9.75, _S80.mpf(10) / 3], ids=["1.01", "2.5", "4.02", "9.75", "mpf80"]
)
def test_every_weight_within_its_unit_bound(s):
    for limit in (41, 1025):
        assert max(_weight_errors(s, limit, 3000, 120)) <= _WEIGHT_UNITS


def test_eval_naive_reads_a_non_mpf_exponent_as_its_float():
    # only an mpf exponent is kept exact (on the mpmath path); an int,
    # Fraction or Decimal is summed at its float, as a float is
    for eps in (1e-10, 1e-14):
        ref = eval_naive(G_SERIES, 3.01, eps)
        for s in (Fraction(301, 100), Decimal("3.01")):
            r = eval_naive(G_SERIES, s, eps)
            assert type(r.value) is type(ref.value)
            assert (r.value, r.abs_error_bound, r.terms_used) == (
                ref.value, ref.abs_error_bound, ref.terms_used)
        r = eval_naive(G_SERIES, 3, eps)
        assert r.value == eval_naive(G_SERIES, 3.0, eps).value


def test_functional_equation_sums_at_the_exact_exponent():
    # float(3.02) + k is not 3.02 + k exactly; summing the inner series at
    # the rounded exponent put the value 7.6e-18 off, 92 times its bound.
    # Reference: the same route at 120 bits to 1e-22 (bound 6.8e-23); an
    # independent odd-split sum gives ...877652 with tail <= 6.7e-20.
    r = eval_functional_equation(3.02, 1e-19)
    ctx = mpmath.MPContext()
    ctx.prec = 200
    ref = ctx.mpf("0.8531759200838268776858781")
    assert r.abs_error_bound <= 1e-19
    assert abs(ctx.mpf(r.value) - ref) <= r.abs_error_bound + 1e-22
