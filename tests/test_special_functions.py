"""Zeta engine: closed-form oracles, brute-force brackets, bound honesty."""

import math
from fractions import Fraction

import mpmath
import pytest

from autoseries.errors import DomainError, ResourceLimitError
from mpmath.ctx_mp_python import _mpf

from autoseries import special_functions
from autoseries.evaluator import GAMMA_SERIES, PHI_SERIES, eval_naive, partial_sum
from autoseries.precision import Precision, _mp_context
from autoseries.result import Method
from autoseries.special_functions import _hurwitz_core, dirichlet_eta, hurwitz_zeta, riemann_zeta

P12 = Precision(target_eps=1e-12)
GRID = [1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0]


# -- classical closed forms -----------------------------------------------------


def test_zeta_two():
    r = riemann_zeta(2.0, P12)
    assert abs(r.value - math.pi**2 / 6) <= 1e-12
    assert r.abs_error_bound <= 1e-12
    assert r.method is Method.EULER_MACLAURIN


def test_zeta_four():
    r = riemann_zeta(4.0, P12)
    assert abs(r.value - math.pi**4 / 90) <= 1e-12


def test_zeta_three_against_partial_sum_oracle():
    # brute force: sum 1/n^3 to N = 10^6 brackets the value with integral tails
    n_max = 10**6
    partial = math.fsum(1.0 / n**3 for n in range(1, n_max + 1))
    lower = partial + 1.0 / (2.0 * (n_max + 1) ** 2)
    upper = partial + 1.0 / (2.0 * n_max**2)
    r = riemann_zeta(3.0, P12)
    assert lower - r.abs_error_bound <= r.value <= upper + r.abs_error_bound


def test_eta_closed_forms():
    r = dirichlet_eta(2.0, P12)
    assert abs(r.value - math.pi**2 / 12) <= 1e-12
    r = dirichlet_eta(4.0, P12)
    assert abs(r.value - (1 - 2.0**-3) * math.pi**4 / 90) <= 1e-12


def test_eta_four_against_alternating_oracle():
    # alternating partial sums bracket eta with |tail| <= 1/(N+1)^4
    n_max = 10**4
    partial = math.fsum((-1.0) ** (n - 1) / n**4 for n in range(1, n_max + 1))
    tail = 1.0 / (n_max + 1) ** 4
    r = dirichlet_eta(4.0, P12)
    assert abs(r.value - partial) <= tail + r.abs_error_bound


# -- Hurwitz -----------------------------------------------------------------


@pytest.mark.parametrize("s", [2.0, 3.0, 4.0])
def test_hurwitz_at_one_is_zeta(s):
    z = riemann_zeta(s, P12)
    h = hurwitz_zeta(s, 1.0, P12)
    assert abs(z.value - h.value) <= z.abs_error_bound + h.abs_error_bound


def test_hurwitz_quarter_against_partial_sum_oracle():
    n_max = 10**6
    a = 0.25
    partial = math.fsum((n + a) ** -2.0 for n in range(n_max + 1))
    lower = partial + 1.0 / (n_max + 1 + a)
    upper = partial + 1.0 / (n_max + a)
    r = hurwitz_zeta(2.0, Fraction(1, 4), P12)
    assert lower - r.abs_error_bound <= r.value <= upper + r.abs_error_bound


def test_hurwitz_half_closed_form():
    # at a = 1/2 the Hurwitz value is (2^s - 1) zeta(s)
    r = hurwitz_zeta(2.0, 0.5, P12)
    assert abs(r.value - 3.0 * math.pi**2 / 6) <= 1e-12


# -- grid invariants ------------------------------------------------------------


def test_eta_zeta_relation_on_grid():
    for s in GRID:
        z = riemann_zeta(s, P12)
        e = dirichlet_eta(s, P12)
        resid = abs(e.value + 2.0 ** (1 - s) * z.value - z.value)
        assert resid <= e.abs_error_bound + (1 + 2.0 ** (1 - s)) * z.abs_error_bound


def test_hurwitz_one_matches_zeta_on_grid():
    for s in GRID:
        z = riemann_zeta(s, P12)
        h = hurwitz_zeta(s, 1, P12)
        assert abs(z.value - h.value) <= z.abs_error_bound + h.abs_error_bound


def test_zeta_strictly_decreasing_on_grid():
    values = [riemann_zeta(s, P12).value for s in GRID]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_covers_doubled_precision_deviation():
    high = Precision(working_bits=106, target_eps=1e-25)
    for s in (1.5, 2.0, 3.0, 6.0):
        r = riemann_zeta(s, Precision(target_eps=1e-10))
        r2 = riemann_zeta(s, high)
        assert abs(r.value - float(r2.value)) <= r.abs_error_bound
        h = hurwitz_zeta(s, 0.25, Precision(target_eps=1e-10))
        h2 = hurwitz_zeta(s, Fraction(1, 4), high)
        assert abs(h.value - float(h2.value)) <= h.abs_error_bound


def test_matches_mpmath_reference():
    with mpmath.workprec(80):
        for s in (1.5, 2.0, 3.7, 6.0):
            r = riemann_zeta(s, P12)
            assert abs(r.value - float(mpmath.zeta(s))) <= r.abs_error_bound
        h = hurwitz_zeta(2.5, 0.25, P12)
        assert abs(h.value - float(mpmath.zeta(2.5, 0.25))) <= h.abs_error_bound


def test_high_precision_path():
    p = Precision(working_bits=140, target_eps=1e-35)
    r = riemann_zeta(2.0, p)
    with mpmath.workprec(200):
        ref = mpmath.pi**2 / 6
        assert abs(r.value - ref) < mpmath.mpf(10) ** -35


@pytest.mark.parametrize("a", [3, 1000.5, 14_000, 26_000, 10**6])
def test_hurwitz_core_beyond_one_against_mpmath(a):
    # the naive route's mean-part leaf zeta(s, N+1) runs at large a
    for s in (1.5, 2.0, 4.0):
        for eps in (1e-8, 1e-12):
            r = _hurwitz_core(s, a, Precision(target_eps=eps))
            assert r.abs_error_bound <= eps
            with mpmath.workprec(120):
                assert abs(r.value - mpmath.zeta(s, a)) <= r.abs_error_bound


@pytest.mark.parametrize("bits, eps", [(53, 1e-10), (77, 1e-14), (97, 1e-20)])
def test_hurwitz_leaf_past_sixteen_sums_no_prefix(bits, eps):
    # a mean-part leaf zeta(s, N1) at N1 >= 16 starts its schedule at N = 0
    for a in (16, 300, 2114, 10**6):
        r = _hurwitz_core(4.01, a, Precision(bits, eps))
        assert 1 <= r.terms_used < 16 and r.abs_error_bound <= eps
        with mpmath.workprec(2 * bits + 40):
            assert abs(r.value - mpmath.zeta(4.01, a)) <= r.abs_error_bound


@pytest.mark.parametrize("a", [1, 0.25, Fraction(3, 4), 15.5])
def test_hurwitz_schedule_below_sixteen_keeps_its_prefix(a):
    # zeta(s) and the leaves at a < 16 keep the schedule, hence every bit
    for ctx in (None, _mp_context(100)):
        assert special_functions._schedule(3.0, a, 1e-12, ctx)[0] >= 16


def test_shared_contexts_give_fresh_context_results():
    # one mpmath context per bit width, shared by every call: interleaved
    # 80-, 120- and 80-bit calls must match calls made on fresh contexts
    p80, p120 = Precision(80, 1e-15), Precision(120, 1e-20)
    calls = [
        lambda: riemann_zeta(3.0, p80),
        lambda: riemann_zeta(3.0, p120),
        lambda: eval_naive(GAMMA_SERIES, 4.0, 1e-15, p80),
        lambda: eval_naive(GAMMA_SERIES, 6.0, 1e-20, p120),
    ]
    fresh = []
    for call in calls:
        _mp_context.cache_clear()
        fresh.append(call())
    order = [0, 1, 0, 2, 3, 2, 1, 3, 0]
    assert [calls[i]() for i in order] == [fresh[i] for i in order]
    # and no caller changed the precision of a context it was handed
    for bits in range(90, 180):
        assert _mp_context(bits).prec == bits


# -- the float64 engine on the double path ------------------------------------

ORACLE_S = [1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 3.3, 4.0, 6.0, 10.0, 20.0, 40.0, 60.0]
ORACLE_A = [1, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 3, 17.5, 1000.5, 14_000, 10**6]
ORACLE_EPS = [1e-6, 1e-8, 1e-10, 1e-12, 2.0**-43]


def _certified(call):
    try:
        return call()
    except (ResourceLimitError, DomainError):
        return None


@pytest.mark.parametrize("s", ORACLE_S)
def test_double_path_engine_against_mpmath_at_twice_the_bits(s):
    # every 53-bit leaf holds its bound against mpmath at 120 bits, and
    # certifies exactly where the 73-bit context alone does
    ctx = _mp_context(53 + special_functions._GUARD_BITS)
    for a in ORACLE_A:
        with mpmath.workprec(120):
            ref = mpmath.zeta(s, mpmath.mpf(Fraction(a).numerator) / Fraction(a).denominator)
        for eps in ORACLE_EPS:
            prec = Precision(target_eps=eps)
            r = _certified(lambda: _hurwitz_core(s, a, prec))
            in_context = _certified(lambda: special_functions._euler_maclaurin(s, a, prec, ctx))
            assert (r is None) == (in_context is None), (s, a, eps)
            if r is None:
                continue
            assert isinstance(r.value, float) and r.terms_used == in_context.terms_used
            assert 0 < r.abs_error_bound <= eps
            with mpmath.workprec(120):
                assert abs(r.value - ref) <= r.abs_error_bound, (s, a, eps)


@pytest.mark.parametrize("s", [1.01, 1.1, 2.0, 3.3, 6.0, 40.0])
def test_double_path_eta_against_mpmath(s):
    # the float factor 1 - 2^(1-s) loses most of its digits near s = 1
    for eps in (1e-8, 1e-12):
        r = dirichlet_eta(s, Precision(target_eps=eps))
        assert 0 < r.abs_error_bound <= eps
        with mpmath.workprec(120):
            assert abs(r.value - mpmath.altzeta(s)) <= r.abs_error_bound


def test_underflowed_powers_still_give_a_positive_bound():
    # zeta(60, 10^6) ~ 1e-356: every power underflows a float
    r = _hurwitz_core(60.0, 10**6, Precision(target_eps=1e-8))
    with mpmath.workprec(120):
        ref = mpmath.zeta(60, 10**6)
        assert 0 < ref <= r.abs_error_bound
        assert abs(r.value - ref) <= r.abs_error_bound


@pytest.mark.parametrize("s, a, eps", [(6.0, Fraction(1, 4), 1e-12), (60.0, Fraction(3, 4), 1e-8)])
def test_large_values_certify_near_the_float_ulp(s, a, eps):
    # |value| >= 4e3: u |value| is within a factor 3 of eps, which the
    # context certifies, so the double path must too
    r = _hurwitz_core(s, a, Precision(target_eps=eps))
    assert r.abs_error_bound <= eps
    with mpmath.workprec(120):
        assert abs(r.value - mpmath.zeta(s, mpmath.mpf(a.numerator) / a.denominator)) <= r.abs_error_bound


@pytest.mark.parametrize(
    "a, in_floats",
    [(1, True), (0.25, True), (1000.5, True), (2.0**40 + 0.75, True),
     (0.3, False), (Fraction(1, 3), False), (2.0**53 - 512, False)],
)
def test_float_path_only_where_every_shift_is_exact(monkeypatch, a, in_floats):
    # k + 0.3 rounds, so its power would carry an s u error the budget
    # leaves out; such a leaf runs in the context
    contexts = []
    engine = special_functions._euler_maclaurin

    def spy(s, a, prec, ctx):
        contexts.append(ctx)
        return engine(s, a, prec, ctx)

    monkeypatch.setattr(special_functions, "_euler_maclaurin", spy)
    r = _hurwitz_core(2.5, a, Precision(target_eps=1e-8))
    assert (contexts[0] is None) == in_floats and isinstance(r.value, float)
    with mpmath.workprec(120):
        ref = mpmath.zeta(2.5, mpmath.mpf(Fraction(a).numerator) / Fraction(a).denominator)
        assert abs(r.value - ref) <= r.abs_error_bound


@pytest.fixture
def mp_powers(monkeypatch):
    """Count every mpf power: ``ctx.power`` and ``**`` both end in ``__pow__``."""
    count = [0]
    pow_, rpow = _mpf.__pow__, _mpf.__rpow__

    def counted(f):
        def wrapper(*args):
            count[0] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(_mpf, "__pow__", counted(pow_))
    monkeypatch.setattr(_mpf, "__rpow__", counted(rpow))
    return count


@pytest.mark.parametrize("bits, powers", [(53, (0, 0, 0, 0)), (80, (7, 8, 6, 2))])
def test_mpmath_power_counts(mp_powers, bits, powers):
    # the double path takes no mpmath power; on the 80-bit path each leaf
    # takes one power per prime: its base's (N+a)^-s, and zeta(s)'s prefix
    # composites as products, and its budget scales by 2^-k with ldexp (21,
    # 23 and 12 powers before, and 22, 24 and 29 before the schedule's scan
    # and the sum shared their terms); phi's naive sum cuts after 112
    # counters, which the fixed-point kernel sums with 6 powers (2 and the
    # odd primes below 4s), its mean leaf zeta(s, N1), N1 >= 16, sums no
    # prefix, and eval_naive sums all 112 in float64 (its head is empty at
    # eps 1e-10), so only the leaf's base and the boundary term take one
    calls = [
        lambda p: riemann_zeta(3.0, p),
        lambda p: dirichlet_eta(3.0, p),
        lambda p: partial_sum(PHI_SERIES, 3.3, 112, p),
        lambda p: eval_naive(PHI_SERIES, 3.3, 1e-10, p),
    ]
    counts = []
    for call in calls:
        mp_powers[0] = 0
        call(Precision(bits, 1e-10))
        counts.append(mp_powers[0])
    assert tuple(counts) == powers


@pytest.mark.parametrize("s", [1.5, 2.0, 3.5, 4.0, 6.0])
def test_mpmath_leaves_take_one_power_per_prime(mp_powers, s):
    # zeta(s) at 77 bits: its prefix 1..16 takes the primes below 16 and its
    # base 17 one power (19 before: 16 for the prefix, 3 for the base); a
    # Hurwitz leaf at a >= 16 sums no prefix and takes its base's alone
    ctx = mpmath.MPContext()
    ctx.prec = 200
    for a, bound in ((1, 7), (96.5, 1), (4097.0, 1)):
        mp_powers[0] = 0
        r = _hurwitz_core(s, a, Precision(77, 1e-13))
        assert mp_powers[0] <= bound, (a, mp_powers[0])
        ref = ctx.zeta(ctx.mpf(s), ctx.mpf(a))
        assert abs(ctx.mpf(r.value) - ref) <= r.abs_error_bound, a


@pytest.mark.parametrize("a", [0.25, Fraction(1, 4)])
def test_overflowing_hurwitz_value_is_refused_by_name(a):
    # zeta(700, 1/4) ~ 4^700 is no float, and no working width changes that
    with pytest.raises(DomainError) as info:
        hurwitz_zeta(700.0, a)
    msg = str(info.value)
    assert "zeta(s, a) at s=700" in msg and "largest float" in msg
    assert "working_bits" not in msg and "inf" not in msg


# -- domain errors ----------------------------------------------------------------


@pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
def test_rejects_s_at_most_one(s):
    with pytest.raises(DomainError):
        riemann_zeta(s)
    with pytest.raises(DomainError):
        dirichlet_eta(s)
    with pytest.raises(DomainError):
        hurwitz_zeta(s, 0.5)


@pytest.mark.parametrize("a", [0.0, -0.25, 1.5])
def test_rejects_bad_hurwitz_parameter(a):
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, a)


def test_unreachable_tolerance_raises():
    with pytest.raises((ResourceLimitError, DomainError)):
        riemann_zeta(2.0, Precision(working_bits=53, target_eps=1e-18))
