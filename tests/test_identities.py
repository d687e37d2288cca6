"""Identity registry: every entry verifies, false identities are caught."""

import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoseries import identities
from autoseries.errors import DomainError, ResourceLimitError
from autoseries.evaluator import (
    DELTA_SERIES,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    PHI_SERIES,
    SeriesSpec,
    DEFAULT_MAX_TERMS,
    _FE_CAPS,
    _naive_head,
    _naive_truncation,
    eval_functional_equation,
    eval_naive,
)
from autoseries.identities import (
    Eta,
    HurwitzZeta,
    Identity,
    IdentityKind,
    Log,
    Pi,
    Route,
    Series,
    Sqrt,
    TwoPowerRatio,
    Zeta,
    _EvalCache,
    _ODD_SPLIT,
    _decomposable,
    _decomposition,
    _linear_form,
    builtin_registry,
    eval_series_spec,
    get_identity,
    make_corollary2_identity,
    verify,
)
from autoseries.precision import Precision
from autoseries.result import Method
from autoseries.sequences import CoefficientSequence, pm_thue_morse, thue_morse
from autoseries.special_functions import riemann_zeta

GRID = (2.0, 3.0, 4.0)


# -- registry contents ---------------------------------------------------------


@pytest.mark.parametrize("ident", ["lemma1", "corollary2-phi", "corollary2-gamma", "example8"])
def test_s2_naive_records_stay_small(ident):
    # deterministic work count: with the discrepancy (Abel) tails these
    # records sum tens of thousands of terms, not 2.6e8-6.4e8
    identity = get_identity(ident)
    rec = verify(identity, 2.0, identity.default_eps)
    assert rec.passed
    assert rec.terms_used <= 10**6


def test_example9_sums_thousands_of_terms():
    # the period-doubling Abel tail: 2,148,228 terms at s = 2 under the
    # constant majorant
    rec = verify(get_identity("example9"), 2.0, get_identity("example9").default_eps)
    assert rec.passed
    assert rec.terms_used <= 20_000


def test_registry_has_at_least_thirteen_identities():
    assert len(builtin_registry()) >= 13


def test_registry_contains_all_named_entries():
    ids = {i.identity_id for i in builtin_registry()}
    required = {
        "lemma1",
        "corollary2-phi",
        "corollary2-gamma",
        "theorem3",
        "example4a",
        "example4b",
        "theorem5-zero",
        "theorem5-pows",
        "theorem5-eta",
        "prop6a",
        "prop6b",
        "prop6c",
        "example8",
        "example9",
        "shallit:2",
        "shallit:3",
        "shallit:10",
        "allouche-shallit",
        "woods-robbins",
    }
    assert required <= ids


def test_get_identity_normalizes_separators():
    assert get_identity("allouche_shallit").identity_id == "allouche-shallit"
    assert get_identity("woods_robbins").identity_id == "woods-robbins"
    with pytest.raises(KeyError):
        get_identity("nope")


def test_shallit_rhs_closed_forms():
    for base in (2, 3, 10):
        ((coef, leaf),) = get_identity(f"shallit:{base}").rhs
        prec = Precision(target_eps=1e-12)
        v, b = leaf.bracket(None, 1e-12, prec, _EvalCache())
        c = coef.value(None, prec)
        assert abs(c * v - base / (base - 1) * math.log(base)) <= 1e-12 + c * b


def test_prop6a_statement_values():
    # 3 sum(r[n]/n^2) over {1/3, 4/3} is stated as sum over the exact
    # letters {1, 4}; prop6b's 7 r[n] over {9/7, 16/7} as {9, 16}
    for name, coef, letters in (("prop6a", 5.0, (1.0, 4.0)), ("prop6b", 9.0, (9.0, 16.0))):
        ((qc, qa), (rc, ra)) = get_identity(name).lhs
        assert qc.value(2.0) == coef
        assert qa.spec.coeffs.parts == ((-1.0, 0.0, 1),)
        assert rc.value(2.0) == 1.0
        assert ra.spec.coeffs.parts == (letters + (0,),)


@pytest.mark.parametrize("ident", ["prop6a", "prop6b"])
def test_prop6_exact_letters_certify_below_double(ident):
    # with the letters 1/3, 4/3, 9/7, 16/7 rounded to doubles the summed
    # series was not the paper's, and both records failed from eps 1e-15
    identity = get_identity(ident)
    rec = verify(identity, identity.default_s[0], 1e-18)
    assert rec.passed, rec
    assert rec.lhs_bound + rec.rhs_bound <= 1e-18


# -- the main verification sweep -------------------------------------------------


@pytest.mark.parametrize("ident", [i for i in builtin_registry() if i.kind is IdentityKind.DIRICHLET], ids=lambda i: i.identity_id)
def test_registry_identity_passes_on_grid(ident):
    # every exponent-parametrized identity on {2, 3, 4} (intersected with
    # its validity domain) at 1e-8
    for s in GRID:
        if ident.valid_s not in (None, s):
            continue
        rec = verify(ident, s, 1e-8)
        assert rec.passed, (ident.identity_id, s, rec)
        assert rec.lhs_bound + rec.rhs_bound <= 1e-8


@pytest.mark.parametrize("base,eps", [(2, 1e-4), (3, 1e-4), (10, 1e-4)])
def test_digit_harmonic_identities(base, eps):
    rec = verify(get_identity(f"shallit:{base}"), None, eps)
    assert rec.passed
    assert rec.residual <= eps


def test_binary_weighted_identity():
    rec = verify(get_identity("allouche-shallit"), None, 1e-8)
    assert rec.passed
    assert rec.residual <= 1e-8


def test_constant_leaves_finer_than_double_guard_bits():
    # a budget under 2^-43 is more than 53 bits with 10 guard bits can
    # certify: the leaf runs wider and its value comes back as a float
    pi2 = mpmath.pi**2
    cases = ((Zeta(), pi2 / 6), (Eta(), pi2 / 12), (HurwitzZeta(Fraction(1, 2)), pi2 / 2))
    for expr, exact in cases:
        r = expr.bracket(2.0, 3e-14, Precision(), _EvalCache())
        value, bound = r.value, r.abs_error_bound
        assert isinstance(value, float) and bound <= 4e-14
        assert abs(value - exact) <= bound


# -- right sides: one linear form -------------------------------------------------

_LEAF_REFERENCE = {
    Zeta: lambda leaf, s: mpmath.zeta(s),
    Eta: lambda leaf, s: mpmath.altzeta(s),
    HurwitzZeta: lambda leaf, s: mpmath.zeta(s, _exact(leaf.a)),
    Pi: lambda leaf, s: mpmath.pi**leaf.power,
    Sqrt: lambda leaf, s: mpmath.sqrt(leaf.arg),
    Log: lambda leaf, s: mpmath.log(_exact(leaf.arg)),
}


def _exact(c):
    return mpmath.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mpmath.mpf(c)


def _rhs_error(rhs, s, eps, prec, reference=None):
    """(|value - reference|, bound) of ``rhs`` made as ``verify`` makes it,
    the reference (``rhs`` unless given) from mpmath at twice the working
    bits."""
    cache = _EvalCache()
    share = 0.45 * eps / 2 / len(rhs)
    value, bound, _ = _linear_form(
        [(c, leaf, share) for c, leaf in rhs], s, prec,
        lambda leaf, e: leaf.bracket(s, e, prec, cache),
    )

    def poly(coeffs, x):
        return sum(_exact(c) * x**i for i, c in enumerate(coeffs))

    with mpmath.workprec(2 * prec.working_bits):
        x = 0 if s is None else mpmath.mpf(2) ** s
        ref = sum(
            poly(c.num, x) / poly(c.den, x) * _LEAF_REFERENCE[type(leaf)](leaf, s)
            for c, leaf in reference or rhs
        )
        return abs(mpmath.mpf(value) - ref), bound


def _rhs_cases():
    for ident in builtin_registry():
        if not ident.rhs:
            continue
        if ident.kind is IdentityKind.FIXED_SERIES:
            grid = (None,)
        else:
            grid = sorted({*ident.default_s, *((2.5, 3.7) if ident.valid_s is None else ())})
        for s in grid:
            yield pytest.param(ident.rhs, s, id=f"{ident.identity_id}-{s}")
    # two leaves share the right side's eps
    two_leaves = ((TwoPowerRatio((0.0, 1.0)), Zeta()), (TwoPowerRatio((Fraction(-1, 6),)), Pi(2)))
    yield pytest.param(two_leaves, 2.5, id="two-leaves-2.5")


@pytest.mark.parametrize("eps", [1e-10, 1e-16], ids=["float64", "mpmath"])
@pytest.mark.parametrize("rhs,s", list(_rhs_cases()))
def test_rhs_within_bound_of_reference(rhs, s, eps):
    prec = Precision.for_eps(eps)
    err, bound = _rhs_error(rhs, s, eps, prec)
    assert err <= bound
    assert bound <= eps / 2


def test_fraction_coefficient_keeps_the_working_bits():
    # 2 pi^2/3 at eps 1e-30: the exact 2/3 is divided out at the working
    # bits; a float 2/3 is 3.7e-17 off, which no bound below that covers
    eps = 1e-30
    prec = Precision.for_eps(eps)
    exact = ((TwoPowerRatio((Fraction(2, 3),)), Pi(2)),)
    err, bound = _rhs_error(exact, 2.0, eps, prec)
    assert err <= bound <= eps
    err, bound = _rhs_error(((TwoPowerRatio((2.0 / 3.0,)), Pi(2)),), 2.0, eps, prec, exact)
    assert err > bound


# -- coefficients in q = 2^-s ---------------------------------------------------------


def _every_coefficient():
    """Every ``TwoPowerRatio`` a verification or a route evaluates: both
    sides of each registry record, the decomposition of every registry
    alphabet and of two more, and the odd split's two factors."""
    coefs, alphabets = [], {
        SeriesSpec(CoefficientSequence.affine(1 / 3, 4 / 3)),
        SeriesSpec(CoefficientSequence.affine(9.0, 16.0)),
    }
    for ident in builtin_registry():
        coefs += [c for c, _ in ident.lhs] + [c for c, _ in ident.rhs]
        series = [leaf.spec for _, leaf in ident.lhs if isinstance(leaf, Series)]
        alphabets |= {spec for spec in series if _decomposable(spec)}
    for spec in sorted(alphabets, key=lambda spec: spec.label()):
        coefs += [c for c, _, _ in _decomposition(spec, 1.0)]
    return coefs + list(_ODD_SPLIT.values())


@pytest.mark.parametrize("bits", [53, 80])
@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.7, 60.0, 1030.0])
def test_coefficients_within_2u_of_mpmath(s, bits):
    # one 2^-s and one Horner per polynomial stay within 2u of the exact
    # ratio at 200 bits (below the normal range, of its nearest subnormal);
    # a ratio that is no finite float is refused by name
    prec = None if bits == 53 else Precision(bits, 1e-20)
    u = 2.0 ** (1 - bits)
    checked = refused = 0
    for coef in _every_coefficient():
        with mpmath.workprec(200):
            x = mpmath.mpf(2) ** s
            ref = _exact(coef.scale) * sum(_exact(c) * x**i for i, c in enumerate(coef.num))
            ref /= sum(_exact(c) * x**i for i, c in enumerate(coef.den))
            if abs(ref) > mpmath.mpf(2) ** 1024:
                with pytest.raises(DomainError, match=r"coefficient .* at s="):
                    coef.value(s, prec)
                refused += 1
                continue
            err = abs(mpmath.mpf(coef.value(s, prec)) - ref)
            assert err <= 2 * u * abs(ref) + mpmath.mpf(2) ** -1075, (coef.describe(), s)
            checked += 1
    assert checked >= 40 and (refused > 0) == (s > 1024)


# -- routes against each other -----------------------------------------------------


def _coarse_eps(eps: float, s: float, prec: Precision) -> float:
    """eps, or what a naive sum of about 2e5 terms (1.5e4 on the mpmath
    path) certifies for a letter gap up to 32, whichever is larger."""
    return max(eps, 64.0 * (2e5 if prec.is_double else 1.5e4) ** -s)


def _routed(spec, s, eps, route, prec):
    """``spec`` on ``route``, or None where a leaf's share of eps lies
    below what the working width certifies and the route says so."""
    try:
        return eval_series_spec(spec, s, eps, route, prec)
    except ResourceLimitError as err:
        assert "working" in str(err)
        return None


def _agree(a, b) -> None:
    if a is None or b is None:
        return
    with mpmath.workprec(200):
        gap = abs(mpmath.mpf(a.value) - mpmath.mpf(b.value))
    assert gap <= a.abs_error_bound + b.abs_error_bound, (a, b)


_LETTER = st.one_of(st.integers(-16, 16).map(float), st.floats(-16.0, 16.0, allow_subnormal=False))


@pytest.mark.parametrize("bits", [None, 80])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    a=_LETTER,
    b=_LETTER,
    shifted=st.booleans(),
    s=st.floats(1.5, 8.0),
    eps=st.floats(-12.0, -6.0).map(lambda e: 10.0**e),
)
def test_decomposed_and_odd_split_agree_with_other_routes(bits, a, b, shifted, s, eps):
    # DECOMPOSED against NAIVE on the same alphabet, and the odd split of
    # f and g against the functional equation and NAIVE; the naive sums
    # run at a coarser eps where 2e5 terms cannot certify eps
    prec = Precision.for_eps(eps) if bits is None else Precision(bits, eps)
    coarse = _coarse_eps(eps, s, prec)
    coarse_prec = Precision.for_eps(coarse) if bits is None else Precision(bits, coarse)
    spec = SeriesSpec(CoefficientSequence.affine(a, b, int(shifted)))
    dec = _routed(spec, s, eps, Route.DECOMPOSED, prec)
    assert dec is None or dec.abs_error_bound <= eps
    _agree(dec, _routed(spec, s, coarse, Route.NAIVE, coarse_prec))
    for series, other, other_eps, other_prec in (
        (F_SERIES, Route.FUNCTIONAL_EQUATION, eps, prec),
        (G_SERIES, Route.NAIVE, coarse, coarse_prec),
    ):
        odd = _routed(series, s, coarse, Route.ODD_SPLIT, coarse_prec)
        assert odd is None or odd.abs_error_bound <= coarse
        _agree(odd, _routed(series, s, other_eps, other, other_prec))


# -- shared leaves ---------------------------------------------------------------


@pytest.mark.parametrize(
    "ident,s",
    [("theorem3", 2.0), ("theorem3", 3.0), ("theorem3", 4.0), ("example4b", 3.0), ("prop6b", 3.0)],
)
def test_verify_evaluates_zeta_once(monkeypatch, ident, s):
    # a leaf is its own cache key: the right side's Zeta() and the zeta of
    # the left side's decompositions are one leaf, evaluated once
    calls = []

    def counting(s, prec=None):
        calls.append(s)
        return riemann_zeta(s, prec)

    monkeypatch.setattr(identities, "riemann_zeta", counting)
    identity = get_identity(ident)
    assert verify(identity, s, identity.default_eps).passed
    assert calls == [s]


# -- delta, the sum of two shifted alphabets ------------------------------------------


@pytest.mark.parametrize("s", [2.0, 3.0])
def test_delta_decomposed_agrees_with_naive(s):
    decomposed = eval_series_spec(DELTA_SERIES, s, 1e-12, Route.DECOMPOSED)
    naive = eval_series_spec(DELTA_SERIES, s, 1e-12, Route.NAIVE)
    assert decomposed.abs_error_bound <= 1e-12 and naive.abs_error_bound <= 1e-12
    assert abs(decomposed.value - naive.value) <= decomposed.abs_error_bound + naive.abs_error_bound


def test_delta_is_f_over_one_minus_two_to_minus_s():
    # {0, 1} at n and {0, -1} at n - 1: alpha = 0 and beta = 1/(1 - 2^-s)
    (beta, leaf, _), = _decomposition(DELTA_SERIES, 1.0)
    assert leaf == Series(F_SERIES, Route.FUNCTIONAL_EQUATION)
    assert beta.value(3.0) == 8.0 / 7.0
    d = eval_series_spec(DELTA_SERIES, 3.0, 1e-12)
    f = eval_series_spec(F_SERIES, 3.0, 1e-12, Route.FUNCTIONAL_EQUATION)
    assert abs(d.value - 8.0 / 7.0 * f.value) <= d.abs_error_bound + 8.0 / 7.0 * f.abs_error_bound


@pytest.mark.parametrize("s, eps", [(1.1, 1e-10), (1.1, 1e-12), (1.1, 1e-14), (2.0, 1e-14)])
def test_delta_auto_certifies_where_naive_cannot(s, eps):
    # under the Abel law these cells needed 2.4e9 naive terms at (1.1,
    # 1e-10) and 1.5e7 mpmath terms at (2, 1e-14); aligned 2^k blocks cut
    # them after at most 1,151 counters and a boundary term.  AUTO takes
    # the faster route: the naive sum in float64, the decomposition past
    # the mpmath path's head cap (fixed-point heads of 341 and 1,148 of the
    # 639 and 1,151 counters at 1e-14, where the naive sum takes longer than the
    # decomposition's 0.6-1.3 ms)
    naive = eval_naive(DELTA_SERIES, s, eps)
    assert naive.terms_used <= 1_152
    t0 = time.perf_counter()
    r = eval_series_spec(DELTA_SERIES, s, eps)
    assert time.perf_counter() - t0 < 0.25
    assert r.abs_error_bound <= eps
    if isinstance(r.value, float):
        assert r.method is Method.NAIVE and r.terms_used == naive.terms_used
    else:
        cut = _naive_truncation(DELTA_SERIES, s, eps, DEFAULT_MAX_TERMS, Precision.for_eps(eps))
        assert _naive_head(DELTA_SERIES, s, eps, cut.counters)[0] > _FE_CAPS[False]
        assert r.method is Method.FUNCTIONAL_EQUATION


def test_decomposed_delta_calls_the_functional_equation_once(monkeypatch):
    calls = []

    def counting(s, eps, prec=None, max_terms=None):
        calls.append(s)
        return eval_functional_equation(s, eps, prec, max_terms)

    monkeypatch.setattr(identities, "eval_functional_equation", counting)
    eval_series_spec(DELTA_SERIES, 2.0, 1e-12, Route.DECOMPOSED)
    assert calls == [2.0]


def test_series_leaves_compare_by_value_and_are_no_expr():
    a = Series(F_SERIES, Route.FUNCTIONAL_EQUATION)
    b = Series(F_SERIES, Route.FUNCTIONAL_EQUATION)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Series(F_SERIES, Route.ODD_SPLIT)
    assert not isinstance(a, identities.Expr)
    cache = _EvalCache()
    r = a.bracket(2.0, 1e-10, Precision.for_eps(1e-10), cache)
    assert b.bracket(2.0, 1e-10, Precision.for_eps(1e-10), cache) is r
    assert list(cache) == [(a, 2.0)]


# -- false identities must fail ---------------------------------------------------


def test_swapped_pairing_is_detected():
    # deliberately wrong: coefficients of the two 0/1 series exchanged
    wrong = Identity(
        identity_id="theorem3-swapped",
        lhs=(
            (TwoPowerRatio((-1.0, 1.0)), Series(PHI_SERIES, Route.DECOMPOSED)),
            (TwoPowerRatio((1.0, 1.0)), Series(GAMMA_SERIES, Route.DECOMPOSED)),
        ),
        rhs=((TwoPowerRatio((0.0, 1.0)), Zeta()),),
        description="wrong on purpose",
    )
    rec = verify(wrong, 2.0, 1e-8)
    assert not rec.passed
    assert rec.residual > rec.lhs_bound + rec.rhs_bound


def test_wrong_constant_is_detected():
    wrong = Identity(
        identity_id="example4a-wrong",
        lhs=(
            (TwoPowerRatio((5.0,)), Series(PHI_SERIES, Route.DECOMPOSED)),
            (TwoPowerRatio((3.0,)), Series(GAMMA_SERIES, Route.DECOMPOSED)),
        ),
        # 2^(s+1)/3 (pi^0 is the leaf 1), not 2 pi^2/3
        rhs=((TwoPowerRatio((0.0, Fraction(2, 3))), Pi(0)),),
        valid_s=2.0,
        description="wrong on purpose",
    )
    assert not verify(wrong, 2.0, 1e-6).passed
    # the product's left side against sqrt(2) * 0.500001, 1.4e-6 off
    wrong_product = Identity(
        identity_id="woods-robbins-wrong",
        lhs=(),
        rhs=((TwoPowerRatio((Fraction(500001, 1000000),)), Sqrt(2)),),
        fixed_lhs=get_identity("woods-robbins").fixed_lhs,
        description="wrong on purpose",
    )
    rec = verify(wrong_product, None, 1e-8)
    assert not rec.passed
    assert rec.residual > rec.lhs_bound + rec.rhs_bound


# -- structural relations -----------------------------------------------------------


def test_example4a_is_theorem_instance_at_two():
    # 5 = 2^2+1 and 3 = 2^2-1, and the right side is 4 zeta(2) = 2 pi^2/3
    t3 = get_identity("theorem3")
    e4 = get_identity("example4a")
    s = 2.0
    assert t3.lhs[0][0].value(s) == 5.0
    assert t3.lhs[1][0].value(s) == 3.0
    assert e4.lhs[0][0].value(s) == 5.0
    assert e4.lhs[1][0].value(s) == 3.0
    r1 = verify(t3, s, 1e-9)
    r2 = verify(e4, s, 1e-9)
    assert abs(r1.rhs_value - r2.rhs_value) <= r1.rhs_bound + r2.rhs_bound
    assert abs(r2.rhs_value - 2 * math.pi**2 / 3) <= r2.rhs_bound + 1e-15


def test_missing_terms_vanish():
    # where consecutive 0/1 values are both zero, the combined term is exactly 0
    s = 2.0
    for n in (6, 10, 18, 24):
        combined = (2.0**s + 1) * thue_morse(n - 1) + (2.0**s - 1) * thue_morse(n)
        assert combined == 0.0
    # and those are the first four such indices
    hits = [n for n in range(1, 25) if thue_morse(n - 1) == 0 and thue_morse(n) == 0]
    assert hits == [6, 10, 18, 24]


# -- corollary-2 builder --------------------------------------------------------------


def test_corollary2_theorem_pairing_cancels_f():
    ident = make_corollary2_identity(
        TwoPowerRatio((1.0, 1.0)), TwoPowerRatio((-1.0, 1.0))
    )
    f_terms = [c for c, leaf in ident.lhs if getattr(leaf, "spec", None) == F_SERIES]
    assert len(f_terms) == 1
    assert f_terms[0].is_zero
    rec = verify(ident, 2.0, 1e-7)
    assert rec.passed


@pytest.mark.parametrize(
    "u,v,s",
    [
        (TwoPowerRatio((1.0,)), TwoPowerRatio((0.0,)), 2.0),
        (TwoPowerRatio((0.0,)), TwoPowerRatio((1.0,)), 3.0),
        (TwoPowerRatio((0.5, 1.0)), TwoPowerRatio((2.0, -0.5)), 2.5),
    ],
)
def test_corollary2_combinations(u, v, s):
    rec = verify(make_corollary2_identity(u, v), s, 1e-7)
    assert rec.passed


# -- the product check -----------------------------------------------------------------


def test_product_two_factors_exact():
    # at a coarse eps the truncation keeps one pair: (1/2)/(3/4) = 2/3
    ident = get_identity("woods-robbins")
    lhs = ident.fixed_lhs(0.2, 10**6)
    assert lhs.terms_used == 2
    assert lhs.value == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert abs(lhs.value - math.sqrt(2.0) / 2.0) <= lhs.abs_error_bound
    rec = verify(ident, None, 1e-8)
    assert rec.rhs_value == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)


def test_product_million_factors():
    rec = verify(get_identity("woods-robbins"), None, 1e-12)
    assert rec.passed
    assert rec.terms_used >= 10**6
    assert rec.lhs_bound <= 0.5e-12 and rec.rhs_bound <= 0.5e-12
    assert rec.residual <= 1e-12


def test_product_pairs_match_raw_partial_product():
    # the paired log sum, exponentiated, is the raw product of its factors
    lhs = get_identity("woods-robbins").fixed_lhs(1e-5, 10**6)
    with mpmath.workprec(120):
        raw = mpmath.fprod(
            (mpmath.mpf(2 * n + 1) / (2 * n + 2)) ** pm_thue_morse(n)
            for n in range(lhs.terms_used)
        )
    assert lhs.terms_used % 2 == 0
    assert abs(lhs.value - raw) <= 1e-13
    # the product's exact value lies inside the certified bound
    assert abs(lhs.value - math.sqrt(2.0) / 2.0) <= lhs.abs_error_bound


@pytest.mark.parametrize("ident", ["allouche-shallit", "woods-robbins"])
def test_fixed_form_refuses_below_its_rounding_floor_before_summing(ident):
    # 32 u (abs_sum or 0, plus 1) >= 7.1e-15 reaches eps/2 = 5e-17 before
    # a single term is summed (the sums once ran 13.2 s and 1.1 s first)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="double rounding budget alone"):
        verify(get_identity(ident), None, 1e-16)
    assert time.perf_counter() - t0 < 1.0


def test_product_rejects_tiny_n():
    ident = get_identity("woods-robbins")
    with pytest.raises(ResourceLimitError):
        verify(ident, None, 1e-8, max_terms=2)
    # below the double rounding budget no factor count suffices
    with pytest.raises(ResourceLimitError):
        verify(ident, None, 1e-14)
    with pytest.raises(DomainError):
        verify(ident, 2.0, 1e-8)


# -- verify() contract -------------------------------------------------------------------


def test_record_pass_iff_residual_within_bounds():
    rec = verify(get_identity("theorem3"), 3.0, 1e-8)
    assert rec.passed == (rec.residual <= rec.lhs_bound + rec.rhs_bound)
    assert rec.terms_used >= 1
    assert rec.wall_time_s >= 0.0


def test_verify_domain_errors():
    with pytest.raises(DomainError):
        verify(get_identity("example4a"), 3.0, 1e-8)  # only valid at s = 2
    with pytest.raises(DomainError):
        verify(get_identity("theorem3"), 1.0, 1e-8)
    with pytest.raises(DomainError):
        verify(get_identity("shallit:2"), 2.0, 1e-4)  # no exponent parameter
    with pytest.raises(DomainError):
        verify(get_identity("theorem3"), None, 1e-8)
    with pytest.raises(DomainError):
        verify(get_identity("theorem3"), 2.0, -1.0)


def test_verify_budgets_each_side_to_half_eps():
    eps = 1e-8
    rec = verify(get_identity("example9"), 2.0, eps)
    assert rec.lhs_bound <= eps / 2
    assert rec.rhs_bound <= eps / 2
    # every registry record at its default exponents and tolerance
    for ident in builtin_registry():
        s_values = ident.default_s if ident.kind is IdentityKind.DIRICHLET else (None,)
        for s in s_values:
            rec = verify(ident, s, ident.default_eps)
            assert rec.lhs_bound <= ident.default_eps / 2, (ident.identity_id, s, rec)
            assert rec.rhs_bound <= ident.default_eps / 2, (ident.identity_id, s, rec)


def test_auto_works_out_the_naive_head_once():
    # AUTO's mpmath route test and the naive sum it picks share one head
    _naive_head.cache_clear()
    r = eval_series_spec(DELTA_SERIES, 4.0, 1e-13)
    assert r.method is Method.NAIVE
    info = _naive_head.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("ident", ["allouche-shallit", "woods-robbins"])
def test_fixed_form_lhs_is_float64_at_any_working_precision(ident):
    # the fixed-form sums run in float64 on every path, so a wider working
    # precision must leave their value and rounding budget as they are
    identity = get_identity(ident)
    wide = verify(identity, None, 1e-8, prec=Precision(80, 1e-8))
    double = verify(identity, None, 1e-8, prec=Precision(53, 1e-8))
    assert (wide.lhs_value, wide.lhs_bound) == (double.lhs_value, double.lhs_bound)
    assert wide.passed and double.passed


def test_verify_numeric_fields_are_reproducible():
    a = verify(get_identity("example8"), 3.0, 1e-7)
    b = verify(get_identity("example8"), 3.0, 1e-7)
    assert (a.lhs_value, a.lhs_bound, a.rhs_value, a.rhs_bound, a.residual) == (
        b.lhs_value,
        b.lhs_bound,
        b.rhs_value,
        b.rhs_bound,
        b.residual,
    )
    assert a.terms_used == b.terms_used


def test_verify_at_high_working_precision():
    # the whole chain (coefficients, routes, closed forms) at 110 bits
    prec = Precision(working_bits=110, target_eps=1e-20)
    rec = verify(get_identity("theorem3"), 6.0, 1e-20, prec=prec)
    assert rec.passed
    assert rec.lhs_bound + rec.rhs_bound <= 1e-20
    assert rec.residual <= 1e-20


# -- report schema stability ----------------------------------------------------------------


def test_golden_report_fixture_parses():
    from autoseries.report import ReportDocument

    text = Path(__file__).parent.joinpath("data", "golden_report.json").read_text()
    doc = ReportDocument.from_json(text)
    assert [r.identity_id for r in doc.records] == ["theorem3", "shallit:2", "woods-robbins"]
    assert doc.records[0].s == 2.0
    assert doc.records[1].s is None
    # the fixture's record 3 says heuristic: true; a record is never heuristic
    # now, and the key stays in every report
    assert [r["heuristic"] for r in doc.to_json_obj()["records"]] == [False] * 3
    assert doc.all_passed
    assert doc.config.eps == 1e-6
    # round trip preserves every record field
    again = ReportDocument.from_json(doc.to_json())
    assert again.records == doc.records
