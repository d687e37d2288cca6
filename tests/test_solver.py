"""Alphabet solver: closed-form solutions, guards, minting, exact reduction."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from autoseries.errors import DomainError
from autoseries.evaluator import (
    GAMMA_SERIES,
    PHI_SERIES,
    SeriesSpec,
    ZETA_SERIES,
    partial_sum,
)
from autoseries.identities import Route, Series, get_identity, verify
from autoseries.sequences import CoefficientSequence
from autoseries.solver import (
    AlphabetCase,
    AlphabetSolution,
    case_target,
    lambda_fn,
    mint_identity,
    solve_case,
)

SQRT2 = math.sqrt(2.0)


# -- the balance function ---------------------------------------------------------


def test_lambda_closed_values():
    assert lambda_fn(2.0, 1.0, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-14)
    for s in (1.5, 2.0, 3.0, 7.0):
        assert lambda_fn(s, 0.0, 0.0) == 2.0**s
        assert lambda_fn(s, 1.0, 1.0) == 2.0**s - 2.0


# -- closed-form solutions of the three cases ----------------------------------------


def test_solution_zero_case():
    sol = solve_case("zero", 1.0, 1.0 / 3.0)
    assert sol.s == pytest.approx(2.0, abs=1e-13)
    assert sol.verifiable


def test_solution_pows_case():
    sol = solve_case("pows", 1.0, 9.0 / 7.0)
    assert sol.s == pytest.approx(3.0, abs=1e-13)


def test_solution_eta_case():
    sol = solve_case("powsminus2", SQRT2, (17.0 * SQRT2 - 2.0) / 15.0)
    assert sol.s == pytest.approx(4.0, abs=1e-10)


# -- guards, named --------------------------------------------------------------------


@pytest.mark.parametrize(
    "case,k,l,fragment",
    [
        ("zero", 2.0, 1.0, "k != l + 1"),
        ("zero", 1.0, -1.0, "k + l != 0"),
        ("zero", -2.0, -1.0, "> 0"),
        # k != l + 1 in floating point, yet -k + l + 1 evaluates to exactly 0
        ("zero", 1 / 3, -2 / 3, "k != l + 1"),
        ("zero", 5 / 3, 2 / 3, "k != l + 1"),
        ("zero", -1 / 6, -7 / 6, "k != l + 1"),
        ("pows", 1.0, 1.0, "k != l"),
        ("pows", 1.0, -1.0, "k + l != 0"),
        ("pows", 2.0, 1.0, "> 0"),
        ("powsminus2", 1.0, 1.0, "k != l"),
        ("powsminus2", 1.5, 0.5, "k + l != 2"),
        ("powsminus2", 2.0, 1.0, "> 0"),
    ],
)
def test_guards_name_the_violated_constraint(case, k, l, fragment):
    with pytest.raises(DomainError, match=r".*" + fragment.replace("+", r"\+")):
        solve_case(case, k, l)


def test_sub_one_solutions_are_flagged_not_rejected():
    # ratio in (0, 2) gives s <= 1: returned, flagged, and not mintable
    sol = solve_case("zero", 0.3, 0.3)
    assert sol.s < 1.0
    assert not sol.verifiable
    with pytest.raises(DomainError):
        mint_identity(sol)


# -- minting -------------------------------------------------------------------------


def test_minted_paper_examples_verify():
    for case, k, l, s_expect in (
        ("zero", 1.0, 1.0 / 3.0, 2.0),
        ("pows", 1.0, 9.0 / 7.0, 3.0),
        ("powsminus2", SQRT2, (17.0 * SQRT2 - 2.0) / 15.0, 4.0),
    ):
        sol = solve_case(case, k, l)
        ident = mint_identity(sol)
        rec = verify(ident, sol.s, 1e-6)
        assert rec.passed, (case, rec)
        assert abs(sol.s - s_expect) < 1e-9


def test_minted_trivial_alphabet_reproduces_zeta_combination():
    # each case's all-s alphabet, where lam - target vanishes identically:
    # the log formula cannot produce it (its numerator is guarded), so the
    # all-s solution is constructed directly; at k = 0, l = 0 the sequences
    # coincide with the 0/1 stream
    for case, k, l in (
        (AlphabetCase.POW_S, 0.0, 0.0),
        (AlphabetCase.ZERO, 0.5, -0.5),
        (AlphabetCase.POW_S_MINUS_2, 1.0, 1.0),
    ):
        sol = AlphabetSolution(k, l, case, 3.0, 0.0, True)
        ident = mint_identity(sol)
        assert ident.valid_s is None, case  # detected as valid for all s
        q_spec = ident.lhs[0][1].spec
        r_spec = ident.lhs[1][1].spec
        for n in (5, 100, 1000):
            # q[n-1] = t[n-1] - k and r[n] = t[n] + l
            zeta = partial_sum(ZETA_SERIES, 2.0, n)
            q_ref = partial_sum(PHI_SERIES, 2.0, n) - k * zeta
            r_ref = partial_sum(GAMMA_SERIES, 2.0, n) + l * zeta
            if k == l == 0.0:
                assert partial_sum(q_spec, 2.0, n) == q_ref
                assert partial_sum(r_spec, 2.0, n) == r_ref
            assert partial_sum(q_spec, 2.0, n) == pytest.approx(q_ref, rel=1e-14, abs=1e-15)
            assert partial_sum(r_spec, 2.0, n) == pytest.approx(r_ref, rel=1e-14, abs=1e-15)
        for s in (2.0, 3.0, 4.0):
            assert verify(ident, s, 1e-8).passed, (case, s)


@pytest.mark.parametrize(
    "ident, case, k, l",
    [
        ("theorem5-zero", AlphabetCase.ZERO, 0.5, -0.5),
        ("theorem5-pows", AlphabetCase.POW_S, 0.0, 0.0),
        ("theorem5-eta", AlphabetCase.POW_S_MINUS_2, 1.0, 1.0),
        ("theorem3", AlphabetCase.POW_S, 0.0, 0.0),
    ],
)
def test_alphabet_record_is_its_minted_identity(ident, case, k, l):
    # the registry's alphabet records and `solve --mint` state Theorem 5 from
    # one case table: each record is the identity minted at its case's all-s
    # alphabet, theorem3 with both series on the decomposed route
    record = get_identity(ident)
    minted = mint_identity(AlphabetSolution(k, l, case, 3.0, 0.0, True))
    lhs = minted.lhs
    if ident == "theorem3":
        lhs = tuple((c, Series(leaf.spec, Route.DECOMPOSED)) for c, leaf in lhs)
        assert [leaf.spec for _, leaf in lhs] == [PHI_SERIES, GAMMA_SERIES]
    assert (record.lhs, record.rhs, record.valid_s) == (lhs, minted.rhs, minted.valid_s)
    assert record.valid_s is None


def test_minted_identity_only_valid_at_solution():
    sol = solve_case("pows", 1.0, 9.0 / 7.0)
    ident = mint_identity(sol)
    assert ident.valid_s == pytest.approx(3.0)
    with pytest.raises(DomainError):
        verify(ident, 2.0, 1e-6)


# -- exact algebraic reduction over partial sums ----------------------------------------


def test_partial_sum_reduction_matches_zeta_multiple():
    # over any truncation, the alphabet combination minus the 0/1 combination
    # telescopes to a zeta partial sum times (-(2^s+1) k + (2^s-1) l)
    n_terms = 10_000
    s = 2.0
    k, l = 0.7, 1.3
    q = SeriesSpec(CoefficientSequence.affine(-k, 1.0 - k, 1))
    r = SeriesSpec(CoefficientSequence.affine(l, 1.0 + l))
    u, v = 2.0**s + 1.0, 2.0**s - 1.0
    lhs = u * partial_sum(q, s, n_terms) + v * partial_sum(r, s, n_terms)
    base = u * partial_sum(PHI_SERIES, s, n_terms) + v * partial_sum(GAMMA_SERIES, s, n_terms)
    zeta_partial = partial_sum(ZETA_SERIES, s, n_terms)
    expected = (-u * k + v * l) * zeta_partial
    assert lhs - base == pytest.approx(expected, rel=1e-12)


# -- randomized round trip ----------------------------------------------------------------


def test_round_trip_hundred_random_alphabets():
    rng = np.random.default_rng(20260811)
    cases = list(AlphabetCase)
    found = 0
    while found < 100:
        case = cases[found % 3]
        k = float(rng.uniform(-4.0, 4.0))
        l = float(rng.uniform(-4.0, 4.0))
        try:
            sol = solve_case(case, k, l)
        except DomainError:
            continue
        if sol.s <= 1.0:
            continue
        found += 1
        target = case_target(case, sol.s)
        assert abs(lambda_fn(sol.s, k, l) - target) <= 1e-10 * (1.0 + 2.0**sol.s)


@given(
    st.sampled_from(list(AlphabetCase)),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
@example(AlphabetCase.ZERO, 9.29e-60, -1.0)
@example(AlphabetCase.POW_S_MINUS_2, 1.1125369292536007e-308, -5e-324)
def test_solver_property_balance_hits_target(case, k, l):
    try:
        sol = solve_case(case, k, l)
    except DomainError:
        assume(False)
        return
    target = case_target(case, sol.s)
    assert abs(lambda_fn(sol.s, k, l) - target) <= 1e-10 * (1.0 + 2.0**sol.s)
