"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.  All
checks are residual-based at pinned tolerances; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np
import pytest

from autoseries.errors import DomainError
from autoseries.evaluator import (
    COMPOSITE9_SERIES,
    DELTA_SERIES,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
    ZETA_SERIES,
    eval_functional_equation,
    eval_naive,
)
from autoseries.identities import get_identity, verify
from autoseries.sequences import (
    CoefficientSequence,
    digit_sum_block,
    period_doubling_block,
    pm_thue_morse_block,
    thue_morse_block,
)
from autoseries.solver import AlphabetCase, case_target, lambda_fn, mint_identity, solve_case

SQRT2 = math.sqrt(2.0)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_zeta_combination_on_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (2.0, 3.0, 4.0):
        rec = verify(get_identity("theorem3"), s, 1e-8)
        worst = max(worst, rec.residual)
        assert rec.passed
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 2.0
    _line(1, ok, f"zeta combination residual ≤ 1e-8 on s∈{{2,3,4}} "
                 f"(worst {worst:.2e}, {elapsed:.2f}s accelerated)")


def test_criterion_02_integer_alphabet_examples():
    ra = verify(get_identity("example4a"), 2.0, 1e-8)
    rb = verify(get_identity("example4b"), 3.0, 1e-8)
    assert abs(ra.rhs_value - 2 * math.pi**2 / 3) <= ra.rhs_bound + 1e-15
    ok = ra.residual <= 1e-8 and rb.residual <= 1e-8 and ra.passed and rb.passed
    _line(2, ok, f"5/3 and 9/7 combinations residual ≤ 1e-8 "
                 f"({ra.residual:.2e}, {rb.residual:.2e})")


def test_criterion_03_shift_ratio_two_independent_methods():
    worst = 0.0
    for s in (2.0, 3.0, 4.0):
        rec = verify(get_identity("lemma1"), s, 1e-8)
        assert rec.passed
        worst = max(worst, rec.residual)
    ok = worst <= 1e-8
    _line(3, ok, f"shifted/unshifted ±1 ratio ≤ 1e-8, functional-equation vs naive "
                 f"(worst {worst:.2e})")


def test_criterion_04_alphabet_propositions():
    recs = [
        verify(get_identity("prop6a"), 2.0, 1e-8),
        verify(get_identity("prop6b"), 3.0, 1e-8),
        verify(get_identity("prop6c"), 4.0, 1e-8),
    ]
    ok = all(r.passed and r.residual <= 1e-8 for r in recs)

    # direct-summation cross-check of (a) at a looser tolerance: the series
    # are genuinely summed, no factored shortcut
    q = eval_naive(SeriesSpec(CoefficientSequence.affine(-1.0, 0.0, 1)), 2.0, 5e-7)
    r = eval_naive(SeriesSpec(CoefficientSequence.affine(1.0 / 3.0, 4.0 / 3.0)), 2.0, 5e-7)
    direct = abs(5.0 * q.value + 3.0 * r.value)
    ok = ok and direct <= 5.0 * q.abs_error_bound + 3.0 * r.abs_error_bound
    _line(4, ok, f"alphabet propositions ≤ 1e-8 at s=2,3,4 "
                 f"({recs[0].residual:.2e}, {recs[1].residual:.2e}, {recs[2].residual:.2e}; "
                 f"direct-sum cross-check {direct:.2e})")


def test_criterion_05_solver_round_trip_and_minting():
    rng = np.random.default_rng(0xA5C11)
    cases = list(AlphabetCase)
    solutions = []
    draws = 0
    while len(solutions) < 1000:
        draws += 1
        case = cases[draws % 3]
        k = float(rng.uniform(-4.0, 4.0))
        l = float(rng.uniform(-4.0, 4.0))
        try:
            sol = solve_case(case, k, l)
        except DomainError:
            continue
        if sol.s > 1.0:
            solutions.append(sol)
    worst_ratio = 0.0
    for sol in solutions:
        resid = abs(lambda_fn(sol.s, sol.k, sol.l) - case_target(sol.case, sol.s))
        worst_ratio = max(worst_ratio, resid / (1e-10 * (1.0 + 2.0**sol.s)))
    ok = worst_ratio <= 1.0

    verifiable = [sol for sol in solutions if 1.0 < sol.s <= 8.0]
    failures = 0
    for sol in verifiable:
        rec = verify(mint_identity(sol), sol.s, 1e-6)
        if not rec.passed:
            failures += 1
    ok = ok and failures == 0
    _line(5, ok, f"1000 solved alphabets: balance residual ≤ 1e-10(1+2^s) "
                 f"(worst ratio {worst_ratio:.3f}); {len(verifiable)} minted with s≤8 "
                 f"all verify at 1e-6 ({failures} failures)")


def test_criterion_06_difference_series_bridge():
    worst = 0.0
    for s in (2.0, 3.0):
        rec = verify(get_identity("example8"), s, 1e-8)
        assert rec.passed
        worst = max(worst, rec.residual)
    ok = worst <= 1e-8
    _line(6, ok, f"difference-series bridge to the odd ±1 series ≤ 1e-8 on s∈{{2,3}} "
                 f"(worst {worst:.2e})")


def test_criterion_07_period_doubling_hurwitz():
    worst = 0.0
    for s in (2.0, 3.0):
        rec = verify(get_identity("example9"), s, 1e-6)
        assert rec.passed
        worst = max(worst, rec.residual)
    ok = worst <= 1e-6
    _line(7, ok, f"period-doubling composite equals 4^-s Hurwitz(1/4) ≤ 1e-6 "
                 f"(worst {worst:.2e})")


def test_criterion_08_classical_digit_sum_checks():
    worst_shallit = 0.0
    for base in (2, 3, 10):
        rec = verify(get_identity(f"shallit:{base}"), None, 1e-4)
        assert rec.passed
        worst_shallit = max(worst_shallit, rec.residual)
    rec_as = verify(get_identity("allouche-shallit"), None, 1e-8)
    rec_wr = verify(get_identity("woods-robbins"), None, 1e-8)
    ok = (
        worst_shallit <= 1e-4
        and rec_as.passed
        and rec_as.residual <= 1e-8
        and rec_wr.passed
        and rec_wr.residual <= 1e-8
        and rec_wr.lhs_bound + rec_wr.rhs_bound <= 1e-8
    )
    _line(8, ok, f"digit-sum harmonic ≤ 1e-4 (worst {worst_shallit:.2e}); "
                 f"weighted binary ≤ 1e-8 ({rec_as.residual:.2e}); "
                 f"alternating product ≤ 1e-8 ({rec_wr.residual:.2e}, "
                 f"{rec_wr.terms_used} factors)")


def test_criterion_09_cross_method_agreement():
    naive_eps = {1.5: 1e-3, 2.0: 1e-7, 3.0: 1e-9, 4.0: 1e-10, 6.0: 1e-12}
    ok = True
    worst = 0.0
    for s, eps in naive_eps.items():
        rn = eval_naive(F_SERIES, s, eps)
        rf = eval_functional_equation(s, 1e-10)
        gap = abs(rn.value - rf.value)
        combined = rn.abs_error_bound + rf.abs_error_bound
        ok = ok and gap <= combined
        worst = max(worst, gap / combined)
    _line(9, ok, f"naive vs functional-equation within combined bounds on "
                 f"{{1.5,2,3,4,6}} (worst gap/bounds {worst:.3f})")


def test_criterion_10_sequence_laws_exhaustive():
    n_max = 100_000
    t = thue_morse_block(0, 4 * n_max + 4)
    e = pm_thue_morse_block(0, 4 * n_max + 4)
    p = period_doubling_block(0, 4 * n_max + 4)
    n = np.arange(1, n_max + 1)
    n0 = np.arange(0, n_max + 1)
    checks = [
        np.array_equal(t[2 * n], t[n]),
        np.array_equal(t[2 * n + 1], 1 - t[n]),
        np.array_equal(e[2 * n], e[n]),
        np.array_equal(e[2 * n + 1], -e[n]),
        np.all(p[2 * n0] == 0),
        np.all(p[4 * n0 + 1] == 1),
        np.array_equal(p[4 * n0 + 3], p[n0]),
        np.array_equal(e[: n_max + 1], 1 - 2 * t[: n_max + 1]),
        np.array_equal(digit_sum_block(1, n_max + 1, 2) % 2, t[1 : n_max + 1]),
        bool(np.all(e[0 : 2 * n_max : 2] + e[1 : 2 * n_max : 2] == 0)),
    ]
    ok = all(checks)
    _line(10, ok, f"all recurrence laws hold exhaustively for n ≤ 1e5 "
                  f"({len(checks)} law families)")


def test_criterion_11_bound_honesty_random_triples():
    rng = np.random.default_rng(0xB0B)
    pool = [
        ZETA_SERIES,
        G_SERIES,
        PHI_SERIES,
        GAMMA_SERIES,
        DELTA_SERIES,
        ODD_PLUS_MINUS_SERIES,
        COMPOSITE9_SERIES,
        SeriesSpec(CoefficientSequence.digit_sum(2)),
        SeriesSpec(CoefficientSequence.digit_sum(3)),
    ]
    violations = 0
    functional_trials = 0
    for trial in range(100):
        if trial % 10 == 9:
            # exercise the accelerated route as well
            s = float(rng.uniform(1.5, 6.0))
            eps = float(10.0 ** rng.uniform(-9.0, -5.0))
            coarse = eval_functional_equation(s, eps)
            fine = eval_functional_equation(s, eps / 100.0)
            functional_trials += 1
        else:
            spec = pool[int(rng.integers(len(pool)))]
            s = float(rng.uniform(2.0, 6.0))
            # the eps/100 run must stay affordable (tail floor at 3e6 terms)
            # and above the 53-bit rounding budget for those term counts
            tail_floor = 100.0 * spec.tail_bound(3_000_000, s) / 0.95
            rounding_floor = 2500.0 * 32.0 * 2.0**-52 * spec.abs_sum_bound(3_000_000, s)
            lo = max(tail_floor, rounding_floor, 1e-11)
            hi = max(1e-4, lo * 10.0)
            eps = float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))
            coarse = eval_naive(spec, s, eps)
            fine = eval_naive(spec, s, eps / 100.0)
        if abs(float(coarse.value) - float(fine.value)) > coarse.abs_error_bound:
            violations += 1
    ok = violations == 0
    _line(11, ok, f"bound honesty over 100 random (series, s, eps) triples "
                  f"({functional_trials} accelerated): {violations} violations")
