"""The digit-sum records' self-similarity law (``identities._digit_sum_lhs``).

S = sum_{n>=1} s_b(n) w(n), w(n) = n^-d - (n+1)^-d, is cut at N = Hb and
the terms from N on are folded back onto the first H by s_b(hb + L) =
s_b(h) + L, leaving R = sum_{n>=N} ((n mod b) - (b-1)/2) w(n), which Abel
summation confines to [-floor(b^2/4)/2 w(N), 0].
"""

from fractions import Fraction

import mpmath
import pytest

from autoseries.evaluator import DEFAULT_MAX_TERMS
from autoseries.identities import _digit_sum_lhs, get_identity, verify
from autoseries.sequences import digit_sum_block


def _w(n: int, d: int) -> Fraction:
    return Fraction(1, n**d) - Fraction(1, (n + 1) ** d)


def _weighted(lo: int, hi: int, base: int, d: int) -> Fraction:
    """sum_{lo<=n<hi} s_b(n) w(n), exactly."""
    digits = digit_sum_block(lo, hi, base)
    return sum((int(c) * _w(n, d) for n, c in zip(range(lo, hi), digits)), Fraction(0))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("base", [2, 3, 10])
def test_one_digit_block_identity_in_fractions(base, d):
    # sum_{N<=n<Xb} s_b(n) w(n) = b^-d sum_{H<=h<X} s_b(h) w(h)
    #                             + sum_{N<=n<Xb} (n mod b) w(n)
    for h, x in ((1, 2), (1, 7), (3, 11), (12, 20)):
        n, end = h * base, x * base
        low_digits = sum((Fraction(m % base) * _w(m, d) for m in range(n, end)), Fraction(0))
        folded = Fraction(1, base**d) * _weighted(h, x, base, d) + low_digits
        assert _weighted(n, end, base, d) == folded


@pytest.mark.parametrize("base", range(2, 65))
def test_abel_constant_of_the_low_digit(base):
    # the partial sums of L - (b-1)/2 over a period are J(J-b)/2: never
    # positive, and at least -floor(b^2/4)/2, which they reach
    centre = Fraction(base - 1, 2)
    partial, sums = Fraction(0), [Fraction(0)]
    for low in range(base):
        partial += low - centre
        sums.append(partial)
    assert sums == [Fraction(j * (j - base), 2) for j in range(base + 1)]
    assert max(sums) == 0
    assert min(sums) == -Fraction(base * base // 4, 2)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("base", [2, 3, 10])
def test_low_digit_remainder_lies_in_its_abel_range(base, d):
    # every partial remainder over whole periods stays in [-K w(N), 0]
    k = Fraction(base * base // 4, 2)
    for h in (1, 4, 9):
        n = h * base
        remainder = Fraction(0)
        for m in range(n, n + 40 * base):
            remainder += (Fraction(m % base) - Fraction(base - 1, 2)) * _w(m, d)
            if (m + 1) % base == 0:
                assert -k * _w(n, d) <= remainder <= 0


def _closed_form(base: int, d: int):
    """(b/(b-1)) log b for d = 1, zeta(d)(b^d - b)/(b^d - 1) otherwise."""
    with mpmath.workdps(40):
        if d == 1:
            return mpmath.mpf(base) / (base - 1) * mpmath.log(base)
        return mpmath.zeta(d) * (base**d - base) / (base**d - 1)


@pytest.mark.parametrize(
    "d, eps",
    [(1, eps) for eps in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    + [(2, eps) for eps in (1e-8, 1e-10, 1e-12, 1e-13)],
)
@pytest.mark.parametrize("base", [2, 3, 5, 10, 16])
def test_law_value_within_its_bound_of_the_closed_form(base, d, eps):
    # the closed forms are a test-only oracle: the law never reads them
    lhs = _digit_sum_lhs(base, d)(eps, DEFAULT_MAX_TERMS)
    assert lhs.abs_error_bound <= eps
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(lhs.value) - _closed_form(base, d)) <= lhs.abs_error_bound
    assert (lhs.terms_used + 1) % base == 0


def test_digit_sum_records_terms_at_their_default_eps():
    # the hand-made (log n)/n and (log n)/n^2 tails read 446,551, 589,680,
    # 1,438,525 and 60,898 terms here
    pinned = {"shallit:2": 103, "shallit:3": 125, "shallit:10": 389, "allouche-shallit": 519}
    for ident, terms in pinned.items():
        identity = get_identity(ident)
        rec = verify(identity, None, identity.default_eps)
        assert rec.passed, rec
        assert rec.terms_used == terms, ident
