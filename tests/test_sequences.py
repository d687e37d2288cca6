"""Sequence generators: frozen prefixes, recurrence laws, block/scalar agreement."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoseries.errors import DomainError
from autoseries.sequences import (
    CoefficientSequence,
    SequenceKind,
    affine_seq,
    delta,
    digit_sum,
    digit_sum_block,
    period_doubling,
    period_doubling_block,
    pm_thue_morse,
    pm_thue_morse_block,
    thue_morse,
    thue_morse_block,
)

EXHAUSTIVE_N = 100_000


# -- digit-parity t_n ---------------------------------------------------------


def test_thue_morse_prefix():
    assert [thue_morse(n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_powers_of_two():
    for k in range(0, 60):
        assert thue_morse(2**k) == 1


def test_thue_morse_million_against_popcount_oracle():
    n = 10**6
    oracle = bin(n).count("1") & 1
    assert oracle == 1  # frozen: 10^6 has seven set bits
    assert thue_morse(n) == oracle


def test_thue_morse_recurrences_exhaustive():
    t = thue_morse_block(0, 2 * EXHAUSTIVE_N + 2)
    n = np.arange(1, EXHAUSTIVE_N + 1)
    assert np.array_equal(t[2 * n], t[n])
    assert np.array_equal(t[2 * n + 1], 1 - t[n])


def test_thue_morse_rejects_negative():
    with pytest.raises(DomainError):
        thue_morse(-1)


# -- +/-1 form ----------------------------------------------------------------


def test_pm_prefix():
    assert [pm_thue_morse(n) for n in range(4)] == [1, -1, -1, 1]


def test_pm_recurrences_first_thousand():
    for n in range(1001):
        assert pm_thue_morse(2 * n) == pm_thue_morse(n)
        assert pm_thue_morse(2 * n + 1) == -pm_thue_morse(n)


def test_pm_equals_one_minus_two_t_exhaustive():
    t = thue_morse_block(0, EXHAUSTIVE_N)
    e = pm_thue_morse_block(0, EXHAUSTIVE_N)
    assert np.array_equal(e, 1 - 2 * t)


def test_pm_block_sums_vanish_on_even_prefixes():
    # every block [2m, 2m+1] sums to zero, so prefixes of even length do too
    e = pm_thue_morse_block(0, 2 * EXHAUSTIVE_N)
    pair_sums = e[0::2] + e[1::2]
    assert np.all(pair_sums == 0)
    assert int(np.sum(e)) == 0


# -- difference sequence ------------------------------------------------------


def test_delta_examples():
    assert delta(1) == 1
    assert delta(3) == -1
    assert delta(6) == 0


def test_delta_rejects_zero():
    with pytest.raises(DomainError):
        delta(0)


def test_delta_range_and_zero_pattern():
    t = thue_morse_block(0, EXHAUSTIVE_N + 1)
    d = t[1:] - t[:-1]
    assert set(np.unique(d)) <= {-1, 0, 1}
    # delta vanishes exactly where consecutive values agree
    zeros = np.flatnonzero(d == 0) + 1
    assert np.array_equal(zeros, np.flatnonzero(t[1:] == t[:-1]) + 1)


def test_first_double_zeros_of_t():
    # first indices with t_{n-1} = t_n = 0
    t = thue_morse_block(0, 30)
    hits = [n for n in range(1, 30) if t[n - 1] == 0 and t[n] == 0]
    assert hits[:4] == [6, 10, 18, 24]


# -- period-doubling ----------------------------------------------------------


def _period_doubling_oracle(n: int, memo={0: 0}) -> int:
    # independent unroll of the defining recurrence
    if n in memo:
        return memo[n]
    if n % 2 == 0:
        v = 0
    elif n % 4 == 1:
        v = 1
    else:
        v = _period_doubling_oracle((n - 3) // 4)
    memo[n] = v
    return v


def test_period_doubling_prefix():
    expected = [_period_doubling_oracle(n) for n in range(8)]
    assert expected == [0, 1, 0, 0, 0, 1, 0, 1]
    assert [period_doubling(n) for n in range(8)] == expected


def test_period_doubling_rules_exhaustive():
    p = period_doubling_block(0, 4 * EXHAUSTIVE_N + 4)
    n = np.arange(EXHAUSTIVE_N + 1)
    assert np.all(p[2 * n] == 0)
    assert np.all(p[4 * n + 1] == 1)
    assert np.array_equal(p[4 * n + 3], p[n])


def test_period_doubling_block_matches_scalar():
    blk = period_doubling_block(0, 3000)
    assert [period_doubling(n) for n in range(3000)] == blk.tolist()


# -- digit sums ----------------------------------------------------------------


def test_digit_sum_examples():
    assert digit_sum(255, 2) == 8
    assert digit_sum(1000, 10) == 1
    assert digit_sum(7, 3) == 3  # 7 = 21 in base 3


def test_digit_sum_rejects_small_base():
    with pytest.raises(DomainError):
        digit_sum(5, 1)


def test_digit_sum_base2_parity_is_thue_morse():
    s2 = digit_sum_block(1, EXHAUSTIVE_N + 1, 2)
    t = thue_morse_block(1, EXHAUSTIVE_N + 1)
    assert np.array_equal(s2 % 2, t)


@pytest.mark.parametrize("base", [2, 3, 10])
def test_digit_sum_block_matches_scalar(base):
    blk = digit_sum_block(1, 2000, base)
    assert [digit_sum(n, base) for n in range(1, 2000)] == blk.tolist()


@pytest.mark.parametrize("base", [2, 3, 10])
def test_digit_sum_majorant(base):
    seq = CoefficientSequence.digit_sum(base)
    vals = digit_sum_block(1, 10_001, base)
    for n in (1, 2, 9, 10, 99, 100, 9999, 10000):
        assert vals[n - 1] <= seq.value_bound(n)
    # the majorant is monotone, so the block maximum obeys the last bound
    assert vals.max() <= seq.value_bound(10_000)


# -- affine alphabets -----------------------------------------------------------


def test_affine_examples():
    assert [affine_seq(n, -1.0, 0.0) for n in range(4)] == [-1.0, 0.0, 0.0, -1.0]
    for n in range(1001):
        assert affine_seq(n, 0.0, 1.0) == thue_morse(n)
    r2 = 2.0**0.5
    q = CoefficientSequence.affine(-r2, 1.0 - r2)
    expected = [1.0 - r2 if thue_morse(n) else -r2 for n in range(50)]
    assert q.block(0, 50).tolist() == expected


def test_affine_value_bound():
    q = CoefficientSequence.affine(-2.5, 0.5)
    assert q.bound_constant == 2.5
    assert CoefficientSequence.plus_minus().bound_constant == 1.0


# -- discrepancy (mean and bound for the Abel tail) ----------------------------------

_R2 = 2.0**0.5


@pytest.mark.parametrize(
    "seq",
    [
        CoefficientSequence.plus_minus(),
        CoefficientSequence.thue_morse(),
        CoefficientSequence.delta(),
        CoefficientSequence.affine(-1.0, 0.0),
        CoefficientSequence.affine(1.0 / 3.0, 4.0 / 3.0),
        CoefficientSequence.affine(-_R2, 1.0 - _R2),
    ],
    ids=lambda seq: seq.label(),
)
def test_discrepancy_bound_by_brute_force(seq):
    # max_M |sum_{min_index<=n<M} (c_n - mu)| over M <= 2^16, in exact
    # rational arithmetic on the stored coefficients, is exactly B
    mu_f, b_f, growth = seq.discrepancy
    assert growth == 0.0
    letters = [(Fraction(low), Fraction(high)) for low, high, _ in seq.parts]
    mu = sum((low + high) / 2 for low, high in letters)
    b = sum(abs(high - low) / 2 for low, high in letters)
    # the reported floats are mu and B to within one rounding
    assert abs(Fraction(mu_f) - mu) <= Fraction(2) ** -53 * abs(mu)
    assert abs(Fraction(b_f) - b) <= Fraction(2) ** -53 * b
    diffs = [Fraction(c) - mu for c in seq.block(seq.min_index, 2**16).tolist()]
    scale = math.lcm(*{d.denominator for d in diffs})
    partial = itertools.accumulate(int(d * scale) for d in diffs)
    assert max(abs(p) for p in partial) == b * scale


def test_majorant_streams_have_no_discrepancy():
    assert CoefficientSequence.digit_sum(3).discrepancy is None


def test_period_doubling_discrepancy_by_brute_force():
    # |D(M)| <= B + g log2 M = 1 + (log2 M)/4 for every 1 <= M <= 2^20, in
    # exact integers: with X = 3|D(M)| (an integer), X <= 3 + (3/4) log2 M
    # holds iff 4 (X - 3) <= 0 or 2^(4 (X - 3)) <= M^3
    mu, b, g = CoefficientSequence.period_doubling().discrepancy
    assert (mu, b, g) == (Fraction(1, 3), 1.0, 0.25)
    top = 2**20
    c = period_doubling_block(0, top).astype(np.int64)
    three_d = np.abs(np.cumsum(3 * c - 1))  # 3 |D(M)| at M = 1 .. 2^20
    for x3 in np.unique(three_d[three_d > 3]):
        # the first M at which 3 |D(M)| reaches x3 is the hardest case
        m = int(np.argmax(three_d == x3)) + 1
        assert 2 ** (4 * (int(x3) - 3)) <= m**3, m
    # the largest |D(M)| over M <= 2^k is ceil(k/2)/3: the bound's log2
    # growth is needed
    for k in range(1, 21):
        assert three_d[: 2**k].max() == (k + 1) // 2


_DIGIT_BASES = [*range(2, 17), 36]


@pytest.mark.parametrize("base", _DIGIT_BASES)
def test_digit_sum_block_at_table_edges(base):
    # q = b^k is the table length (b^k <= 2^16); ranges that start or end
    # at q - 1, q, q + 1, straddle several multiples of q, or start far out
    q = base
    while q * base <= 1 << 16:
        q *= base
    ranges = [(lo, hi) for lo in (1, q - 1, q, q + 1) for hi in (q - 1, q, q + 1, q + 2) if lo < hi]
    ranges += [(q - 3, 3 * q + 5), (5 * q - 1, 5 * q + 1), (q * q - 2, q * q + 2)]
    ranges += [(lo, lo + 3 * q // 2) for lo in (2**40, 10**15, 2**40 - q // 2, 10**15 - 1)]
    for lo, hi in ranges:
        lo = max(lo, 1)
        step = max(1, (hi - lo) // 3000)
        blk = digit_sum_block(lo, hi, base)
        assert blk.dtype == np.int64 and len(blk) == hi - lo
        picks = sorted({*range(0, hi - lo, step), *range(max(0, hi - lo - 50), hi - lo)})
        assert [int(blk[i]) for i in picks] == [digit_sum(lo + i, base) for i in picks], (lo, hi)


# -- stream plumbing -------------------------------------------------------------


#: (stream, its scalar reference generator)
_REFERENCES = [
    (CoefficientSequence.thue_morse(), thue_morse),
    (CoefficientSequence.affine(0, 1, 1), lambda n: thue_morse(n - 1)),
    (CoefficientSequence.plus_minus(), pm_thue_morse),
    (CoefficientSequence.affine(1, -1, 1), lambda n: pm_thue_morse(n - 1)),
    (CoefficientSequence.delta(), delta),
    (CoefficientSequence.period_doubling(), period_doubling),
    (CoefficientSequence.digit_sum(3), lambda n: digit_sum(n, 3)),
    (CoefficientSequence.affine(-0.5, 0.5), lambda n: affine_seq(n, -0.5, 0.5)),
    # 3 + (0.1 - 3) is 0.10000000000000009: the block must give the letter
    (CoefficientSequence.affine(3.0, 0.1), lambda n: affine_seq(n, 3.0, 0.1)),
]


@pytest.mark.parametrize(
    "seq, ref",
    [pytest.param(seq, ref, id=seq.label().replace("/shift+1", "-shifted")) for seq, ref in _REFERENCES],
)
def test_block_matches_term_everywhere(seq, ref):
    lo = seq.min_index
    blk = seq.block(lo, lo + 500)
    assert blk.dtype == np.float64
    assert [float(ref(n)) for n in range(lo, lo + 500)] == blk.tolist()


@pytest.mark.parametrize(
    "seq",
    [
        CoefficientSequence.thue_morse(),
        CoefficientSequence.plus_minus(),
        CoefficientSequence.delta(),
        CoefficientSequence.period_doubling(),
        CoefficientSequence.digit_sum(2),
        CoefficientSequence.digit_sum(3),
        CoefficientSequence.digit_sum(10),
        CoefficientSequence.affine(3.0, 0.1),
    ],
    ids=lambda s: s.label(),
)
def test_values_match_block(seq):
    # the block as a list is what the mpmath kernel reads: the scalar
    # values there, over far ranges that carry digit-sum and 2-adic runs
    # across many block boundaries
    scalar = {
        SequenceKind.PERIOD_DOUBLING: period_doubling,
        SequenceKind.DIGIT_SUM: lambda n: digit_sum(n, seq.base),
        SequenceKind.AFFINE: lambda n: _alphabet_sum(seq, n),
    }[seq.kind]
    if seq == CoefficientSequence.delta():
        scalar = delta
    for lo in (seq.min_index, 99_999, 3**25 - 5, 2**40 - 7):
        assert [float(scalar(n)) for n in range(lo, lo + 3000)] == seq.block(lo, lo + 3000).tolist()
    with pytest.raises(DomainError):
        seq.block(seq.min_index - 1, seq.min_index + 5)


def _alphabet_sum(seq, n):
    """The scalar reference of a sum of alphabets: its parts' affine_seq(n - shift)."""
    return sum(affine_seq(n - shift, low, high) for low, high, shift in seq.parts)


def test_min_index_enforced():
    with pytest.raises(DomainError):
        CoefficientSequence.delta().block(0, 5)
    with pytest.raises(DomainError):
        CoefficientSequence.affine(1, -1, 2)
    with pytest.raises(DomainError):
        CoefficientSequence.alphabets()


#: a part (low, high, shift) with dyadic letters k/8, |k| <= 64, so every
#: sum of letters is exact
_DYADIC = st.integers(-64, 64).map(lambda k: k / 8.0)
_PART = st.tuples(_DYADIC, _DYADIC, st.integers(0, 1))


@given(st.tuples(_PART, _PART), st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_two_part_alphabets(parts, far):
    # the block against the scalar parts, the discrepancy bound over every
    # M <= 4096 in exact arithmetic, and the majorant against every value
    seq = CoefficientSequence.alphabets(*parts)
    m = seq.min_index
    for lo in (m, m + far):
        assert seq.block(lo, lo + 600).tolist() == [_alphabet_sum(seq, n) for n in range(lo, lo + 600)]
    mu, big_b, growth = seq.discrepancy
    assert growth == 0.0
    # R(M) = sum_{n<M} (c_n - mu), each part's residue summed from its shift
    r = np.zeros(4097)
    for low, high, shift in parts:
        part = CoefficientSequence.affine(low, high, shift).block(shift, 4096)
        r[shift + 1 :] += np.cumsum(part - (low + high) / 2)
    assert np.abs(r).max() <= big_b
    values = seq.block(m, 4096)
    assert seq.bound_constant >= np.abs(values).max()


def test_delta_is_two_alphabets_with_the_old_numbers():
    # {0, 1} at n and {0, -1} at n - 1: mu = 0, B = 1, C = 1
    seq = CoefficientSequence.delta()
    assert seq.parts == ((0.0, 1.0, 0), (0.0, -1.0, 1))
    assert (seq.min_index, seq.discrepancy, seq.bound_constant) == (1, (0.0, 1.0, 0.0), 1.0)
    assert seq.label() == "delta"


def test_generators_are_pure():
    assert [thue_morse(12345)] * 3 == [thue_morse(12345) for _ in range(3)]
    seq = CoefficientSequence.digit_sum(7)
    assert np.array_equal(seq.block(1, 100), seq.block(1, 100))


# -- property-based laws -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**62))
def test_doubling_laws_random(n):
    assert thue_morse(2 * n) == thue_morse(n)
    assert thue_morse(2 * n + 1) == 1 - thue_morse(n)
    assert pm_thue_morse(n) == 1 - 2 * thue_morse(n)


@given(st.integers(min_value=0, max_value=2**62))
def test_period_doubling_laws_random(n):
    assert period_doubling(2 * n) == 0
    assert period_doubling(4 * n + 1) == 1
    assert period_doubling(4 * n + 3) == period_doubling(n)


@given(st.integers(min_value=1, max_value=2**62), st.integers(min_value=2, max_value=16))
@settings(max_examples=200)
def test_digit_sum_laws_random(n, base):
    # shifting by one base digit preserves the sum; congruence mod base-1
    assert digit_sum(n * base, base) == digit_sum(n, base)
    assert digit_sum(n, base) % (base - 1) == n % (base - 1)
