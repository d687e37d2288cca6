"""Fixed-point partial sums of Dirichlet series, the mpmath summation path.

``fixed_point_sums`` sums c_j times each of a series' denominator powers
d^-s at a context width P (``evaluator._sum`` picks P = working bits + 20
+ log2 N), and, from the same table, at s + 1, s + 2, ... when asked.
Denominator d gets an integer weight w(d) within Omega(d) + 2 units of
2^P d^-s (Omega counts prime factors with multiplicity).  n^-s
is completely multiplicative, so only primes need a power: w(1) = 2^P, a
prime's weight is ``ctx.power`` (within about an ulp, at most one unit)
truncated to an integer, and every other d is a product ab of smaller
numbers, w(d) = (w(a) w(b)) >> P: 2^k = 2 2^(k-1), d = 2^k o with o odd,
and an odd d = p (d/p) with p its smallest prime factor.  The shift
truncates by less than a unit and carries each factor's error scaled by
the other factor's weight over 2^P, which is below 1/2 for a factor above
1 (plus the product of the two errors over 2^P, negligible), so
err(d) < (err(a) + err(b))/2 + 1 <= Omega(d)/2 + 3 <= Omega(d) + 2; a
factor 1 is exact.

Over N terms with last denominator D and coefficient majorant C (twice
that for composite9's two weights) the weights' error is at most
C N (log2 D + 2) 2^-P <= C (log2 D + 2) 2^-21 u, u the working unit
roundoff; with the one rounding of the final conversion it stays far
inside the evaluator's ``_ROUNDING_OPS`` u envelope.

The weights of the odd numbers below ``_TABLE_LIMIT`` = 2^15 (16,384
integers) stay in a table; a denominator whose odd part or cofactor lies
past it takes a power of its own.  Coefficients are read in blocks of
``_KERNEL_BLOCK`` (``CoefficientSequence.block``, as a list of Python
floats) and grouped by value; the values are floats, hence dyadic
rationals, so each group's weight sum times its value is exact integer
arithmetic, and the one rounding after the weights is the final
conversion to an mpf.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable

from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_fixed

#: The kernel keeps the fixed-point weights of the odd denominators below
#: this (16,384 of them) for reuse as factors.
_TABLE_LIMIT = 1 << 15

#: Terms per coefficient block, kept small because a block lives as
#: Python lists.
_KERNEL_BLOCK = 1 << 11


def _odd_primes(top: int) -> list[int]:
    """The odd primes up to ``top``."""
    sieve = bytearray([1]) * (top + 1)
    for p in range(3, math.isqrt(top) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(range(p * p, top + 1, 2 * p)))
    return [p for p in range(3, top + 1, 2) if sieve[p]]


def _smallest_odd_factors(d: int, step: int, count: int, primes: list[int]) -> list[int]:
    """For each of d, d + step, ..., its smallest odd prime factor p with
    p^2 <= it, or 0 where there is none (an odd number then is 1 or prime).
    ``step`` is 1, 2 or 4; ``primes`` must reach the square root of the last."""
    spf = [0] * count
    last = d + step * (count - 1)
    # largest prime first, so each entry ends at its smallest
    for p in reversed(primes[: bisect_right(primes, math.isqrt(last))]):
        # first index at or past p^2 whose number p divides
        i = (-d * pow(step, -1, p)) % p
        floor = max(0, -(-(p * p - d) // step))
        if i < floor:
            i += -(-(floor - i) // p) * p
        spf[i::p] = [p] * len(range(i, count, p))
    return spf


def _weight_table(
    limit: int, primes: list[int], power: Callable[[int], int], prec: int
) -> list[int]:
    """Fixed-point weights of the odd numbers below ``limit``, entry i for
    2i + 1: ``power`` at primes, products of two earlier entries otherwise."""
    table = [1 << prec]
    spf = _smallest_odd_factors(3, 2, (limit - 2) // 2, primes)
    for o, p in zip(range(3, limit, 2), spf):
        table.append(power(o) if p == 0 else (table[p >> 1] * table[(o // p) >> 1]) >> prec)
    return table


def fixed_point_sums(spec, s, counts: list[int], ctx: MPContext) -> tuple[list[int], int]:
    """Partial sums of ``spec`` (an ``evaluator.SeriesSpec``) at the
    exponents s, s + 1, ..., s + len(counts) - 1, the one at s + i over the
    first ``counts[i]`` counters (``counts`` does not increase), in fixed
    point at P = ctx.prec bits: integers S_i and a shift e with sum_i =
    S_i 2^-e exactly, e >= P.  ``s`` is a float or an mpf.

    Every exponent reads the one weight table of s: the weight of d at
    s + i + 1 is its weight at s + i floored after division by d, which
    adds at most one unit and divides the error already there by d >= 2
    (d = 1 is exact), so a weight stays within Omega(d) + 4 units of
    2^P d^-(s+i) at every exponent."""
    prec = ctx.prec
    neg_s = -ctx.mpf(s)

    def power(d: int) -> int:
        return to_fixed(ctx.power(d, neg_s)._mpf_, prec)

    j0 = spec.counter_start
    end = j0 + counts[0]
    lasts = [(d + step * (counts[0] - 1), step) for _, d, step in spec.denominators(j0)]
    top = max(last for last, _ in lasts)
    primes = _odd_primes(math.isqrt(top))
    # an even d's odd part is at most d/2, an odd composite's cofactor at most d/3
    needed = max(last // (2 if step == 1 else 3) for last, step in lasts) + 1
    limit = max(2, min(_TABLE_LIMIT, needed))
    weights = _weight_table(limit, primes, power, prec)
    # weights[odd_count + k] is the weight of 2^k
    odd_count = len(weights)
    weights.append(1 << prec)
    if top > 1:
        w2 = power(2)
        while len(weights) < odd_count + top.bit_length():
            weights.append((weights[-1] * w2) >> prec)

    sums: list[dict[float, int]] = [{} for _ in counts]
    for lo in range(j0, end, _KERNEL_BLOCK):
        count = min(_KERNEL_BLOCK, end - lo)
        letters = spec.coeffs.block(lo, lo + count).tolist()
        # block offsets below which a counter also enters exponent s + 1, s + 2, ...
        deeper = [c - (lo - j0) for c in counts[1:] if c > lo - j0]
        first_deep = deeper[0] if deeper else 0
        for sign, d0, step in spec.denominators(lo):
            # factors of the odd denominators past the table
            spf = None
            if d0 + step * (count - 1) >= limit:
                spf = _smallest_odd_factors(d0, step, count, primes)
            accs = [dict.fromkeys(letters, 0) for _ in range(1 + len(deeper))]
            acc = accs[0]
            for i, v in enumerate(letters):
                if not v:
                    continue
                d = d0 + step * i
                if d & 1:
                    if d < limit:
                        w = weights[d >> 1]
                    else:
                        # p (d/p) when the cofactor is in the table
                        p = spf[i]
                        if p and d // p < limit:
                            w = (weights[p >> 1] * weights[(d // p) >> 1]) >> prec
                        else:
                            w = power(d)
                else:
                    # 2^k o, o odd, when o is in the table
                    k = (d & -d).bit_length() - 1
                    if d >> k < limit:
                        w = (weights[odd_count + k] * weights[d >> (k + 1)]) >> prec
                    else:
                        w = power(d)
                acc[v] += w
                if i < first_deep:
                    for m, stop in enumerate(deeper, 1):
                        if i >= stop:
                            break
                        w //= d
                        accs[m][v] += w
            for out, a in zip(sums, accs):
                for v, x in a.items():
                    out[v] = out.get(v, 0) + sign * x
    # sum_v v S_v over a common power-of-two denominator 2^scale
    scale = max((v.as_integer_ratio()[1].bit_length() - 1 for v in sums[0]), default=0)
    totals = []
    for by_letter in sums:
        ratios = [(v.as_integer_ratio(), x) for v, x in by_letter.items()]
        totals.append(sum(num * x << (scale - den.bit_length() + 1) for (num, den), x in ratios))
    return totals, prec + scale
