"""Fixed-point partial sums of Dirichlet series, the mpmath summation path.

``fixed_point_sums`` sums c_j times each of a series' denominator powers
d^-s at a context width P (``evaluator._sum`` picks P = working bits + 20
+ log2 N), and, from the same table, at s + 1, s + 2, ... when asked.
Denominator d gets an integer weight w(d) within ``_WEIGHT_UNITS`` = 11
units of 2^P d^-s (``_Weights``), for every s > 1.  Only 2 and the odd
primes below about 4s take a ``ctx.power`` (a log and an exp); every other
weight comes from smaller ones:

* a product: w(d) = (w(a) w(b)) >> P for d = ab, with 2^k = 2 2^(k-1),
  d = 2^k o (o odd), and an odd composite d = p (d/p), p its smallest
  prime factor;
* a binomial step (odd d only) from m = d - r, a multiple of 2^k (k >= 2)
  whose odd part is in the table, where m - |r| >= 4s|r|: w(d) = (w(m) F)
  >> (P + G), F within 3 units of 2^(P+G) (1 + r/m)^-s, the binomial
  series sum_j C(-s, j) (r/m)^j evaluated by integer Horner
  (``_BinomialStep``).  In the table m is the neighbour d -+ 1 divisible
  by 4 (odd part at most (d+1)/4), or else the other neighbour; past it,
  the nearest multiple of 2^k, 2^(k-1) the least power of two above
  d // limit, so the odd part is in the table, |r| <= 2^(k-1) <=
  2d/limit, and no step recurs.

Errors, in units of 2^-P.  A power is within an ulp of d^-s (at most a
unit, as d^-s < 1) plus the floor, so within 2.  A product ab with a, b
>= 2 carries each factor's error times the other factor's value, which is
at most 2^-s < 1/2 (3^-s < 1/3 for odd factors), plus the floor: the
powers of two stay within 3 units (e_k <= e_(k-1)/2 + 2^(2-k) + 1), and
odd composites within 2U/3 + 1 <= U.  A step weight carries the error of
w(m), made of the odd part's error shrunk by 2^-ks, the power of two's
scaled by o^-s <= 1/3, and one floor, then multiplied by (1 + r/m)^-s <=
e^(s|r|/(m-|r|)) <= e^(1/4); F's error and the step's floor add at most
one unit and a bit.  For k = 1 (the other neighbour) that gives at most
1.285 (2 + U/2) + 1.02 <= U with U = 11, and less for k >= 2, so by
induction from the small primes every weight stays within U = 11 units.

Over N terms with coefficient majorant C (twice that for composite9's two
weights) the weights' error is at most 11 C N 2^-P <= 11 C 2^-21 u, u the
working unit roundoff; with the one rounding of the final conversion it
stays far inside the evaluator's ``_ROUNDING_OPS`` u envelope.

The weights of the odd numbers below ``_TABLE_LIMIT`` = 2^15 (16,384
integers) stay in a table; an odd denominator past it is p (d/p) when its
cofactor is in the table and a step weight otherwise, an even one 2^k o.
Coefficients are read in blocks of ``_KERNEL_BLOCK``
(``CoefficientSequence.block``, as a list of Python floats) and grouped by
value; the values are floats, hence dyadic rationals, so each group's
weight sum times its value is exact integer arithmetic, and the one
rounding after the weights is the final conversion to an mpf.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_fixed

#: The kernel keeps the fixed-point weights of the odd denominators below
#: this (16,384 of them) for reuse as factors.
_TABLE_LIMIT = 1 << 15

#: Terms per coefficient block, kept small because a block lives as
#: Python lists.
_KERNEL_BLOCK = 1 << 11

#: Guard bits of the binomial step's factor past the weights' P bits.
_STEP_GUARD = 8

#: Every weight is within this many units of 2^-P of 2^P d^-s, at s and,
#: in ``fixed_point_sums``, at every deeper exponent.
_WEIGHT_UNITS = 11


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


class _BinomialStep:
    """The factors 2^(P+G) (1 + r/m)^-s of a binomial step, G =
    ``_STEP_GUARD``, for m - |r| >= 4s|r| (``reaches``).

    (1 - a/m)^-s = sum_k C_k (a/m)^k with C_k = C(s+k-1, k), and
    (1 + a/m)^-s takes the signs (-1)^k.  The integer coefficients A_k ~
    2^(P+G) C_k are built on first use, up to the depth the closest steps
    need, by A_0 = 2^(P+G) and A_(k+1) = floor(A_k (s+k)/(k+1)) with s =
    num/den exact.  For s >= 1 every ratio (s+k)/(k+1) and every C_k is at
    least 1, so |A_k - 2^(P+G) C_k| <= k C_k.  Where m - a >= 4sa the
    terms' ratio (s+k) a/((k+1) m) is below 1/4, so those errors weigh at
    most sum_k k 4^-k = 4/9 unit in the factor; the series stops once its
    next term is below 2^-2 units (the tail is then under 1/3), and the
    Horner floors, each under a unit times (a/m)^k <= 5^-k, add under 5/4:
    a factor is within 3 units."""

    def __init__(self, num: int, den: int, prec: int):
        self.scale = prec + _STEP_GUARD
        #: the least m that ``reaches`` with r = -+1: m - 1 >= 4s
        self.min_neighbour = -(-4 * num // den) + 1
        self._s = (num, den)
        self._down = [1 << self.scale]
        self._up = [1 << self.scale]
        self._depths: dict[int, int] = {}

    def reaches(self, m: int, r: int) -> bool:
        """Whether m - |r| >= 4s|r|, so (1 + r/m)^-s is within e^(1/4) of 1
        and every term of its series gains at least 2 bits."""
        num, den = self._s
        return (m - abs(r)) * den >= 4 * num * abs(r)

    def _extend(self) -> None:
        k = len(self._down) - 1
        num, den = self._s
        c = self._down[k] * (num + k * den) // ((k + 1) * den)
        self._down.append(c)
        self._up.append(c if k & 1 else -c)

    def _depth(self, gain: int) -> int:
        """The last k the Horner reads where a/m <= 2^-gain: the first term
        left out is below 2^(-2-scale)."""
        k = 0
        while True:
            while len(self._down) <= k + 1:
                self._extend()
            if self._down[k + 1].bit_length() + 2 <= gain * (k + 1):
                self._depths[gain] = k
                return k
            k += 1

    def factor(self, m: int, r: int) -> int:
        """2^(P+G) (1 + r/m)^-s, for r != 0 that ``reaches`` m."""
        a = abs(r)
        # a/m <= 2^(ceil(log2 a) - floor(log2 m))
        gain = m.bit_length() - 1 - (a - 1).bit_length()
        depth = self._depths.get(gain)
        if depth is None:
            depth = self._depth(gain)
        acc = 0
        for c in (self._up if r > 0 else self._down)[depth::-1]:
            acc = c + acc * a // m
        return acc


class _Weights:
    """The fixed-point weights w(d) of the denominators up to ``top`` at s:
    ``two[k]`` for 2^k, ``table[i]`` for the odd 2i + 1 below ``limit``,
    ``odd(o)`` for any odd o.  Each is within ``_WEIGHT_UNITS`` of 2^P d^-s,
    P = ctx.prec (see the module docstring).  The powers of two come first:
    a step starts from one of them times a table entry."""

    def __init__(self, s, top: int, limit: int, primes: list[int], ctx: MPContext):
        prec = self.prec = ctx.prec
        x = ctx.mpf(s)
        neg_s = -x
        man, exp = x.man_exp
        num, den = (man, 1 << -exp) if exp < 0 else (man << exp, 1)
        self._step = _BinomialStep(num, den, prec)
        self._power = lambda d: to_fixed(ctx.power(d, neg_s)._mpf_, prec)
        self.limit = limit
        self.two = [1 << prec]
        if top > 1:
            w2 = self._power(2)
            # a step starts from at most d + 2d/limit <= 2 top
            while len(self.two) < (2 * top).bit_length():
                self.two.append((self.two[-1] * w2) >> prec)
        table = self.table = [1 << prec]
        spf = _smallest_odd_factors(3, 2, (limit - 2) // 2, primes)
        for o, p in zip(range(3, limit, 2), spf):
            table.append(self._stepped(o) if p == 0 else (table[p >> 1] * table[(o // p) >> 1]) >> prec)

    def odd(self, o: int) -> int:
        """The weight of an odd o: the table's, or a step weight past it."""
        return self.table[o >> 1] if o < self.limit else self._stepped(o)

    def _stepped(self, d: int) -> int:
        """The weight of an odd d by a binomial step, or by a power where no
        step reaches (d below 4s, or a table too small for s).  In the
        table the step starts from the neighbour d -+ 1 divisible by 4,
        else from the other one; past it, from the nearest multiple m of
        2^k, 2^(k-1) the least power of two above d // limit, so that m's
        odd part is in the table."""
        step, limit = self._step, self.limit
        if d < limit:
            m = d + 1 if d & 2 else d - 1
            if m < step.min_neighbour:
                m = 2 * d - m
                if m < step.min_neighbour:
                    return self._power(d)
        else:
            k = (d // limit).bit_length() + 1
            m = ((d + (1 << (k - 1))) >> k) << k
            if not step.reaches(m, d - m):
                return self._power(d)
        k = (m & -m).bit_length() - 1
        w_m = (self.two[k] * self.table[m >> (k + 1)]) >> self.prec
        return (w_m * step.factor(m, d - m)) >> step.scale


def fixed_point_sums(spec, s, counts: list[int], ctx: MPContext,
                     deep_from: int = 0) -> tuple[list[int], int]:
    """Partial sums of ``spec`` (an ``evaluator.SeriesSpec``) at the
    exponents s, s + 1, ..., s + len(counts) - 1, the one at s over the first
    ``counts[0]`` counters and the one at s + i, i >= 1, over those from
    ``deep_from`` up to ``counts[i]`` (``counts`` does not increase), in fixed
    point at P = ctx.prec bits: integers S_i and a shift e with sum_i =
    S_i 2^-e exactly, e >= P.  ``s`` is a float or an mpf, taken exactly
    (the binomial steps read its dyadic value, not a rounding of it).

    The weights at s (``_Weights``) take ``ctx.power`` only at 2 and at the
    odd primes below 4s (past the table only where the table is too small
    for s: never for the full 2^15-entry one below s of about 4,000), and
    are each within ``_WEIGHT_UNITS`` = 11 units of 2^P d^-s.  Every
    exponent reads that one table: the weight of d at
    s + i + 1 is its weight at s + i floored after division by d, which
    adds at most one unit and divides the error already there by d >= 2
    (d = 1 is exact), so a weight stays within 11/2 + 1 <= 11 units of
    2^P d^-(s+i) at every exponent."""
    prec = ctx.prec
    j0 = spec.counter_start
    end = j0 + counts[0]
    lasts = [(d + step * (counts[0] - 1), step) for _, d, step in spec.denominators(j0)]
    top = max(last for last, _ in lasts)
    primes = _odd_primes(math.isqrt(top))
    # an even d's odd part is at most d/2, an odd composite's cofactor at most d/3
    needed = max(last // (2 if step == 1 else 3) for last, step in lasts)
    # and a prime up to 4s + 2 in it steps from a neighbour, past it may take a power
    limit = max(2, min(_TABLE_LIMIT, max(needed, min(top, int(4 * s) + 2)) + 1))
    weights = _Weights(s, top, limit, primes, ctx)
    table, two, odd = weights.table, weights.two, weights.odd

    sums: list[dict[float, int]] = [{} for _ in counts]
    for lo in range(j0, end, _KERNEL_BLOCK):
        count = min(_KERNEL_BLOCK, end - lo)
        letters = spec.coeffs.block(lo, lo + count).tolist()
        # block offsets below which a counter also enters exponent s + 1, s + 2, ...
        deeper = [c - (lo - j0) for c in counts[1:] if c > lo - j0]
        first_deep = deeper[0] if deeper else 0
        # and from which on it does (``deep_from``)
        start_deep = deep_from - (lo - j0)
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
                        w = table[d >> 1]
                    else:
                        # p (d/p) when the cofactor is in the table
                        p = spf[i]
                        if p and d // p < limit:
                            w = (table[p >> 1] * table[(d // p) >> 1]) >> prec
                        else:
                            w = odd(d)
                else:
                    # 2^k o, o odd
                    k = (d & -d).bit_length() - 1
                    o = d >> k
                    w = (two[k] * (table[o >> 1] if o < limit else odd(o))) >> prec
                acc[v] += w
                if i < first_deep and i >= start_deep:
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
