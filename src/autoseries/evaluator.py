"""Bounded evaluation of Dirichlet series with digit-parity coefficients.

Two summation routes and the coefficient algebra of two linear-form routes
live here; ``identities.eval_series_spec`` picks among all four:

* ``eval_naive``: direct summation of the first N terms with an analytic
  tail.  The bit-valued streams have a mean mu and a discrepancy bound
  B(M), |R_M| <= B(M) for every M >= 1 with R_{M+1} - R_M = c_M - mu
  (``CoefficientSequence.discrepancy``, which also proves them):

      alphabet {a, b} over t_{n-r}: mu = (a+b)/2, B = |b-a|/2
      period-doubling: mu = 1/3, B(M) = 1 + (log2 M)/4

  which is (1/2, 1/2) for t_n = {0, 1}, (0, 1) for e_n = {1, -1}, and, as
  sums of alphabets add their mu and B, (0, 1) for d_n = t_n - t_{n-1}.
  For weights w_n decreasing to 0 (the dominant entry a n + b of the
  ``denominators`` table, w_n = (a n + b)^-s), Abel summation gives
  sum_{n>=N1} (c_n - mu) w_n = -R_{N1} w_{N1} + sum_{n>N1} R_n (w_{n-1} - w_n)
  (R_n w_n -> 0 as B grows like a logarithm).  With a constant B this
  lies within 2B w_{N1}.  With B(M) = B + g log2 M the second sum, summed
  by parts, is at most B(N1 + 1) w_{N1} + g sum_{n>N1} log2(1 + 1/n) w_n,
  and log2(1 + 1/n) <= 1/(n ln 2) <= (a+b)/((a n + b) ln 2) for n >= 1
  and a progression a n + b with b >= 0; against w_n <= (a n + b)^-s and
  sum_{n>N1} (a n + b)^(-s-1) <= (a N1 + b)^-s/(a s), the whole tail lies
  within

      [B(N1) + B(N1 + 1) + g (a+b)/(a s ln 2)] (a N1 + b)^-s,

  for n^s: [2 + (log2 N1 + log2 (N1+1) + 1/(s ln 2))/4] N1^-s.

  Aligned blocks (alphabets over t).  Aligned Thue-Morse blocks of length
  2^k annihilate every polynomial of degree < k (Prouhet-Tarry-Escott;
  Allouche & Shallit, *Automatic Sequences*, CUP 2003; Allouche & Cohen,
  Bull. LMS 17, 1985), so a cut where the first omitted index N1 - r of a
  part {low, high} at shift r is a multiple 2^k m0 of 2^k (m0 >= 1)
  bounds that part's oscillation, A = |high - low|/2 times e_{n-r}, by

      |tail - mean part| <= 2A 2^(k(k-1)/2) a^k (s)_k (a N1 + b)^-(s+k),

  k = 0 being the Abel law.  Proof: sum_{t<2^k} e_t x^t = prod_{i<k}
  (1 - x^(2^i)) and e_(2^k m + t) = e_m e_t, so block m contributes e_m
  Delta_k w(2^k m + r), Delta_k = prod_{i<k} (1 - S^(2^i)) with S the
  shift.  Delta_k w(x) = (-1)^k times the integral of w^(k) over x plus a
  box of sides 1, 2, ..., 2^(k-1), of volume 2^(k(k-1)/2); w^(k) keeps its
  sign and |w^(k)| = a^k (s)_k (a x + b)^-(s+k) decreases, so the values
  (-1)^k Delta_k w(2^k m + r) are positive, decreasing in m, and at most
  2^(k(k-1)/2) |w^(k)(N1)| at m = m0.  The partial sums of e_m lie in
  {-1, 0, 1}, so Abel summation over e_m, m >= m0, gives the factor 2.
  Parts are summed: a stream's parts that read t_n (r = 0) and t_{n-1}
  (r = 1) cannot both start a block at N1, so N1 goes on the multiple of
  2^k for the r = 0 parts, and each r = 1 part adds its term at N1, less
  its mean, sign (c_{N1} - mu_part) w(N1), to the value by hand
  (``SeriesSpec.boundary_terms``; it needs no bound, only its rounding),
  and starts its blocks at N1 + 1.  d_n = t_n - t_{n-1} takes one such
  term.  ``required_counters`` solves the law in logs for every k (2^k
  at most N1 - rho) and keeps the k with the fewest counters: g(2) to
  1e-8 takes 111 counters at k = 4, where k = 0 took 14,509.

  The mean part mu sum_{n>=N1} w_n is the sum over the ``denominators``
  table of sign mu step^-s zeta(s, d/step): mu a^-s zeta(s, N1 + b/a) for
  one progression a n + b, and mu (zeta(s, N1) - 4^-s zeta(s, N1 + 3/4))
  for composite9 (``SeriesSpec.mean_tail``), whose weight n^-s - (4n+3)^-s
  decreases and is at most n^-s, so it takes the n^-s law.  The mean part
  (mu != 0 only) comes from the Euler-Maclaurin engine.  Period-doubling
  keeps the Abel law and digit sums the (b-1)(log_b n + 1) majorant and
  its integral, each with the truncation point from ``_truncation_search``.

* ``eval_functional_equation``: the binomial functional equation
  f(p) = sum_{k>=1} w_k(p) f(p+k), w_k(p) = 2^(-p-k) binom(p+k-1, k) > 0
  (Allouche & Cohen), run on f's tail past M terms, g_M(p) = sum_{n>M}
  e_{n-1} n^-p.  As sum_k w_k(p) n^-(p+k) = (2n-1)^-p - (2n)^-p and
  e_{2j} = e_j = -e_{2j+1},

      g_M(p) = h_M(p) + sum_k w_k(p) g_M(p+k),  f(s) = P_2M(s) + sum_k w_k(s) g_M(s+k),

  with h_M the terms M < n <= 2M and P_2M the first 2M.  The levels
  j = J0 - 1, ..., 0 recur down in fixed point, each truncated at a depth
  K_j sized for its own s + j (``depth_for``), and add their own row,
  P_2M(s) or h_M(s + j), all from one table of n^-s over 2M counters
  (``_fe_rows``).  No leaf is summed: every g_M(s + J0 + i) is 0 within
  the Abel tail 2(M+1)^-(s+J0+i), and so the bounds of the k > K_j terms
  fall by the ratio (p+k)/(2(M+1)(k+1)), not f's (p+k)/(2(k+1)), which
  gives their geometric majorant (``_fe_truncation``).  A level's bound
  is sum_k w_k bound_{j+k} plus its truncation, rounding and row bound;
  the weights sum to 1 - 2^-p < 1, so the error does not grow with depth.
  ``_fe_plan`` reads the path's direct caps (``_FE_CAPS``): J0 = 0, f(s)
  summed by ``eval_naive``, while that takes at most the float64 cap of
  counters and, on the mpmath path, a fixed-point head of at most the
  mpmath cap, and otherwise M = ``_FE_M``, with J0 the least level whose
  leaf bound fits 0.45 eps.  At large s the direct sum is the only plan.

* The zeta + f decomposition and the odd-index split need no kernel of
  their own: each is a linear form sum_i c_i(2^s) leaf_i, certified by
  ``_linear_form`` like either side of an identity, and
  ``identities._eval_routed`` writes them.  A sum of alphabets {a, b} over
  t_{n-r} with an n^s denominator is alpha zeta(s) + beta f(s): with q =
  2^-s, a part adds (a+b)/2 to alpha and (a-b)/2 (r = 1) or
  (b-a)(1+q)/(2-2q) (r = 0) to beta, so d_n is f(s)/(1-q); the zeta leaf
  gets 0.25 eps/|alpha| and the f leaf 0.45 eps/|beta|, whether or not the
  other leaf is present.  Every n >= 1 factors uniquely as 2^k (2m+1), and
  e_{2^k(2m+1)-1} = (-1)^k e_m, so f(s) = A(s)/(1+q) and g(s) =
  -A(s)/(1-q) with A(s) = sum_{m>=0} e_m/(2m+1)^s, which is
  ``ODD_PLUS_MINUS_SERIES`` summed by ``eval_naive`` to 0.98 eps/|c|.

On the double path every partial-sum loop uses compensated (Kahan)
accumulation over fixed 2^14-term chunks, so results are bit-reproducible,
and every reported bound adds an explicit rounding budget,
``_ROUNDING_OPS`` u times the absolute-sum majorant, on top of the
analytic tail.  Wider working precisions split a naive sum of N counters
at a head h (``_naive_head``): the least h such that the float64 kernel's
budget over counters h..N-1, ``_ROUNDING_OPS`` 2^-52 times their
absolute-sum majorant (``abs_sum_bound`` from counter h), fits
``_FLOAT_SHARE`` = eps/1024.  Those counters go through the float64
kernel above, whose budget joins the bound (``_naive_truncation`` counts
eps/1024 in its rounding share, so the cut allows for it), and the head
through the fixed-point kernel (``fixed_point.fixed_point_sums``) at P =
working bits + 20 + log2 h bits; the two add at the head's width.  The
terms fall fast enough that h is a few to a few thousand counters where N
runs to millions (composite9 at (3, 1e-20): 19,074 of 12,572,796).  The
functional equation's plan and AUTO's mpmath test read h, not N
(``_sums_directly``).  ``partial_sum`` keeps the whole sum in fixed point.
Only 2 and the odd primes below 4s take an ``mpmath`` power: n^-s is
completely multiplicative, so a composite's weight is a product of two
smaller ones, and every other prime's is a binomial step w(m + r) = w(m)
(1 + r/m)^-s from a nearby multiple m of 4 (r = +-1 in the table) or of
a larger power of 2, the series evaluated by integer Horner.  Every weight is within 11 units of 2^-P, so the sum of |c_n|
times those units is at most 11 C N 2^-P <= 11 C 2^-21 u (C the
coefficient majorant, twice that for composite9's two weights); with the
one rounding of the final conversion it stays far inside the same
``_ROUNDING_OPS`` u envelope.  The table keeps the weights of the odd
numbers below 2^15 (16,384 integers); no denominator past it takes a
power.

Every coefficient rational in 2^s is a ``TwoPowerRatio``, evaluated in
q = 2^-s by one Horner, so no s overflows it.  Weighted sums of certified
values (both routes above, both sides of an identity) go through
``_linear_form`` and ``_weighted_sum``.  A zeta-type leaf whose share
eps/|coefficient| is finer than the working width can certify runs wider
on its own (``_zeta_leaf``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import DomainError, ResourceLimitError
from .precision import DOUBLE_BITS, GUARD_BITS, Precision, _check_eps, _check_s, _mp_context
from .result import EvalResult, Method
from .sequences import CoefficientSequence, SequenceKind
from .special_functions import _hurwitz_core

#: Fixed summation chunk; fixed so chunk boundaries (and hence rounding)
#: never depend on how work is scheduled.
CHUNK = 1 << 14

#: Default hard cap on naive term counts; beyond it the evaluator refuses
#: rather than silently degrade.
DEFAULT_MAX_TERMS = 10**9

#: The most terms any cap allows: past 2^53 the kernels' float64 counters
#: are no longer exact.
_MAX_INDEX = 1 << 53

# Fraction of the tolerance given to the analytic tail; the rest absorbs
# the rounding budget.
_TAIL_FRACTION = 0.95

# Of that, the share of the mean part's zeta(s, a) leaf when mu != 0.
_MEAN_FRACTION = 0.25

# Conservative envelope for per-term power/multiply rounding, in-chunk
# pairwise summation, and the cross-chunk Kahan combination, in units of
# unit roundoff times the absolute-sum majorant.
_ROUNDING_OPS = 32.0

# The unit roundoff of float64, the one the float64 kernel's budget reads
# on either path.
_DOUBLE_UNIT = 2.0 ** (1 - DOUBLE_BITS)

# The share of eps that the float64 part of a naive sum on the mpmath path
# may take: the counters past the fixed-point head (``_naive_head``) are
# summed by the float64 kernel, within ``_ROUNDING_OPS`` 2^-52 of their
# absolute sum.
_FLOAT_SHARE = 2.0 ** -10

# The float64 part runs only where every weight d^-s, d the largest
# denominator at the last counter, is at least 2^-this: normal, with room.
_NORMAL_EXPONENT = 1000.0


class DenominatorForm(Enum):
    POWER_OF_N = "n^s"
    POWER_OF_ODD_N = "(2n+1)^s"
    COMPOSITE9 = "composite9"   # c_n ((4n+3)^s - n^s) / (4n^2+3n)^s


class Truncation(NamedTuple):
    """Where ``eval_naive`` stops: the first ``counters`` counters summed,
    the rest bounded over aligned blocks of 2^``k`` counters
    (``SeriesSpec.required_counters``) within ``bound``."""

    counters: int
    k: int
    bound: float


@dataclass(frozen=True)
class SeriesSpec:
    """A Dirichlet series: coefficient stream and denominator form.

    A shift is the stream's: f(s) = sum e_{n-1}/n^s is the alphabet
    {1, -1} read at n - 1 (``CoefficientSequence.affine(1, -1, 1)``).

    ``denominators`` is the one table of the forms; every other quantity
    is one formula over it, most over its dominant (first) progression
    a j + b, with j0 = ``counter_start``, j1 = j0 + n the first omitted
    counter after n, mu the mean, B + g log2 j the discrepancy bound and
    C the majorant:

    * tail law (``tail_bound``): for a sum of alphabets over t, in aligned
      blocks of 2^k counters, the sum over the parts of 2A 2^(k(k-1)/2)
      a^k (s)_k (a j1 + b)^-(s+k), A = |high - low|/2 (k = 0 is the Abel
      law 2B (a j1 + b)^-s); for a growing discrepancy (B(j1) + B(j1+1) +
      g (a+b)/(a s ln 2)) (a j1 + b)^-s;
    * mean part after n counters: the sum over the table's entries
      (sign, d, step) at counter j1 of sign mu step^-s zeta(s, d/step),
      mu a^-s zeta(s, j1 + b/a) for a single progression (``mean_tail``);
    * terms majorant (``abs_sum_bound``) C (1 + (1 - (a (j0+n-1) +
      b)^(1-s))/(a (s-1))) over the first n counters, and the same first
      weight plus integral from any later counter; composite9's n^-s -
      (4n+3)^-s is at most n^-s.
    """

    coeffs: CoefficientSequence
    denom: DenominatorForm = DenominatorForm.POWER_OF_N

    def __post_init__(self) -> None:
        if self.denom is DenominatorForm.COMPOSITE9:
            if self.coeffs != CoefficientSequence.period_doubling():
                raise DomainError(
                    "the composite denominator form is only valid with the "
                    "period-doubling coefficient stream"
                )
        if self.coeffs.min_index > self.counter_start:
            raise DomainError(
                f"{self.coeffs.label()} starts at index {self.coeffs.min_index}, "
                f"but this series reads coefficient {self.counter_start}"
            )

    # -- the denominator table -------------------------------------------------

    def denominators(self, lo: int) -> tuple[tuple[int, int, int], ...]:
        """(sign, d, step): the term of counter j >= ``lo`` is c_j times the
        sum over these of sign (d + step (j - lo))^-s: d = j for n^s,
        2j + 1 for (2n+1)^s, and composite9 is c_n (n^-s - (4n+3)^-s).  The
        first entry is the dominant one."""
        if self.denom is DenominatorForm.POWER_OF_N:
            return ((1, lo, 1),)
        if self.denom is DenominatorForm.POWER_OF_ODD_N:
            return ((1, 2 * lo + 1, 2),)
        return ((1, lo, 1), (-1, 4 * lo + 3, 4))

    @cached_property
    def counter_start(self) -> int:
        """First summation counter j: the first at which every denominator is >= 1."""
        return max(-((b - 1) // a) for _, b, a in self.denominators(0))

    @cached_property
    def _progression(self) -> tuple[float, float]:
        """(a, b): the dominant denominator a j + b at counter j."""
        _, b, a = self.denominators(0)[0]
        return float(a), float(b)

    @cached_property
    def _oscillation(self) -> tuple[int, dict[int, float], float] | None:
        """For a sum of alphabets over t: (rho, {shift r: the sum of 2A over
        the parts at r}, 2B), rho = 1 when every part that oscillates reads
        t_{n-1} (and there is one) and 0 otherwise; aligned blocks start
        where j - rho is a multiple of 2^k.  None for the other streams."""
        if self.coeffs.kind is not SequenceKind.AFFINE:
            return None
        amps: dict[int, float] = {}
        for low, high, shift in self.coeffs.parts:
            if low != high:
                amps[shift] = amps.get(shift, 0.0) + abs(high - low)
        return (1 if amps and 0 not in amps else 0), amps, 2.0 * self.coeffs.discrepancy[1]

    def label(self) -> str:
        if self.denom is DenominatorForm.POWER_OF_N:
            return self.coeffs.label()
        return f"{self.coeffs.label()}/{self.denom.value}"

    # -- terms ----------------------------------------------------------------

    def term_block(self, lo: int, hi: int, s: float) -> np.ndarray:
        """Terms for counters j in [lo, hi) as float64."""
        # coefficients first: made after the weights, the freed arrays let
        # malloc trim the heap, and each chunk faulted in fresh pages
        c = self.coeffs.block(lo, hi)
        weights = None
        for sign, d, step in self.denominators(lo):
            w = np.arange(d, d + step * (hi - lo), step, dtype=np.float64) ** (-s)
            weights = w if weights is None else weights + sign * w
        return c * weights

    # -- analytic bounds -------------------------------------------------------

    @property
    def mean(self) -> float:
        """Mean mu of the coefficients; 0 for digit sums, which keep a majorant."""
        disc = self.coeffs.discrepancy
        return 0.0 if disc is None else float(disc[0])

    def tail_bound(self, n_counters: int, s: float, k: int = 0) -> float:
        """Upper bound on |(sum of all terms beyond the first n_counters)
        - (their mean part, ``mean_tail``) - (their boundary terms,
        ``boundary_terms``)|, over aligned blocks of 2^k counters (k = 0:
        the Abel law); the class docstring gives the laws, the module
        docstring their proofs."""
        n = n_counters
        if n < 1:
            raise DomainError("tail bound needs at least one summed term")
        a, b = self._progression
        j1 = self.counter_start + n
        osc = self._oscillation
        if osc is not None:
            if k == 0:
                return osc[2] * (a * j1 + b) ** -s
            rho, amps, _ = osc
            if not amps:
                return 0.0
            if (j1 - rho) % (1 << k) or j1 - rho < 1 << k:
                raise DomainError(
                    f"counter {j1} starts no aligned block of 2^{k} for {self.label()}"
                )
            # a part at shift r > rho starts its blocks at j1 + 1, after the
            # boundary term at j1
            log_c = _block_log_constant(s, k, a)
            total = 0.0
            for r, amp in amps.items():
                total += amp * math.exp(log_c - (s + k) * math.log(a * (j1 + r - rho) + b))
            return _SAFETY * total
        if k:
            raise DomainError(f"{self.label()} has no aligned-block tail law")
        disc = self.coeffs.discrepancy
        if disc is not None:
            # Abel with |R_j| <= B + g log2 j (module docstring)
            _, big_b, g = disc
            growth = math.log2(j1) + math.log2(j1 + 1) + (a + b) / (a * s * math.log(2.0))
            return (2.0 * big_b + g * growth) * (a * j1 + b) ** -s
        # digit-sum majorant (b-1)(log_b x + 1), decreasing after division
        # by x^s once log_b x >= 1, hence the n >= base floor in the schedule
        base = self.coeffs.base
        lnb = math.log(base)
        ln_n = math.log(n)
        return (
            (base - 1.0)
            * float(n) ** (1.0 - s)
            * ((ln_n / (s - 1.0) + 1.0 / (s - 1.0) ** 2) / lnb + 1.0 / (s - 1.0))
        )

    def mean_tail(self, n_counters: int, s: float, ctx: MPContext | None):
        """(coefficient, x) pairs with mu * (sum of the weights beyond the
        first n_counters) = sum of coefficient * zeta(s, x); for a series
        with mu != 0.

        Entry (sign, d, step) of the table at the first omitted counter
        holds the weights sign (d + step k)^-s, k >= 0, which sum to sign
        step^-s zeta(s, d/step): one pair for n^s and (2n+1)^s, and for
        composite9 mu (zeta(s, N1) - 4^-s zeta(s, N1 + 3/4)).  ``ctx`` is
        ``_combine_ctx``'s context, where mu is exact to its rounding.
        """
        mu = self.coeffs.discrepancy[0]
        table = self.denominators(self.counter_start + n_counters)
        if ctx is None:
            mu = float(mu)
            return [(sign * (mu * float(step) ** (-s)), d / step) for sign, d, step in table]
        num, den = mu.as_integer_ratio()
        mu = ctx.mpf(num) / den
        return [(sign * (mu * ctx.power(float(step), -ctx.mpf(s))), d / step)
                for sign, d, step in table]

    def boundary_terms(self, cut: Truncation, s: float, ctx: MPContext | None) -> list:
        """The terms a truncation adds by hand: where blocks start at
        t_{j1} (rho = 0) with k >= 1, each part read at t_{j1-1} omits its
        term at j1 from its blocks, and adds it here less its mean,
        sign (c_{j1} - mu_part) (d at j1)^-s: floats, or mpfs of ``ctx``."""
        osc = self._oscillation
        if not cut.k or osc is None or osc[0] or 1 not in osc[1]:
            return []
        j1 = self.counter_start + cut.counters
        odd = (j1 - 1).bit_count() & 1
        out = []
        for sign, d, _ in self.denominators(j1):
            for low, high, shift in self.coeffs.parts:
                if shift and low != high:
                    if ctx is None:
                        osc_value = (high - low) / 2 if odd else (low - high) / 2
                        out.append(sign * osc_value * float(d) ** -s)
                    else:
                        osc_value = (ctx.mpf(high) - ctx.mpf(low)) / 2
                        term = osc_value * ctx.power(d, -ctx.mpf(s))
                        out.append(sign * (term if odd else -term))
        return out

    def _growing_start(self, s: float, eps: float, cap: int, min_n: int) -> int:
        """A count at most the least that the Abel law of a growing
        discrepancy admits.  The law at j1 is at least (2B + g G(j))
        (a j1 + b)^-s for every j <= j1, G(j) = 2 log2 j + (a+b)/(a s ln
        2), so where no j1 below some j fits, none below the j' that
        solves this with G(j) does either: two such steps from G = 0 (less
        one counter, for the logs' roundings); ``min_n`` past the cap."""
        _, big_b, g = self.coeffs.discrepancy
        a, b = self._progression
        limit = math.log(a * 4.0 * cap)
        const = (a + b) / (a * s * math.log(2.0))
        j1 = 1.0
        for _ in range(3):
            law = 2.0 * big_b + g * (2.0 * math.log2(j1) + const) if j1 > 1.0 else 2.0 * big_b
            log_x = (math.log(law) - math.log(eps)) / s
            if log_x > limit:
                return min_n
            j1 = max(1.0, (math.exp(log_x) - b) / a)
        return max(min_n, math.ceil(j1) - self.counter_start - 1)

    def abs_sum_bound(self, n_counters: int, s: float, start: int = 0) -> float:
        """Upper bound on the sum of |terms| over the counters from the
        ``start``-th to the ``n_counters``-th, used only for rounding
        budgets: C times the first weight (a j + b)^-s, j = j0 + start,
        plus the integral of (a x + b)^-s from j to j0 + n - 1, which is
        1 + (1 - (a (j0+n-1) + b)^(1-s))/(a (s-1)) from the first counter
        on, as a j0 + b = 1 (composite9's n^-s - (4n+3)^-s is at most
        n^-s).  Digit sums, whose majorant C(n) grows, take C at the last
        counter and the integral to infinity (the whole series' 1 + 1/(a
        (s-1)) from the first counter on).  0 for an empty range."""
        if start >= n_counters:
            return 0.0
        cbound = self.coeffs.bound_constant
        a, b = self._progression
        first = a * (self.counter_start + start) + b
        if cbound is None:
            cbound = self.coeffs.value_bound(max(n_counters, self.coeffs.base))
            return cbound * (first ** -s + first ** (1.0 - s) / (a * (s - 1.0)))
        last = a * (self.counter_start + n_counters - 1) + b
        span = math.expm1((1.0 - s) * (math.log(last) - math.log(first)))
        return cbound * (first ** -s - first ** (1.0 - s) * span / (a * (s - 1.0)))

    @lru_cache(maxsize=256)
    def required_counters(self, s: float, eps_tail: float, max_terms: int) -> Truncation:
        """The cheapest truncation whose tail bound undershoots eps_tail
        (cached: the functional equation's plan and the direct sum it may
        hand f ask the same question).

        For a sum of alphabets, the fewest counters n over every block
        order k, n + j0 - rho a multiple of 2^k, solved in logs from the
        closed form; for the growing laws, k = 0 and a search."""
        cap, cap_text = _term_cap(max_terms)
        min_n = max(2, self.counter_start + 1)
        osc = self._oscillation
        if osc is None:
            what = f"naive evaluation of {self.label()} at s={s:g}"
            # the digit-sum bound decreases from n = base on, the Abel bound
            # of a growing discrepancy from n = 1 on
            digits = self.coeffs.discrepancy is None
            n = _truncation_search(
                lambda n: self.tail_bound(n, s),
                max(min_n, self.coeffs.base, 16) if digits
                else self._growing_start(s, eps_tail, cap, min_n),
                eps_tail,
                max_terms,
                what,
            )
            return Truncation(n, 0, self.tail_bound(n, s))
        rho, amps, amp = osc
        if not amps:
            return Truncation(min_n, 0, 0.0)
        a, b = self._progression
        j0 = self.counter_start
        # C_k (a j1 + b)^-(s+k) <= eps solved in logs, so nothing overflows:
        # log x_k = (log C_k - log eps)/(s + k), C_k = 2B 2^(k(k-1)/2) a^k
        # (s)_k, is quasiconvex in k (a convex numerator over a positive
        # affine denominator), so the orders past its minimum are not tried
        log_c = math.log(amp) - math.log(eps_tail)
        limit = math.log(a * 4.0 * cap)
        guesses = []
        need = least = last = math.inf
        for k in range(_MAX_BLOCK_ORDER + 1):
            block = 1 << k
            # an aligned cut reads at least 2^k + rho - j0 counters
            if block + rho - j0 >= least:
                break
            if k:
                log_c += (k - 1) * _LN2 + math.log(a * (s + k - 1))
            log_x = log_c / (s + k)
            if log_x > last:
                break
            last = log_x
            if log_x > limit:
                need = min(need, math.exp(min(log_x, 700.0)) / a)
                continue
            n = max(min_n, math.ceil((math.exp(log_x) - (a * j0 + b)) / a))
            if k:
                n = rho - j0 + block * max(1, -(-(n + j0 - rho) // block))
            guesses.append((n, k))
            least = min(least, n)
        # the exact law, from the most promising guess on; the closed form
        # takes every part at j1, so where parts read t_{n-1} past the
        # others' blocks (from j1 + 1) a guess may be a block or so high
        best = None
        for n, k in sorted(guesses):
            block = 1 << k
            if best is not None and n - block >= best.counters:
                break
            if k and len(amps) > 1:
                while n - block >= min_n and n - block + j0 - rho >= block and \
                        self.tail_bound(n - block, s, k) <= eps_tail:
                    n -= block
            while (bound := self.tail_bound(n, s, k)) > eps_tail:
                n += block
            if n > cap:
                need = min(need, n)
            elif best is None or n < best.counters:
                best = Truncation(n, k, bound)
        if best is None:
            raise ResourceLimitError(
                f"naive evaluation of {self.label()} at s={s:g} to eps={eps_tail:g} "
                f"needs N~{need:.3g} terms (cap {cap_text})"
            )
        return best


#: The largest block order the truncation search tries: 2^62 counters is
#: past every cap.
_MAX_BLOCK_ORDER = 62

#: Scale on the aligned-block law, far above the roundings of its logs.
_SAFETY = 1.0 + 1e-9


_LN2 = math.log(2.0)


def _block_log_constant(s: float, k: int, a: float) -> float:
    """log(2^(k(k-1)/2) a^k (s)_k), the aligned-block law's constant over
    2A (a j1 + b)^-(s+k)."""
    return k * (k - 1) / 2 * _LN2 + k * math.log(a) + math.lgamma(s + k) - math.lgamma(s)


def _term_cap(max_terms: int) -> tuple[int, str]:
    """The cap a term count is held to, ``max_terms`` or 2^53, and its text;
    a cap below one term is refused."""
    if max_terms < 1:
        raise DomainError(f"max_terms must be at least 1, got {max_terms}")
    if max_terms > _MAX_INDEX:
        return _MAX_INDEX, "2^53, past which float64 counters are not exact"
    return max_terms, str(max_terms)


def _truncation_search(tail, start: int, eps: float, max_terms: int, what: str) -> int:
    """Smallest n >= ``start`` with ``tail(n) <= eps``, for a tail bound that
    does not increase from ``start`` on.

    Gallops from ``start`` by 1, 2, 4, ... until the tail fits, so a
    start just below the answer costs a few steps, then bisects the last
    step.  Refuses with a ``ResourceLimitError`` naming the cap once n
    passes ``max_terms``, or 2^53 above it; ``what`` opens the message.
    """
    cap, cap_text = _term_cap(max_terms)
    lo, hi, step = start - 1, start, 1
    while tail(hi) > eps:
        if hi > 4 * cap:
            raise ResourceLimitError(
                f"{what} to eps={eps:g} needs more than {hi} terms (cap {cap_text})"
            )
        lo, hi, step = hi, hi + step, 2 * step
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= eps:
            hi = mid
        else:
            lo = mid
    if hi > cap:
        raise ResourceLimitError(f"{what} to eps={eps:g} needs N={hi} terms (cap {cap_text})")
    return hi


# ---------------------------------------------------------------------------
# canonical series
# ---------------------------------------------------------------------------

#: f(s) = sum_{n>=1} e_{n-1}/n^s, the shifted +/-1 series.
F_SERIES = SeriesSpec(CoefficientSequence.affine(1.0, -1.0, 1))
#: g(s) = sum_{n>=1} e_n/n^s.
G_SERIES = SeriesSpec(CoefficientSequence.plus_minus())
#: sum_{n>=1} t_{n-1}/n^s.
PHI_SERIES = SeriesSpec(CoefficientSequence.affine(0.0, 1.0, 1))
#: sum_{n>=1} t_n/n^s.
GAMMA_SERIES = SeriesSpec(CoefficientSequence.thue_morse())
#: sum_{n>=1} (t_n - t_{n-1})/n^s.
DELTA_SERIES = SeriesSpec(CoefficientSequence.delta())
#: A(s) = sum_{m>=0} e_m/(2m+1)^s.
ODD_PLUS_MINUS_SERIES = SeriesSpec(CoefficientSequence.plus_minus(), DenominatorForm.POWER_OF_ODD_N)
#: the period-doubling composite series of the Hurwitz identity.
COMPOSITE9_SERIES = SeriesSpec(CoefficientSequence.period_doubling(), DenominatorForm.COMPOSITE9)
#: all-ones coefficients; naive route sums the zeta series directly.
ZETA_SERIES = SeriesSpec(CoefficientSequence.affine(1.0, 1.0))


# ---------------------------------------------------------------------------
# summation kernels
# ---------------------------------------------------------------------------


def chunked_kahan_sum(block_fn, start: int, count: int) -> float:
    """Compensated sum of ``block_fn(lo, hi)`` chunks in fixed ascending order.

    Chunk boundaries are fixed at multiples of CHUNK from ``start``, so the
    result is bit-reproducible for given inputs no matter how callers
    schedule work.
    """
    j = start
    end = start + count
    total = 0.0
    comp = 0.0
    while j < end:
        hi = min(j + CHUNK, end)
        part = float(np.sum(block_fn(j, hi)))
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
        j = hi
    return total


def _sum(spec: SeriesSpec, s, n_counters: int, prec: Precision, head: int | None = None):
    """The first ``n_counters`` terms: chunked float64 Kahan sum on the
    double path.  Otherwise the first ``head`` (all by default) in fixed
    point at the working precision plus 20 + log2(head) bits, and the rest
    by the float64 kernel (``_naive_head`` bounds it), added to the head
    at the head's width."""
    if prec.is_double:
        return chunked_kahan_sum(
            lambda lo, hi: spec.term_block(lo, hi, s), spec.counter_start, n_counters
        )
    head = n_counters if head is None else head
    rest = chunked_kahan_sum(
        lambda lo, hi: spec.term_block(lo, hi, s), spec.counter_start + head, n_counters - head
    )
    if head == 0:
        return _combine_ctx(prec).mpf(rest)
    # imported here, so that a process on the double path never loads it
    from .fixed_point import fixed_point_sums

    ctx = _mp_context(prec.working_bits + 20 + head.bit_length())
    (total,), shift = fixed_point_sums(spec, s, [head], ctx)
    return ctx.ldexp(ctx.mpf(total), -shift) + rest


def partial_sum(spec: SeriesSpec, s: float, n_terms: int, prec: Precision | None = None):
    """Sum of the first ``n_terms`` terms, with no tail accounting: on the
    mpmath path all of them in fixed point, with no float64 part.

    Mainly useful for prefix checks and term-level algebra tests.
    """
    s = _check_s(s)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    return _sum(spec, s, n_terms, prec or Precision())


def _weighted_sum(pairs, prec: Precision, remainder: float = 0.0):
    """Certified sum_i c_i v_i over (c_i, EvalResult) pairs.

    Returns the compensated (Kahan) value, its bound
    remainder + sum_i |c_i| bound_i + 8u sum_i |c_i v_i|, and the terms the
    leaves used; ``remainder`` bounds whatever the pairs leave out.
    The 8u covers, per term, the evaluation of c_i itself
    (``TwoPowerRatio.value``: one 2^-s and the q-form Horner, a few
    roundings for a ratio of degree <= 2 without cancellation, its scale,
    or one division for an exact fraction), the product c_i v_i, and its
    share of the compensated sum.
    ``pairs`` may be a generator; each leaf is then evaluated as it is added.
    """
    total = 0.0
    comp = 0.0
    bound = 0.0
    abs_sum = 0.0
    terms = 0
    for c, r in pairs:
        contrib = c * r.value
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
        bound += abs(float(c)) * r.abs_error_bound
        abs_sum += abs(float(contrib))
        terms += r.terms_used
    return total, remainder + bound + 8.0 * prec.unit_roundoff * abs_sum, terms


def _linear_form(terms, s: float | None, prec: Precision, evaluate):
    """sum_i c_i(2^s) leaf_i over (TwoPowerRatio, leaf, share) triples,
    through ``_weighted_sum``; ``evaluate(leaf, e)`` certifies each leaf to
    e = share/|c_i|, so every term's part of the bound is about its share;
    callers leave out the identically zero terms.  Every coefficient is
    evaluated before the first leaf; one that is not identically zero but
    underflows a float (4^-s past s of about 537) raises a ``DomainError``,
    since no working width gives its leaf a share eps/|c_i| that a float
    bound can hold."""
    coefs = []
    for coef, leaf, share in terms:
        c = coef.value(s, prec)
        if float(c) == 0.0 and not coef.is_zero:
            raise DomainError(
                f"coefficient {coef.describe()} underflows to 0 at s={s}, so the leaf it "
                "weighs cannot be certified to its share of eps at any working precision"
            )
        coefs.append((c, leaf, share))
    return _weighted_sum(
        ((c, evaluate(leaf, share / abs(float(c)))) for c, leaf, share in coefs), prec
    )


def _trim(coeffs: tuple) -> tuple:
    """``coeffs`` without its zero top coefficients (at least one entry)."""
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _horner(coeffs, q, ctx):
    """c_0 q^m + c_1 q^(m-1) + ... + c_m, Horner from c_0 on; a Fraction
    entry is divided out in ``ctx`` (or in floats where it is None)."""
    acc = 0.0 if ctx is None else ctx.zero
    for c in coeffs:
        if isinstance(c, Fraction):
            c = c.numerator / c.denominator if ctx is None else ctx.mpf(c.numerator) / c.denominator
        acc = acc * q + c
    return acc


@dataclass(frozen=True)
class TwoPowerRatio:
    """scale P(2^s)/Q(2^s) with constant-first coefficient tuples; Q
    defaults to 1 and ``scale`` to 1.

    One type for every coefficient rational in 2^s: 2^s+1 or
    (1-2^s)/(1+2^s) on the left of an identity, 2^s, 4^-s or 2/3 on the
    right, and the decomposition's and the odd split's coefficients.
    Entries are floats or exact ``Fraction``s; a Fraction is divided out in
    the combine context, so on the mpmath path 2/3 carries the working
    bits, not a double's.  ``scale`` multiplies the evaluated ratio, so
    its rounding stays outside the ratio's.

    ``value`` works in q = 2^-s: with m the larger degree once zero top
    coefficients are trimmed, P(x)/Q(x) = x^-m P(x) / x^-m Q(x), two
    polynomials in q evaluated by one Horner each, so no s overflows a
    power of 2.  A constant ratio also evaluates at s=None.
    """

    num: tuple[float | Fraction, ...]
    den: tuple[float | Fraction, ...] = (1.0,)
    scale: float | Fraction = 1.0

    def value(self, s: float | None, prec: Precision | None = None):
        """The coefficient at ``s``: a float, or on the mpmath path an mpf
        of ``_combine_ctx(prec)``.  A zero q-form denominator or a value
        that is not a finite float raises a ``DomainError``."""
        ctx = None if prec is None else _combine_ctx(prec)
        num, den = _trim(self.num), _trim(self.den)
        m = max(len(num), len(den))
        if m > 1 and s is None:
            raise DomainError(f"coefficient {self.describe()} needs an exponent s")
        q = 0.0 if m == 1 else 2.0 ** (-s) if ctx is None else ctx.power(2, -ctx.mpf(s))
        d = _horner(den + (0.0,) * (m - len(den)), q, ctx)
        if d == 0:
            raise DomainError(f"coefficient {self.describe()} has a zero q-form denominator at s={s}")
        try:
            ratio = _horner(num + (0.0,) * (m - len(num)), q, ctx) / d
            v = _horner((self.scale,), q, ctx) * ratio
        except OverflowError:
            v = math.inf
        if not math.isfinite(float(v)):
            raise DomainError(f"coefficient {self.describe()} is not a finite float at s={s}")
        return v

    @property
    def is_zero(self) -> bool:
        return self.scale == 0 or all(c == 0 for c in self.num)

    def describe(self) -> str:
        def number(c) -> str:
            # a letter gap b - a of two floats may pass the largest float
            return f"{float(c):g}" if abs(c) < 2**1024 else f"{float(c / 2**1024):g}*2^1024"

        def poly(coeffs):
            parts = []
            for i, c in enumerate(coeffs):
                if c == 0:
                    continue
                base = "1" if i == 0 else ("2^s" if i == 1 else f"2^{i}s")
                coef = "" if c == 1 else "-" if c == -1 else f"{number(c)}*"
                parts.append(coef + base)
            return " + ".join(parts).replace("+ -", "- ") or "0"

        text = poly(self.num) if self.den == (1.0,) else f"({poly(self.num)})/({poly(self.den)})"
        return text if self.scale == 1 else f"{number(self.scale)}*{text}"


# ---------------------------------------------------------------------------
# naive route
# ---------------------------------------------------------------------------


def _zeta_leaf(zeta: Callable[[Precision], EvalResult], eps: float, prec: Precision) -> EvalResult:
    """``zeta(p)`` certified to a leaf's own ``eps``, a float on the double path.

    A leaf's share eps/|coefficient| can fall below what ``prec``'s width
    may certify (``GUARD_BITS`` under its unit roundoff), so the leaf runs
    at the width its eps needs when that is wider; on the double path its
    value is then rounded back to a float, one more u|value| in the bound.
    """
    bits = prec.working_bits
    if 0.0 < eps < 2.0 ** (GUARD_BITS - bits):
        bits = GUARD_BITS + math.ceil(-math.log2(eps))
    z = zeta(Precision(bits, eps))
    if not prec.is_double or bits == prec.working_bits:
        return z
    value = float(z.value)
    bound = z.abs_error_bound + prec.unit_roundoff * abs(value)
    return EvalResult(value, bound, z.terms_used, z.method)


def _float_budget(spec: SeriesSpec, s: float, start: int, n_counters: int) -> float:
    """The float64 kernel's bound over the counters from the ``start``-th
    to the ``n_counters``-th: ``_ROUNDING_OPS`` 2^-52 times their
    absolute-sum majorant, plus 2^-1070 per counter for the roundings that
    land below the normal range, where they are absolute, not relative
    (each of a term's few operations then errs by at most 2^-1075; the
    caller keeps every weight normal).  0 for an all-zero stream, whose
    terms are exact zeros."""
    if start >= n_counters or spec.coeffs.bound_constant == 0:
        return 0.0
    return (_ROUNDING_OPS * _DOUBLE_UNIT * spec.abs_sum_bound(n_counters, s, start)
            + (n_counters - start) * 2.0 ** -1070)


def _naive_head(spec: SeriesSpec, s: float, eps: float, n_counters: int) -> tuple[int, float]:
    """(h, bound): on the mpmath path the first h of the ``n_counters``
    counters are summed in fixed point and the rest by the float64 kernel,
    h the least head whose rest's ``_float_budget``, ``bound``, fits
    ``_FLOAT_SHARE`` eps.  All of them go in fixed point where a weight at
    the last counter would leave the normal float range."""
    last = spec.denominators(spec.counter_start + n_counters - 1)
    if s * math.log2(max(d for _, d, _ in last)) > _NORMAL_EXPONENT:
        return n_counters, 0.0
    target = _FLOAT_SHARE * eps

    def fits(h: int) -> bool:
        return _float_budget(spec, s, h, n_counters) <= target

    # gallop from 0, then bisect; the budget does not increase with h and
    # is 0 at h = n
    lo, hi = -1, 0
    while hi < n_counters and not fits(hi):
        lo, hi = hi, max(1, 2 * hi)
    hi = min(hi, n_counters)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi, _float_budget(spec, s, hi, n_counters)


def _naive_truncation(spec: SeriesSpec, s: float, eps: float, max_terms: int,
                      prec: Precision) -> Truncation:
    """Where ``eval_naive`` cuts for ``eps``: the tail bound gets 0.95 eps,
    or 0.7 eps when the mean part's leaf takes 0.25 eps, and the rounding
    budget the rest, on the mpmath path with the float64 part's
    ``_FLOAT_SHARE`` eps in it.  Where that budget takes more (near s = 1,
    where the terms sum to about 1/(s-1)), the tail's share gives up twice
    the excess: the finer cut reads a few more terms, whose sum grows by
    far less."""
    share = eps * (_TAIL_FRACTION - (_MEAN_FRACTION if spec.mean else 0.0))
    cut = spec.required_counters(s, share, max_terms)
    rounding = _ROUNDING_OPS * prec.unit_roundoff * spec.abs_sum_bound(cut.counters, s)
    if not prec.is_double:
        rounding += _FLOAT_SHARE * eps
    excess = rounding - (1.0 - _TAIL_FRACTION) * eps
    if 0.0 < 2.0 * excess < share:
        cut = spec.required_counters(s, share - 2.0 * excess, max_terms)
    return cut


def eval_naive(
    spec: SeriesSpec,
    s: float,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """Directly sum ``spec`` at s > 1 until the analytic tail is below eps.

    For a stream with mean mu != 0 the omitted terms' mean part,
    mu * zeta(s, a) (``SeriesSpec.mean_tail``), is added from the
    Euler-Maclaurin engine, and so are the truncation's boundary terms
    (``SeriesSpec.boundary_terms``).  The reported bound is the tail bound
    at the chosen truncation, the leaves' bounds, and an explicit rounding
    budget; if the total cannot undershoot eps at the working precision, a
    resource error is raised instead of returning an uncertified value.
    """
    s = _check_s(s)
    eps = _check_eps(eps)
    prec = prec if prec is not None else Precision.for_eps(eps)
    cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS
    cut = _naive_truncation(spec, s, eps, cap, prec)
    n = cut.counters
    u = prec.unit_roundoff
    abs_sum = spec.abs_sum_bound(n, s)
    head, rounding = (n, 0.0) if prec.is_double else _naive_head(spec, s, eps, n)
    rounding += _ROUNDING_OPS * u * abs_sum
    bound = cut.bound + rounding
    ctx = _combine_ctx(prec)
    edges = spec.boundary_terms(cut, s, ctx)
    extra, terms = 0.0, n + len(edges)
    parts = leaf_bounds = 0.0
    for term in edges:
        extra += term
        parts += abs(float(term))
    if spec.mean:
        leaves = spec.mean_tail(n, s, ctx)
        # each |coef| = |mu| step^-s <= |mu|, so sharing by |mu| also
        # survives step^-s underflowing to 0
        share = _MEAN_FRACTION * eps / (abs(spec.mean) * len(leaves))
        for coef, a in leaves:
            z = _zeta_leaf(lambda p, a=a: _hurwitz_core(s, a, p), share, prec)
            part = coef * z.value
            extra += part
            parts += abs(float(part))
            leaf_bounds += abs(float(coef)) * z.abs_error_bound
            terms += z.terms_used
    if edges or spec.mean:
        # the leaves' bounds, then the boundary terms and coefficients,
        # products, their sum and the final addition (parts <= abs_sum)
        bound += leaf_bounds + 4.0 * u * (abs_sum + parts)
    if bound > eps:
        raise ResourceLimitError(
            f"cannot certify eps={eps:g} for {spec.label()} at s={s:g}: "
            f"rounding budget {rounding:g} at working precision "
            f"{prec.working_bits}; raise working_bits"
        )
    return EvalResult(_sum(spec, s, n, prec, head) + extra, bound, terms, Method.NAIVE)


# ---------------------------------------------------------------------------
# functional-equation route
# ---------------------------------------------------------------------------


def _combine_ctx(prec: Precision) -> MPContext | None:
    """Context for value combinations, None on the plain-double path.

    mpf arithmetic rounds at the precision of the operand's own context, so
    every quantity that multiplies a high-precision value must itself be
    produced inside such a context; plain-float factors would silently cap
    the result at 53 bits and falsify the rounding budget.
    """
    if prec.is_double:
        return None
    return _mp_context(prec.working_bits + 20)


# Shares of eps: the leaves g_M(s + J0 + i), and the truncation remainders
# of all levels together; the rest absorbs rounding.
_FE_LEAF_SHARE = 0.45
_FE_TRUNC_SHARE = 0.45

# The direct caps (``_sums_directly``), and M (``_fe_plan``): f(s) is
# summed directly while that takes at most the float64 (True) cap of
# counters and, on the mpmath path, a fixed-point head of at most the
# mpmath (False) cap, and otherwise the levels recur on f's tail past M
# terms.  In a forced sweep (ROADMAP item 12) a direct sum of 16,000
# float64 terms cost about what the levels did, and so did a mixed sum
# with a head of 140-250 counters at 77-130 bits (AUTO's naive sums stayed
# ahead of the decomposition up to heads of about 250); M = 16 was at or
# near the best on the mpmath path.  f summed directly in float64 reads at
# most a few hundred counters at every eps that path serves, so there
# only a term cap below that reaches the levels, which then run in fixed
# point as on the mpmath path.
_FE_CAPS = {True: 1 << 14, False: 1 << 8}
_FE_M = 16


@lru_cache(maxsize=64)
def _two_power_fixed(s: float, q: int) -> int:
    """2^-s in fixed point at q bits, within 2 units (2^-q each)."""
    return to_fixed(_mp_context(q + 10).power(2, -s)._mpf_, q)


def _fe_weights(s: float, depth: int, q: int, level: int = 0):
    """The weights w_k(p) = 2^(-p-k) binom(p+k-1, k) at p = s + ``level``,
    k = 1..depth+1, in fixed point: integers W_k and floats e_k with
    |W_k - 2^q w_k| <= e_k (index 0 unused).

    p is exact in fixed point (a float's last bit is at 2^-52 or above, and
    q > 52), and w_1 = p 2^-s 2^(-level-1) reads the one power 2^-s.  The
    rising-factorial recurrence W_{k+1} = W_k (p+k) / (2(k+1)) floors
    once, so e_{k+1} = e_k (p+k)/(2(k+1)) + 1: an error grows with
    w_k/w_1 <= 2^(p+1)/p, which the caller's q must leave room for."""
    one = 1 << q
    num, den = s.as_integer_ratio()
    p_fix = (num << q) // den + level * one
    p = s + level
    w = [0] * (depth + 2)
    err = [0.0] * (depth + 2)
    w[1] = (p_fix * _two_power_fixed(s, q)) >> (q + level + 1)
    err[1] = 1.0 + 2.0 * p / 2.0 ** (level + 1)
    for k in range(1, depth + 1):
        w[k + 1] = w[k] * (p_fix + k * one) // ((2 * k + 2) << q)
        err[k + 1] = err[k] * (p + k) / (2.0 * k + 2.0) + 1.0
    return w, err


def _fe_truncation(p: float, depth: int, t_next: float, m: int) -> float:
    """Bound on the terms w_k(p) g_M(p+k), k > ``depth``, of a level at p,
    given ``t_next`` >= w_{K+1}(p) 2(M+1)^-(p+K+1): every |g_M(x)| is
    within the Abel tail 2(M+1)^-x, and the ratios (p+k)/(2(M+1)(k+1)) of
    these bounds decrease in k, so they sum to at most t_next/(1-rho)."""
    rho = (p + depth + 1.0) / (2.0 * (m + 1.0) * (depth + 2.0))
    if rho >= 1.0:
        return math.inf
    return t_next / (1.0 - rho)


def depth_for(s: float, eps: float, m: int) -> int:
    """Smallest truncation depth K whose remainder at ``s`` fits ``eps``,
    for the recursion on f's tail past ``m`` terms.

    The term bounds w_k(s) 2(m+1)^-(s+k) fall by (s+k)/(2(m+1)(k+1)) from
    each k to the next, so K grows with s and slowly as eps falls."""
    s = _check_s(s)
    eps = _check_eps(eps)
    # w_1(s) 2(m+1)^-(s+1), with w_1(s) = s 2^(-s-1)
    t = s * 2.0 ** (-s) * (m + 1.0) ** (-s - 1.0)
    for k in range(1, 1000):
        t = t * (s + k) / (2.0 * (m + 1.0) * (k + 1.0))
        if _fe_truncation(s, k, t, m) <= eps:
            return k
    raise ResourceLimitError(f"no workable truncation depth below 1000 for s={s:g}, eps={eps:g}")


def _sums_directly(spec: SeriesSpec, s: float, eps: float, counters: float,
                   prec: Precision) -> bool:
    """Whether a naive sum of ``counters`` counters is within the path's
    direct caps (``_FE_CAPS``): at most the float64 cap of counters, and
    on the mpmath path a fixed-point head (``_naive_head``) of at most the
    mpmath cap.  The functional equation's plan and AUTO's mpmath test both
    read it."""
    if counters > _FE_CAPS[True]:
        return False
    return prec.is_double or _naive_head(spec, s, eps, counters)[0] <= _FE_CAPS[False]


def _fe_plan(s: float, eps: float, prec: Precision, cap: int):
    """(J0, truncation depth K_j of each level j < J0, M), by the path's
    direct caps (``_FE_CAPS``).

    J0 = 0, f(s) summed directly (``eval_naive``, its tail at 0.95 eps),
    while that fits the direct caps (``_sums_directly``).  Otherwise M is
    ``_FE_M``, or half of ``cap`` where that is less, and J0 is the least
    level whose leaves, each within 2(M+1)^-(s+J0) of 0, fit 0.45 eps.
    Each level's truncation remainder gets 0.45 eps / J0; the deepest
    level has the largest K, because the weights move outward as s + j
    grows."""
    try:
        direct = F_SERIES.required_counters(s, _TAIL_FRACTION * eps, cap).counters
    except ResourceLimitError:
        direct = math.inf
    if _sums_directly(F_SERIES, s, eps, direct, prec):
        return 0, [], 0
    m = min(_FE_M, cap // 2)
    if m < 1:
        raise ResourceLimitError(
            f"functional-equation route for f at s={s:g} to eps={eps:g} needs "
            f"a table of at least 2 terms (cap {cap})"
        )
    j0 = 1
    while F_SERIES.tail_bound(m, _exponent_floor(s, j0)) > _FE_LEAF_SHARE * eps:
        j0 += 1
    return j0, [depth_for(s + j, _FE_TRUNC_SHARE * eps / j0, m) for j in range(j0)], m


def _exponent_floor(s: float, m: int) -> float:
    """A float at most s + m, for bounds that decrease in the exponent."""
    return math.nextafter(s + m, 0.0)


def _fe_rows(s: float, j0: int, m: int, prec: Precision, q: int):
    """The levels' own terms as integers scaled by 2^q, and their bounds:
    P_2M(s), f's first 2M terms, for level 0, and h_M(s + j), its terms
    M < n <= 2M, for each level 0 < j < J0; all from one fixed-point table
    of n^-s over 2M counters (``fixed_point_sums``).

    A bound is the row's rounding and a unit of the scaling.  Row 0 stays
    inside the naive route's ``_ROUNDING_OPS`` u envelope, as for one
    exponent, over its own absolute sum; each of an h row's M weights is
    within 11 units of 2^-P."""
    from .fixed_point import _WEIGHT_UNITS, fixed_point_sums

    ctx = _mp_context(prec.working_bits + 20 + (2 * m).bit_length())
    totals, shift = fixed_point_sums(F_SERIES, s, [2 * m] * j0, ctx, m)
    rows = [x << (q - shift) if q >= shift else x >> (shift - q) for x in totals]
    # row 0's terms sum to at most 1 + int_1^2M x^-s dx in absolute value
    abs_row0 = 1.0 - math.expm1((1.0 - s) * math.log(2 * m)) / (s - 1.0)
    bounds = [_ROUNDING_OPS * prec.unit_roundoff * abs_row0,
              *[_WEIGHT_UNITS * m * 2.0 ** -ctx.prec] * (j0 - 1)]
    return rows, [b + math.ldexp(1.0, -q) for b in bounds]


def eval_functional_equation(
    s: float,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """f(s) by the binomial functional equation f(p) = sum_{k>=1} w_k(p)
    f(p+k), w_k(p) = 2^(-p-k) binom(p+k-1, k) > 0, run on f's tail past M
    terms, g_M(p) = h_M(p) + sum_k w_k(p) g_M(p+k), with f(s) = P_2M(s) +
    sum_k w_k(s) g_M(s+k).

    The levels j = J0 - 1, ..., 0 each apply it at p = s + j, truncated at
    their own depth K_j, to the levels above them, in fixed point at q
    bits on both paths (``_fe_weights``), and add their own row
    (``_fe_rows``).  The leaves g_M(s + J0 + i) are 0, each within the
    Abel tail 2(M+1)^-(s+J0+i).  ``_fe_plan`` picks J0, M and each K_j;
    where J0 = 0, f(s) is summed directly (``eval_naive``) and the
    result's method says so.

    Bounds propagate from the actual inner bounds: bound_j = sum_k w_k
    bound_{j+k} + trunc_j + rounding_j + the row's bound.  The weights sum
    to 1 - 2^-p < 1, so no level amplifies what it reads; depth only adds
    the truncation remainders (0.45 eps over all levels) and the roundings
    (one floor per product, exact integer sums, one final rounding).  The
    leaves fit 0.45 eps.
    """
    s = _check_s(s)
    eps = _check_eps(eps)
    prec = prec if prec is not None else Precision.for_eps(eps)
    cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS
    j0, ks, m = _fe_plan(s, eps, prec, cap)
    if j0 == 0:
        return eval_naive(F_SERIES, s, eps, prec, max_terms)

    # guard bits for the weights' error growth, up to 2^(s+J0)
    q = prec.working_bits + 30 + math.ceil(s) + j0
    one = 1 << q
    values, bounds = _fe_rows(s, j0, m, prec, q)
    leaves = max(j + k for j, k in enumerate(ks)) + 1 - j0
    bounds += [F_SERIES.tail_bound(m, _exponent_floor(s, j0 + i)) for i in range(leaves)]
    for j in range(j0 - 1, -1, -1):
        k_j = ks[j]
        w, err = _fe_weights(s, k_j, q, j)
        w_hi = [x / one + math.ldexp(e, -q) for x, e in zip(w, err)]
        t_next = w_hi[k_j + 1] * F_SERIES.tail_bound(m, _exponent_floor(s, j + k_j + 1))
        # the leaves are 0: only the levels above j enter the value
        inner = range(1, min(k_j, j0 - 1 - j) + 1)
        values[j] += sum((w[k] * values[j + k]) >> q for k in inner)
        # each product: its weight's error times the value, and one floor
        rounding = math.fsum(err[k] * abs(values[j + k] / one) + 1.0 for k in inner)
        bounds[j] += (math.fsum(w_hi[k] * bounds[j + k] for k in range(1, k_j + 1))
                      + _fe_truncation(s + j, k_j, t_next, m) + math.ldexp(rounding, -q))
    u = prec.unit_roundoff
    ctx = _combine_ctx(prec)
    if ctx is None:
        value = values[0] / one
        bound = bounds[0] + u * abs(value)
    else:
        value = ctx.make_mpf(from_man_exp(values[0], -q, ctx.prec, round_nearest))
        bound = bounds[0] + 2.0 ** (1 - ctx.prec) * abs(float(value))
    if bound > eps:
        raise ResourceLimitError(
            f"functional-equation route certified only {bound:g} > eps={eps:g} "
            f"at s={s:g}; raise working_bits"
        )
    return EvalResult(value, bound, 2 * m + sum(ks), Method.FUNCTIONAL_EQUATION)


def eval_phi_gamma(
    which: str,
    s: float,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """The 0/1 series, ``which`` = "phi" or "gamma", on the DECOMPOSED
    route, through their exact relation to zeta and f:

        phi(s)   = sum t_{n-1}/n^s = zeta(s)/2 - f(s)/2
        gamma(s) = sum t_n/n^s     = zeta(s)/2 + (1+2^s)/(2(2^s-1)) f(s)
    """
    # imported here: the router imports this module
    from .identities import Route, eval_series_spec

    spec = {"phi": PHI_SERIES, "gamma": GAMMA_SERIES}[which]
    return eval_series_spec(spec, s, eps, Route.DECOMPOSED, prec, max_terms)
