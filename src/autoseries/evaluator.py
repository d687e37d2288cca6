"""Bounded evaluation of Dirichlet series with digit-parity coefficients.

Three routes live here; ``identities.eval_series_spec`` picks among them
and adds the odd-index split:

* ``eval_naive``: direct summation of the first N terms with an analytic
  tail.  The bit-valued streams have a mean mu and a discrepancy bound B,
  |sum_{n<M} (c_n - mu)| <= B for every M (``CoefficientSequence.discrepancy``):

      alphabet {a, b}: mu = (a+b)/2, B = |b-a|/2     d_n: mu = 0, B = 1

  which for t_n = {0, 1} is (1/2, 1/2) and for e_n = {1, -1} is (0, 1).
  For weights w_n decreasing to 0, Abel summation gives
  sum_{n>=N1} (c_n - mu) w_n = -R_{N1} w_{N1} + sum_{n>N1} R_n (w_{n-1} - w_n)
  with |R_n| <= B, so it lies within 2B w_{N1}: the tail is
  mu a^-s zeta(s, N1/a) +/- 2B N1^-s, N1 the first omitted denominator
  of the progression a j + b (``SeriesSpec`` derives every such formula
  from its ``denominators`` table).  The mean
  part (mu != 0 only) comes from the Euler-Maclaurin engine, and
  ``required_counters`` solves 2B w <= eps_tail in closed form.
  Period-doubling and composite9 keep the constant majorant,
  sum_{n>N} C/n^s <= C N^(1-s)/(s-1); digit sums keep the
  (b-1)(log_b n + 1) majorant and its integral, with the truncation point
  from ``_truncation_search``.

* ``eval_functional_equation``: the binomial acceleration
  f(s) = sum_{k>=1} 2^(-s-k) binom(s+k-1, k) f(s+k), truncated at depth K
  (``depth_for`` sizes K from s and eps unless the caller fixes it).
  The inner values f(s+k) converge at the much cheaper exponents s+k and
  are obtained naively.  The k > K remainder uses |f(p) - 1| <= zeta(p) - 1
  (the first term of f is 1/1^p; everything else is dominated by
  sum_{n>=2} n^(-p)) together with zeta(p) - 1 <= 2^(-p) (1 + 2/(p-1)) and
  a geometric majorant for the weights.

* The zeta + f decomposition (``_eval_decomposed``, and ``eval_phi_gamma``
  for the 0/1 series): an alphabet series over t_n with an n^s denominator
  is alpha(s) zeta(s) + beta(s) f(s), alpha and beta rational in 2^s.  The
  zeta leaf gets 0.25 eps/|alpha| and the f leaf 0.45 eps/|beta|, whether
  or not the other leaf is present; the rest absorbs rounding.

* The odd-index split (``Route.ODD_SPLIT``) needs no kernel of its own:
  every n >= 1 factors uniquely as 2^k (2m+1), and e_{2^k(2m+1)-1} =
  (-1)^k e_m, so f(s) = 2^s/(2^s+1) A(s) and g(s) = -2^s/(2^s-1) A(s) with
  A(s) = sum_{m>=0} e_m/(2m+1)^s, which is ``ODD_PLUS_MINUS_SERIES``
  summed by ``eval_naive``.

On the double path every partial-sum loop uses compensated (Kahan)
accumulation over fixed 2^14-term chunks, so results are bit-reproducible,
and every reported bound adds an explicit rounding budget,
``_ROUNDING_OPS`` u times the absolute-sum majorant, on top of the
analytic tail.  Wider working precisions sum in fixed point
(``fixed_point.fixed_point_sum``) at P = working bits + 20 + log2 N bits:
n^-s is completely multiplicative, so only the primes up to the last
denominator D take an ``mpmath`` power, and every other weight is a
product of two table entries, within Omega(n) + 2 units of 2^-P.  The sum
of |c_n| times those units is at most C N (log2 D + 2) 2^-P <=
C (log2 D + 2) 2^-21 u (C the coefficient majorant, twice that for
composite9's two weights); with the one rounding of the final conversion
it stays far inside the same ``_ROUNDING_OPS`` u envelope.  The table
keeps the weights of the odd numbers below 2^15 (16,384 integers); a
denominator whose odd part or cofactor lies past it takes a power of its
own.

Weighted sums of certified values (FE assembly, the decomposition, the
left side of an identity) all go through ``_weighted_sum``.  A zeta-type
leaf whose share eps/|coefficient| is finer than the working width can
certify runs wider on its own (``_zeta_leaf``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np
from mpmath.ctx_mp import MPContext

from .errors import DomainError, ResourceLimitError
from .precision import GUARD_BITS, Precision, _check_eps, _check_s, _mp_context
from .result import EvalResult, Method
from .sequences import CoefficientSequence, SequenceKind
from .special_functions import _hurwitz_core, riemann_zeta

#: Fixed summation chunk; fixed so chunk boundaries (and hence rounding)
#: never depend on how work is scheduled.
CHUNK = 1 << 14

#: Default hard cap on naive term counts; beyond it the evaluator refuses
#: rather than silently degrade.
DEFAULT_MAX_TERMS = 10**9

#: Smallest truncation depth ``depth_for`` picks for the functional equation.
DEFAULT_DEPTH = 40

# Fraction of the tolerance given to the analytic tail; the rest absorbs
# the rounding budget.
_TAIL_FRACTION = 0.95

# Of that, the share of the mean part's zeta(s, a) leaf when mu != 0.
_MEAN_FRACTION = 0.25

# Conservative envelope for per-term power/multiply rounding, in-chunk
# pairwise summation, and the cross-chunk Kahan combination, in units of
# unit roundoff times the absolute-sum majorant.
_ROUNDING_OPS = 32.0


class IndexShift(Enum):
    NONE = "none"       # sum_{n>=1} c_n / n^s
    BY_ONE = "by-one"   # sum_{n>=0} c_n / (n+1)^s


class DenominatorForm(Enum):
    POWER_OF_N = "n^s"
    POWER_OF_ODD_N = "(2n+1)^s"
    COMPOSITE9 = "composite9"   # c_n ((4n+3)^s - n^s) / (4n^2+3n)^s


@dataclass(frozen=True)
class SeriesSpec:
    """A Dirichlet series: coefficient stream, index shift, denominator form.

    A by-one index shift reads coefficient n-1 at denominator n, which is
    how the shifted series such as f(s) = sum e_{n-1}/n^s are written.

    ``denominators`` is the one table of the forms; every other quantity
    is one formula over its dominant (first) progression a j + b, with j0 =
    ``counter_start``, B the discrepancy bound, C the majorant, mu the mean:

    * Abel tail law (2B, 1, a, a j0 + b, s) (``_power_law``'s tuple);
    * majorant tail law (C, a (s-1), a, a (j0-1) + b, s-1);
    * mean part mu a^-s zeta(s, j0 + n + b/a) after n counters;
    * terms majorant C (1 + 1/(a (s-1))); composite9's n^-s - (4n+3)^-s
      is at most n^-s.
    """

    coeffs: CoefficientSequence
    shift: IndexShift = IndexShift.NONE
    denom: DenominatorForm = DenominatorForm.POWER_OF_N

    def __post_init__(self) -> None:
        if self.shift is IndexShift.BY_ONE and self.denom is not DenominatorForm.POWER_OF_N:
            raise DomainError("by-one shift is only defined for n^s denominators")
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
        sum over these of sign (d + step (j - lo))^-s: d = j for n^s (j + 1
        with the by-one shift), 2j + 1 for (2n+1)^s, and composite9 is
        c_n (n^-s - (4n+3)^-s).  The first entry is the dominant one."""
        if self.denom is DenominatorForm.POWER_OF_N:
            return ((1, lo + (1 if self.shift is IndexShift.BY_ONE else 0), 1),)
        if self.denom is DenominatorForm.POWER_OF_ODD_N:
            return ((1, 2 * lo + 1, 2),)
        return ((1, lo, 1), (-1, 4 * lo + 3, 4))

    @cached_property
    def counter_start(self) -> int:
        """First summation counter j: the first at which every denominator is >= 1."""
        return max(-((b - 1) // a) for _, b, a in self.denominators(0))

    @cached_property
    def _progression(self) -> tuple[float, float, int]:
        """(a, b, j0): the dominant denominator a j + b and ``counter_start``."""
        _, b, a = self.denominators(0)[0]
        return float(a), float(b), self.counter_start

    def label(self) -> str:
        parts = [self.coeffs.label()]
        if self.shift is IndexShift.BY_ONE:
            parts.append("shift+1")
        if self.denom is not DenominatorForm.POWER_OF_N:
            parts.append(self.denom.value)
        return "/".join(parts)

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
        """Mean mu of the coefficients; 0 where the tail is a plain majorant."""
        disc = self.coeffs.discrepancy
        return 0.0 if disc is None else disc[0]

    def _power_law(self, s: float) -> tuple[float, float, float, float, float] | None:
        """(K, D, alpha, beta, p) with tail_bound(n) = K (alpha n + beta)^-p / D,
        or None for digit sums."""
        a, b, j0 = self._progression
        disc = self.coeffs.discrepancy
        if disc is not None:
            # Abel: 2B times the first omitted weight, (a (j0 + n) + b)^-s
            return 2.0 * disc[1], 1.0, a, a * j0 + b, s
        c = self.coeffs.bound_constant
        if c is None:
            return None
        # sum_{j >= j0+n} C (a j + b)^-s <= C (a (j0+n-1) + b)^(1-s) / (a (s-1));
        # composite9 terms are at most n^-s
        return c, a * (s - 1.0), a, a * (j0 - 1) + b, s - 1.0

    def tail_bound(self, n_counters: int, s: float) -> float:
        """Upper bound on |(sum of all terms beyond the first n_counters)
        - (their mean part, ``mean_tail``)|."""
        n = n_counters
        if n < 1:
            raise DomainError("tail bound needs at least one summed term")
        law = self._power_law(s)
        if law is not None:
            k, d, alpha, beta, p = law
            return k * (alpha * n + beta) ** -p / d
        # digit-sum majorant (b-1)(log_b x + 1), decreasing after division
        # by x^s once log_b x >= 1, hence the n >= base floor in the schedule
        b = self.coeffs.base
        lnb = math.log(b)
        ln_n = math.log(n)
        return (
            (b - 1.0)
            * float(n) ** (1.0 - s)
            * ((ln_n / (s - 1.0) + 1.0 / (s - 1.0) ** 2) / lnb + 1.0 / (s - 1.0))
        )

    def mean_tail(self, n_counters: int, s: float, ctx: MPContext | None):
        """(coefficient, x) with mu * (sum of the weights beyond the first
        n_counters) = coefficient * zeta(s, x); for a series with mu != 0.

        The omitted weights (a j + b)^-s, j >= j0 + n, sum to
        a^-s zeta(s, j0 + n + b/a).  ``ctx`` is ``_combine_ctx``'s context.
        """
        a, b, j0 = self._progression
        if ctx is None:
            return self.mean * a ** (-s), j0 + n_counters + b / a
        return ctx.mpf(self.mean) * ctx.power(a, -ctx.mpf(s)), j0 + n_counters + b / a

    def abs_sum_bound(self, n_counters: int, s: float) -> float:
        """Upper bound on sum of |terms|, used only for the rounding budget."""
        cbound = self.coeffs.bound_constant
        if cbound is None:
            cbound = self.coeffs.value_bound(max(n_counters, self.coeffs.base))
        a, _, _ = self._progression
        return cbound * (1.0 + 1.0 / (a * (s - 1.0)))

    def required_counters(self, s: float, eps_tail: float, max_terms: int) -> int:
        """Smallest counter count whose tail bound undershoots eps_tail."""
        min_n = max(2, self.counter_start + 1)
        what = f"naive evaluation of {self.label()} at s={s:g}"
        law = self._power_law(s)
        if law is None:
            return _truncation_search(
                lambda n: self.tail_bound(n, s),
                max(min_n, self.coeffs.base, 16),
                eps_tail,
                max_terms,
                what,
            )
        k, d, alpha, beta, p = law
        if k == 0.0:
            return min_n
        # K (alpha n + beta)^-p / D <= eps_tail, solved in logs so nothing overflows
        log_x = (math.log(k) - math.log(d) - math.log(eps_tail)) / p
        if log_x > math.log(alpha * 4.0 * max_terms):
            raise ResourceLimitError(
                f"{what} to eps={eps_tail:g} needs "
                f"N~{math.exp(min(log_x, 700.0)) / alpha:.3g} terms (cap {max_terms})"
            )
        n = max(min_n, math.ceil((math.exp(log_x) - beta) / alpha))
        while self.tail_bound(n, s) > eps_tail:
            n += 1
        if n > max_terms:
            raise ResourceLimitError(
                f"{what} to eps={eps_tail:g} needs N={n} terms (cap {max_terms})"
            )
        return n


def _truncation_search(tail, start: int, eps: float, max_terms: int, what: str) -> int:
    """Smallest n >= ``start`` with ``tail(n) <= eps``, for a tail bound that
    does not increase from ``start`` on.

    Doubles n from ``start`` until the tail fits, then bisects the last
    doubling step.  Refuses with a ``ResourceLimitError`` naming the cap
    once n passes ``max_terms``; ``what`` opens the message.
    """
    n = start
    while tail(n) > eps:
        if n > 4 * max_terms:
            raise ResourceLimitError(
                f"{what} to eps={eps:g} needs more than {n} terms (cap {max_terms})"
            )
        n *= 2
    lo, hi = max(n // 2, start - 1), n
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail(mid) <= eps:
            hi = mid
        else:
            lo = mid
    if hi > max_terms:
        raise ResourceLimitError(f"{what} to eps={eps:g} needs N={hi} terms (cap {max_terms})")
    return hi


# ---------------------------------------------------------------------------
# canonical series
# ---------------------------------------------------------------------------

#: f(s) = sum_{n>=1} e_{n-1}/n^s, the shifted +/-1 series.
F_SERIES = SeriesSpec(CoefficientSequence.plus_minus(), IndexShift.BY_ONE)
#: g(s) = sum_{n>=1} e_n/n^s.
G_SERIES = SeriesSpec(CoefficientSequence.plus_minus())
#: sum_{n>=1} t_{n-1}/n^s.
PHI_SERIES = SeriesSpec(CoefficientSequence.thue_morse(), IndexShift.BY_ONE)
#: sum_{n>=1} t_n/n^s.
GAMMA_SERIES = SeriesSpec(CoefficientSequence.thue_morse())
#: sum_{n>=1} (t_n - t_{n-1})/n^s.
DELTA_SERIES = SeriesSpec(CoefficientSequence.delta())
#: A(s) = sum_{m>=0} e_m/(2m+1)^s.
ODD_PLUS_MINUS_SERIES = SeriesSpec(
    CoefficientSequence.plus_minus(), IndexShift.NONE, DenominatorForm.POWER_OF_ODD_N
)
#: the period-doubling composite series of the Hurwitz identity.
COMPOSITE9_SERIES = SeriesSpec(
    CoefficientSequence.period_doubling(), IndexShift.NONE, DenominatorForm.COMPOSITE9
)
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


def _sum(spec: SeriesSpec, s, n_counters: int, prec: Precision):
    """The first ``n_counters`` terms: chunked float64 Kahan sum on the
    double path, the fixed-point kernel at the working precision plus
    20 + log2(n_counters) bits otherwise (where ``s`` may be an mpf)."""
    if prec.is_double:
        return chunked_kahan_sum(
            lambda lo, hi: spec.term_block(lo, hi, s), spec.counter_start, n_counters
        )
    # imported here, so that a process on the double path never loads it
    from .fixed_point import fixed_point_sum

    ctx = _mp_context(prec.working_bits + 20 + max(0, n_counters.bit_length()))
    return fixed_point_sum(spec, s, n_counters, ctx)


def partial_sum(spec: SeriesSpec, s: float, n_terms: int, prec: Precision | None = None):
    """Sum of the first ``n_terms`` terms, with no tail accounting.

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


def _naive_counters(spec: SeriesSpec, s: float, eps: float, max_terms: int) -> int:
    """Counters ``eval_naive`` sums for ``eps``: the tail bound gets 0.95 eps,
    or 0.7 eps when the mean part's leaf takes 0.25 eps."""
    share = _TAIL_FRACTION - (_MEAN_FRACTION if spec.mean else 0.0)
    return spec.required_counters(s, eps * share, max_terms)


def eval_naive(
    spec: SeriesSpec,
    s: float,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """Directly sum ``spec`` at s > 1 until the analytic tail is below eps.

    On the mpmath path ``s`` may be an mpf, such as the functional
    equation's exact s + k: the terms and the mean part are taken at it,
    and every bound at the largest float not above it.

    For a stream with mean mu != 0 the omitted terms' mean part,
    mu * zeta(s, a) (``SeriesSpec.mean_tail``), is added from the
    Euler-Maclaurin engine.  The reported bound is the tail bound at the
    chosen truncation, that leaf's bound, and an explicit rounding budget;
    if the total cannot undershoot eps at the working precision, a resource
    error is raised instead of returning an uncertified value.
    """
    checked = _check_s(s)
    eps = _check_eps(eps)
    prec = prec if prec is not None else Precision.for_eps(eps)
    # an mpf exponent is kept exact on the mpmath path; any other s is the float
    exact = s if hasattr(s, "_mpf_") and not prec.is_double else checked
    s = checked
    if s > exact:
        # every bound decreases in s
        s = math.nextafter(s, 0.0)
    cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS
    n = _naive_counters(spec, s, eps, cap)
    u = prec.unit_roundoff
    abs_sum = spec.abs_sum_bound(n, s)
    rounding = _ROUNDING_OPS * u * abs_sum
    bound = spec.tail_bound(n, s) + rounding
    mean, terms = 0.0, n
    if spec.mean:
        coef, a = spec.mean_tail(n, exact, _combine_ctx(prec))
        # |coef| <= |mu| (2^-s < 1 for odd denominators), so this also
        # survives 2^-s underflowing to 0
        z = _zeta_leaf(
            lambda p: _hurwitz_core(exact, a, p), _MEAN_FRACTION * eps / abs(spec.mean), prec
        )
        mean = coef * z.value
        # the leaf's bound, then the product and the final addition
        bound += abs(float(coef)) * z.abs_error_bound + 4.0 * u * (abs_sum + abs(float(mean)))
        terms += z.terms_used
    if bound > eps:
        raise ResourceLimitError(
            f"cannot certify eps={eps:g} for {spec.label()} at s={s:g}: "
            f"rounding budget {rounding:g} at working precision "
            f"{prec.working_bits}; raise working_bits"
        )
    return EvalResult(_sum(spec, exact, n, prec) + mean, bound, terms, Method.NAIVE)


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


def _fe_weights(s: float, depth: int, ctx: MPContext | None = None):
    """Weights w_k = 2^(-s-k) binom(s+k-1, k) for k = 1..depth+1, plus their sum
    over 1..depth.  Rising-factorial recurrence, no gamma function."""
    if ctx is None:
        w = [0.0] * (depth + 2)
        w[1] = s * 2.0 ** (-s - 1.0)
        for k in range(1, depth + 1):
            w[k + 1] = w[k] * (s + k) / (2.0 * (k + 1.0))
        return w, math.fsum(w[1 : depth + 1])
    s_mp = ctx.mpf(s)
    w = [ctx.mpf(0)] * (depth + 2)
    w[1] = s_mp * ctx.power(2, -s_mp - 1)
    for k in range(1, depth + 1):
        w[k + 1] = w[k] * (s_mp + k) / (2 * (k + 1))
    return w, ctx.fsum(w[1 : depth + 1])


def _fe_truncation(s: float, depth: int, w_next: float) -> float:
    """Bound on the sum of the skipped tail terms past ``depth``."""
    rho = (s + depth + 1.0) / (2.0 * (depth + 2.0))
    if rho >= 1.0:
        return math.inf
    p = s + depth + 1.0
    f_abs = 1.0 + 2.0 ** (-p) * (1.0 + 2.0 / (p - 1.0))
    return f_abs * w_next / (1.0 - rho)


def depth_for(s: float, eps: float) -> int:
    """Smallest truncation depth >= ``DEFAULT_DEPTH`` whose remainder fits 0.45 eps."""
    s = _check_s(s)
    eps = _check_eps(eps)
    k = DEFAULT_DEPTH
    w = s * 2.0 ** (-s - 1.0)
    for i in range(1, k):
        w = w * (s + i) / (2.0 * (i + 1.0))
    while k < 1000:
        w_next = w * (s + k) / (2.0 * (k + 1.0))
        if _fe_truncation(s, k, w_next) <= 0.45 * eps:
            return k
        w = w_next
        k += 1
    raise ResourceLimitError(f"no workable truncation depth below 1000 for s={s:g}, eps={eps:g}")


def eval_functional_equation(
    s: float,
    eps: float,
    depth: int | None = None,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """f(s) via the binomial acceleration, truncated at ``depth`` terms
    (``depth_for(s, eps)`` when not given).

    45% of eps goes to the truncation remainder and 45% is spread across
    the inner naive evaluations in proportion to their weights (which is a
    uniform inner tolerance eps * 0.45 / sum(w_k)); the rest absorbs
    rounding.  Inner values live at exponents s+1 .. s+depth where direct
    summation is cheap.
    """
    s = _check_s(s)
    eps = _check_eps(eps)
    if depth is None:
        depth = depth_for(s, eps)
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    prec = prec if prec is not None else Precision.for_eps(eps)

    ctx = _combine_ctx(prec)
    w, w_sum = _fe_weights(s, depth, ctx)
    # geometric majorant for the skipped weights: ratios (s+k)/(2(k+1))
    # decrease in k, so sum_{k>K} w_k <= w_{K+1}/(1-rho)
    trunc = _fe_truncation(s, depth, float(w[depth + 1]))
    if trunc > 0.45 * eps:
        raise ResourceLimitError(
            f"depth {depth} leaves truncation remainder {trunc:g} > {0.45 * eps:g} "
            f"at s={s:g}; increase depth"
        )

    inner_eps = 0.45 * eps / float(w_sum)
    # on the mpmath path the inner sums run at the exact s + k, which a
    # float would round
    base = s if ctx is None else ctx.mpf(s)
    total, bound, terms = _weighted_sum(
        ((w[k], eval_naive(F_SERIES, base + k, inner_eps, prec, max_terms))
         for k in range(1, depth + 1)),
        prec,
        remainder=trunc,
    )
    if bound > eps:
        raise ResourceLimitError(
            f"functional-equation route certified only {bound:g} > eps={eps:g} "
            f"at s={s:g}; increase depth or working_bits"
        )
    return EvalResult(total, bound, depth + terms, Method.FUNCTIONAL_EQUATION)


# ---------------------------------------------------------------------------
# the zeta + f decomposition
# ---------------------------------------------------------------------------


class _EvalCache(dict):
    """Shares zeta / f evaluations across the pairs of one verification."""

    def get_or_eval(self, key, eps: float, fn: Callable[[float], EvalResult]) -> EvalResult:
        hit = self.get(key)
        if hit is not None and hit.abs_error_bound <= eps:
            return hit
        out = fn(eps)
        self[key] = out
        return out


def _affine_form(spec: SeriesSpec) -> tuple[float, float, bool] | None:
    """(value at t=0, value at t=1, shifted?) when the series is
    an alphabet over t with an n^s denominator, else None."""
    if spec.coeffs.kind is not SequenceKind.AFFINE or spec.denom is not DenominatorForm.POWER_OF_N:
        return None
    return spec.coeffs.low, spec.coeffs.high, spec.shift is IndexShift.BY_ONE


def _eval_decomposed(
    spec: SeriesSpec,
    s: float,
    eps: float,
    prec: Precision,
    max_terms: int | None,
    cache: _EvalCache,
) -> EvalResult:
    """An alphabet series {a, b} over t as alpha zeta(s) + beta f(s).

    Substituting t_n = (1 - e_n)/2 gives alpha = (a+b)/2, and beta = (a-b)/2
    for the shifted series, (b-a)(1+2^s)/(2(2^s-1)) for the unshifted one.
    The leaves are cached under ("zeta", s) and ("f", s), so the two sides
    of an identity share them.
    """
    form = _affine_form(spec)
    if form is None:
        raise DomainError(f"{spec.label()} has no alphabet decomposition")
    low, high, shifted = form
    ctx = _combine_ctx(prec)
    # in q = 2^-s rather than 2^s, so large s cannot overflow
    q = 2.0 ** (-s) if ctx is None else ctx.power(2, -ctx.mpf(s))
    slope = high - low if ctx is None else ctx.mpf(high) - low
    alpha = low + slope / 2
    beta = -slope / 2 if shifted else slope * ((q + 1) / (2 * (1 - q)))
    leaves = []
    for coef, share, key, fn in (
        (alpha, 0.25, "zeta", lambda e: _zeta_leaf(lambda p: riemann_zeta(s, p), e, prec)),
        (beta, 0.45, "f", lambda e: eval_functional_equation(s, e, prec=prec, max_terms=max_terms)),
    ):
        coef_abs = abs(float(coef))
        if coef_abs != 0.0:
            leaves.append((coef, cache.get_or_eval((key, s), share * eps / coef_abs, fn)))
    value, bound, terms = _weighted_sum(leaves, prec)
    if bound > eps:
        raise ResourceLimitError(
            f"{spec.label()} decomposition certified only {bound:g} > eps={eps:g} at s={s:g}"
        )
    # without an f leaf only the Euler-Maclaurin zeta ran (or, for the
    # all-zero alphabet, nothing, which still counts as one term)
    method = Method.FUNCTIONAL_EQUATION if float(beta) != 0.0 else Method.EULER_MACLAURIN
    return EvalResult(value, bound, max(terms, 1), method)


def eval_phi_gamma(
    which: str,
    s: float,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """The 0/1 series, ``which`` = "phi" or "gamma", through their exact
    relation to zeta and f:

        phi(s)   = sum t_{n-1}/n^s = zeta(s)/2 - f(s)/2
        gamma(s) = sum t_n/n^s     = zeta(s)/2 + (1+2^s)/(2(2^s-1)) f(s)
    """
    spec = {"phi": PHI_SERIES, "gamma": GAMMA_SERIES}[which]
    s = _check_s(s)
    eps = _check_eps(eps)
    prec = prec if prec is not None else Precision.for_eps(eps)
    return _eval_decomposed(spec, s, eps, prec, max_terms, _EvalCache())
