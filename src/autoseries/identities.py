"""Self-verifying identity registry with residual reports.

Each identity equates two linear forms sum_i c_i(2^s) leaf_i, each held as
(coefficient, leaf) pairs.  On the left the leaves are Dirichlet series
(``Series``: a series on a route) or zeta; on the right they are closed
forms: zeta, eta, Hurwitz zeta, a power of pi, a square root or a
logarithm.  Every coefficient is a ``TwoPowerRatio``, a ratio of
polynomials in 2^s (a constant, 2^s, 4^-s, ...) evaluated in 2^-s, and
both sides are combined by the one certified ``_linear_form``.  ``verify``
evaluates both sides with certified absolute bounds, targeting half the
requested tolerance per side, and the identity passes exactly when the
observed residual fits inside the combined bounds.  Because the bounds
are rigorous, a false identity is detected as soon as they shrink below
its defect; the registry test suite includes deliberately wrong pairings.

Every Dirichlet-series value, here and in the command line, comes from
``eval_series_spec`` or the router behind it.  Two of its routes are
linear forms too, over the leaves zeta, f on the functional equation and
A(s) = sum e_m/(2m+1)^s: DECOMPOSED is alpha zeta(s) + beta f(s), with
0.25 eps/|alpha| for zeta and 0.45 eps/|beta| for f, and ODD_SPLIT is
A(s)/(1+q) for f or -A(s)/(1-q) for g, q = 2^-s, with 0.98 eps/|c| for A.
Series and zeta-type leaves are cached per verification under (leaf, s),
so a leaf that terms on either side share is evaluated once.  A side
shares 0.45 (right) or 0.98 (left) of eps/2 among its nonzero terms.

Two classical digit-sum checks and the alternating binary product have no
exponent parameter; they are registered as fixed-form entries whose left
side is a float64 partial sum with a rigorous tail (for the digit sums, one
digit of self-similarity folds the tail back onto the sum; for the product,
the sum of its logs, paired so that Abel summation bounds the tail) and are
verified at their natural tolerance like every other record.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import DomainError, ResourceLimitError
from .precision import Precision, _check_eps, _check_s
from .result import EvalResult, Route
from .sequences import CoefficientSequence, SequenceKind, digit_sum_block, pm_thue_morse_block
from .special_functions import dirichlet_eta, hurwitz_zeta, riemann_zeta
from .evaluator import (
    COMPOSITE9_SERIES,
    DEFAULT_MAX_TERMS,
    DELTA_SERIES,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    DenominatorForm,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
    TwoPowerRatio,
    _DOUBLE_UNIT,
    chunked_kahan_sum,
    eval_functional_equation,
    eval_naive,
    _combine_ctx,
    _linear_form,
    _sums_directly,
    _truncation_search,
    _zeta_leaf,
)

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# closed-form leaves
# ---------------------------------------------------------------------------


class _Bracket(NamedTuple):
    """A leaf's value and bound; ``_weighted_sum`` reads it like an
    EvalResult that used no series terms."""

    value: Any
    abs_error_bound: float
    terms_used = 0


class Expr:
    """A closed-form leaf: zeta, eta, Hurwitz zeta, a power of pi, sqrt, log.

    ``bracket(s, eps, prec, cache)`` gives a value and bound.  The
    zeta-type leaves target ``eps`` and return their cached ``EvalResult``,
    so their terms count; the constants ignore eps.
    """

    def bracket(self, s, eps: float, prec: Precision, cache: "_EvalCache") -> _Bracket:
        raise NotImplementedError


def _const_pair(value, prec: Precision, ops: int = 1) -> _Bracket:
    return _Bracket(value, 4.0 * ops * prec.unit_roundoff * abs(float(value)))


@dataclass(frozen=True)
class Pi(Expr):
    """pi ** power; each factor of pi costs 4u of relative bound."""

    power: int

    def bracket(self, s, eps, prec, cache):
        ctx = _combine_ctx(prec)
        return _const_pair((math.pi if ctx is None else +ctx.pi) ** self.power, prec, self.power)


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: int

    def bracket(self, s, eps, prec, cache):
        ctx = _combine_ctx(prec)
        return _const_pair(math.sqrt(self.arg) if ctx is None else ctx.sqrt(self.arg), prec)


@dataclass(frozen=True)
class Log(Expr):
    arg: Fraction

    def bracket(self, s, eps, prec, cache):
        ctx = _combine_ctx(prec)
        if ctx is None:
            return _const_pair(math.log(self.arg.numerator / self.arg.denominator), prec)
        return _const_pair(ctx.log(ctx.mpf(self.arg.numerator) / self.arg.denominator), prec)


def _zeta_type(leaf, s, zeta: Callable[[Precision], EvalResult], eps, prec, cache) -> EvalResult:
    return cache.get_or_eval((leaf, s), eps, lambda e: _zeta_leaf(zeta, e, prec))


@dataclass(frozen=True)
class Zeta(Expr):
    def bracket(self, s, eps, prec, cache):
        return _zeta_type(self, s, lambda p: riemann_zeta(s, p), eps, prec, cache)


@dataclass(frozen=True)
class Eta(Expr):
    def bracket(self, s, eps, prec, cache):
        return _zeta_type(self, s, lambda p: dirichlet_eta(s, p), eps, prec, cache)


@dataclass(frozen=True)
class HurwitzZeta(Expr):
    a: Fraction

    def bracket(self, s, eps, prec, cache):
        return _zeta_type(self, s, lambda p: hurwitz_zeta(s, self.a, p), eps, prec, cache)


ZERO_RHS: tuple[tuple[TwoPowerRatio, Expr], ...] = ()


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """A Dirichlet-series leaf, ``spec`` on ``route``; not an ``Expr``, so
    closed forms stay apart.  Hashed once: every ``bracket`` looks it up."""

    spec: SeriesSpec
    route: Route = Route.AUTO
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.spec, self.route)))

    def __hash__(self) -> int:
        return self._hash

    def bracket(self, s, eps: float, prec: Precision, cache: "_EvalCache") -> EvalResult:
        return cache.get_or_eval(
            (self, s), eps, lambda e: _eval_routed(self.spec, self.route, s, e, prec, cache)
        )


class IdentityKind(Enum):
    DIRICHLET = "dirichlet"       # parametrized by real s > 1
    FIXED_SERIES = "fixed"        # a single numerical series, no exponent


@dataclass(frozen=True)
class Identity:
    """One verifiable equality with its preferred evaluation routes, valid at
    s = ``valid_s`` or, if None, for every s > 1; a ``fixed_lhs`` (no exponent)
    makes it a fixed form.  ``default_s`` defaults to (2, 3, 4), (valid_s,) or ()."""

    identity_id: str
    lhs: tuple[tuple[TwoPowerRatio, Series | Expr], ...]
    rhs: tuple[tuple[TwoPowerRatio, Expr], ...]
    valid_s: float | None = None
    description: str = ""
    default_s: tuple[float, ...] | None = None
    default_eps: float = 1e-8
    fixed_lhs: Callable[[float, int], EvalResult] | None = None

    def __post_init__(self) -> None:
        if self.default_s is None:
            grid = (2.0, 3.0, 4.0) if self.valid_s is None else (self.valid_s,)
            object.__setattr__(self, "default_s", () if self.fixed_lhs is not None else grid)

    @property
    def kind(self) -> IdentityKind:
        return IdentityKind.DIRICHLET if self.fixed_lhs is None else IdentityKind.FIXED_SERIES

    @property
    def domain(self) -> str:
        """Where it holds: "s > 1", "s = <valid_s>", or "fixed"."""
        if self.fixed_lhs is not None:
            return IdentityKind.FIXED_SERIES.value
        return "s > 1" if self.valid_s is None else f"s = {self.valid_s:g}"


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of checking one identity at one exponent."""

    identity_id: str
    s: float | None
    lhs_value: float
    lhs_bound: float
    rhs_value: float
    rhs_bound: float
    residual: float
    passed: bool
    terms_used: int
    wall_time_s: float
    #: why the check was refused (a domain error or a named limit), else None
    reason: str | None = None

    @property
    def status(self) -> str:
        """"pass", "fail", or "refused" where the check raised instead."""
        return "refused" if self.reason is not None else "pass" if self.passed else "fail"

    @classmethod
    def refused(cls, identity_id: str, s: float | None, reason: str, wall_time_s: float):
        """A record with no values for a check that raised instead."""
        nan = math.nan
        return cls(identity_id, s, nan, nan, nan, nan, nan, False, 0, wall_time_s, reason=reason)


# -- routed evaluation of one series -----------------------------------------


class _EvalCache(dict):
    """A verification's leaf values by (leaf, s), and its term cap ``max_terms``."""

    def __init__(self, max_terms: int | None = None) -> None:
        super().__init__()
        self.max_terms = max_terms

    def get_or_eval(self, key, eps: float, fn: Callable[[float], EvalResult]) -> EvalResult:
        hit = self.get(key)
        if hit is None or not hit.abs_error_bound <= eps:
            hit = self[key] = fn(eps)
        return hit


def _decomposable(spec: SeriesSpec) -> bool:
    """Whether the series is a sum of alphabets over t with an n^s denominator."""
    return spec.coeffs.kind is SequenceKind.AFFINE and spec.denom is DenominatorForm.POWER_OF_N


#: The odd split's coefficient of A per series: f = 2^s/(2^s+1) A and
#: g = -2^s/(2^s-1) A, that is A/(1+q) and -A/(1-q) with q = 2^-s.
_ODD_SPLIT = {
    F_SERIES: TwoPowerRatio((0.0, 1.0), (1.0, 1.0)),
    G_SERIES: TwoPowerRatio((0.0, -1.0), (-1.0, 1.0)),
}


def route_serves(route: Route, spec: SeriesSpec) -> bool:
    """Whether ``route``, asked for, evaluates ``spec``: AUTO and NAIVE every
    series, FUNCTIONAL_EQUATION f only, ODD_SPLIT f and g only, DECOMPOSED
    the sums of alphabets over t with an n^s denominator, EULER_MACLAURIN
    (a result's route, the zeta engine's) none.  The router refuses the
    rest with a ``DomainError``, the command line with a usage error."""
    if route is Route.FUNCTIONAL_EQUATION:
        return spec == F_SERIES
    if route is Route.ODD_SPLIT:
        return spec in _ODD_SPLIT
    if route is Route.DECOMPOSED:
        return _decomposable(spec)
    return route is not Route.EULER_MACLAURIN


def accelerated_route(spec: SeriesSpec) -> Route:
    """The route AUTO takes for a sum of alphabets over t that it does not
    sum directly, and the one ``--method functional`` asks for: the
    functional equation where it serves ``spec`` (f), else DECOMPOSED."""
    if route_serves(Route.FUNCTIONAL_EQUATION, spec):
        return Route.FUNCTIONAL_EQUATION
    return Route.DECOMPOSED


#: The leaves of the two linear-form routes.
_ZETA = Zeta()
_F = Series(F_SERIES, Route.FUNCTIONAL_EQUATION)
_A = Series(ODD_PLUS_MINUS_SERIES, Route.NAIVE)


def _decomposition(spec: SeriesSpec, eps: float):
    """A series over a sum of alphabets {a, b} at t_{n-r} as alpha zeta(s) +
    beta f(s), as (coefficient, leaf, share) triples without the zero ones.

    By t_n = (1 - e_n)/2 a part adds (a+b)/2 to alpha, and to beta (a-b)/2
    at r = 1 or (b-a) (1+q)/(2-2q) at r = 0.  With c, G the exact sums of
    those (a-b)/2 and b-a, beta is c, G (1+q)/(2-2q) (G outside the ratio)
    or ((G-2c) + (G+2c) 2^s)/(2 2^s - 2); zeta gets 0.25 eps, f 0.45 eps."""
    parts = [(Fraction(low), Fraction(high), shift) for low, high, shift in spec.coeffs.parts]
    alpha = sum((low + high) / 2 for low, high, _ in parts)
    c = sum((low - high) / 2 for low, high, shift in parts if shift)
    gap = sum(high - low for low, high, shift in parts if not shift)
    if not gap:
        beta = TwoPowerRatio((c,))
    elif not c:
        beta = TwoPowerRatio((1.0, 1.0), (-2.0, 2.0), gap)
    else:
        beta = TwoPowerRatio((gap - 2 * c, gap + 2 * c), (-2.0, 2.0))
    terms = ((TwoPowerRatio((alpha,)), _ZETA, 0.25 * eps), (beta, _F, 0.45 * eps))
    return [term for term in terms if not term[0].is_zero]


def _eval_routed(spec: SeriesSpec, route: Route, s: float, eps: float, prec: Precision,
                 cache: _EvalCache) -> EvalResult:
    """``spec`` on ``route``, refused where the route does not serve it
    (``route_serves``).  DECOMPOSED and ODD_SPLIT are linear forms over the
    leaves ``_ZETA``, ``_F`` and ``_A``, each cached under itself, so the
    terms and both sides of an identity share them; their result names the
    route itself, whatever its leaves ran (the all-zero alphabet runs none
    and still counts one term)."""
    if not route_serves(route, spec):
        raise DomainError(f"the {route.value} route does not apply to {spec.label()}")
    max_terms = cache.max_terms
    if route is Route.AUTO:
        route = Route.NAIVE
        cap = max_terms if max_terms is not None else DEFAULT_MAX_TERMS
        if _decomposable(spec) and not _sums_directly(spec, s, eps, prec, cap):
            route = accelerated_route(spec)
    if route is Route.NAIVE:
        return eval_naive(spec, s, eps, prec, max_terms)
    if route is Route.FUNCTIONAL_EQUATION:
        return eval_functional_equation(s, eps, prec=prec, max_terms=max_terms)
    if route is Route.ODD_SPLIT:
        terms = [(_ODD_SPLIT[spec], _A, 0.98 * eps)]
    else:
        terms = _decomposition(spec, eps)
    value, bound, used = _linear_form(
        terms, s, prec, lambda leaf, e: leaf.bracket(s, e, prec, cache)
    )
    if bound > eps:
        raise ResourceLimitError(
            f"{spec.label()} on the {route.value} route certified only {bound:g} > "
            f"eps={eps:g} at s={s:g}"
        )
    return EvalResult(value, bound, max(used, 1), route)


def eval_series_spec(
    spec: SeriesSpec,
    s: float,
    eps: float,
    route: Route = Route.AUTO,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> EvalResult:
    """Evaluate one series on ``route``: the one way a series value is made.

    AUTO, the one place a route is chosen, sums naively unless ``spec`` is
    a sum of alphabets over t whose naive cut misses the direct caps
    (``_sums_directly``, on both paths), which takes ``accelerated_route``.
    A pinned route serves the series ``route_serves`` names and refuses
    the rest with a ``DomainError``.  The result's ``method`` is the route
    that ran: NAIVE for any direct sum, FUNCTIONAL_EQUATION only where the
    levels ran, and ODD_SPLIT or DECOMPOSED for the linear forms."""
    s = _check_s(s)
    eps = _check_eps(eps)
    prec = prec if prec is not None else Precision.for_eps(eps)
    return _eval_routed(spec, route, s, eps, prec, _EvalCache(max_terms))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify(
    identity: Identity,
    s: float | None,
    eps: float,
    prec: Precision | None = None,
    max_terms: int | None = None,
) -> VerificationRecord:
    """Evaluate both sides of ``identity`` to eps/2 each and compare.

    ``s`` must lie in the identity's validity domain; fixed-form entries
    take ``s=None``.  The record passes exactly when the residual is at
    most the sum of the two reported bounds.
    """
    eps = _check_eps(eps)
    if identity.kind is IdentityKind.FIXED_SERIES:
        if s is not None:
            raise DomainError(f"{identity.identity_id} has no exponent parameter")
    else:
        if s is None:
            raise DomainError(f"{identity.identity_id} needs an exponent s")
        s = float(s)
        at = identity.valid_s
        if not (s > 1.0 if at is None else abs(s - at) <= 1e-9 * max(1.0, abs(at))):
            raise DomainError(
                f"{identity.identity_id} is only valid for {identity.domain}, got s={s:g}"
            )
    prec = prec if prec is not None else Precision.for_eps(eps)
    t0 = time.perf_counter()
    cache = _EvalCache(max_terms)
    half = eps * 0.5

    def side(terms, fraction: float):
        terms = [(c, leaf) for c, leaf in terms if not c.is_zero]
        share = fraction * half / max(len(terms), 1)
        return _linear_form(
            [(c, leaf, share) for c, leaf in terms], s, prec,
            lambda leaf, e: leaf.bracket(s, e, prec, cache),
        )

    # the right side first: its zeta-type leaves then serve the left's
    rhs_value, rhs_bound, _ = side(identity.rhs, 0.45)
    if identity.kind is IdentityKind.FIXED_SERIES:
        lhs = identity.fixed_lhs(half, max_terms or DEFAULT_MAX_TERMS)
        lhs_value, lhs_bound, terms = lhs.value, lhs.abs_error_bound, lhs.terms_used
    else:
        lhs_value, lhs_bound, terms = side(identity.lhs, 0.98)

    residual = abs(float(lhs_value - rhs_value))
    passed = residual <= lhs_bound + rhs_bound
    return VerificationRecord(
        identity_id=identity.identity_id,
        s=None if identity.kind is not IdentityKind.DIRICHLET else float(s),
        lhs_value=float(lhs_value),
        lhs_bound=float(lhs_bound),
        rhs_value=float(rhs_value),
        rhs_bound=float(rhs_bound),
        residual=residual,
        passed=passed,
        terms_used=max(terms, 1),
        wall_time_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# the corollary-2 family builder
# ---------------------------------------------------------------------------


def _affine_coefficients(c: TwoPowerRatio) -> tuple[float, float]:
    """(alpha, beta) of a coefficient alpha * 2^s + beta."""
    if c.den != (1.0,) or len(c.num) > 2:
        raise DomainError(f"expected a coefficient affine in 2^s, got {c.describe()}")
    beta, alpha = (*c.num, 0.0)[:2]
    return alpha, beta


def make_corollary2_identity(
    u: TwoPowerRatio, v: TwoPowerRatio, identity_id: str | None = None
) -> Identity:
    """u * (shifted 0/1 series) + v * (0/1 series) against its closed form.

    ``u`` and ``v`` must be affine in 2^s.  The equality, with x = 2^s and
    f the shifted +/-1 series:

        u phi + v gamma = (u+v)/2 zeta - f/2 (u + v (1+x)/(1-x))

    Rearranged to residual form, the f coefficient becomes the polynomial
    ratio (u (1-x) + v (1+x)) / (2 (1-x)).  The 0/1 series are pinned to
    the naive route so the check exercises real partial sums against the
    accelerated right side.
    """
    au, bu = _affine_coefficients(u)
    av, bv = _affine_coefficients(v)
    f_num = (bu + bv, au - bu + av + bv, -au + av)
    pairs = (
        (u, Series(PHI_SERIES, Route.NAIVE)),
        (v, Series(GAMMA_SERIES, Route.NAIVE)),
        (TwoPowerRatio((-(bu + bv) / 2.0, -(au + av) / 2.0)), Zeta()),
        (TwoPowerRatio(f_num, (2.0, -2.0)), Series(F_SERIES, Route.FUNCTIONAL_EQUATION)),
    )
    return Identity(
        identity_id=identity_id or f"corollary2[{u.describe()},{v.describe()}]",
        lhs=pairs,
        rhs=ZERO_RHS,
        description=(
            f"{u.describe()}*sum(t[n-1]/n^s) + {v.describe()}*sum(t[n]/n^s) "
            "against its zeta/f closed form"
        ),
    )


# ---------------------------------------------------------------------------
# fixed-form series
# ---------------------------------------------------------------------------


def _fixed_form_lhs(
    partial: Callable[[int], float],
    tail: Callable[[int], float],
    start: int,
    what: str,
    abs_sum: float | None = None,
    ops: float = 32.0,
) -> Callable[[float, int], EvalResult]:
    """Left side of a fixed series, cut after n terms.

    ``partial(n)`` is its float64 value from the first n terms, and
    ``tail(n)`` bounds how far that lies from the series, not increasing
    from n = ``start`` on.  ``abs_sum`` majorizes the sum of |terms|; left
    out, the value itself caps what rounds.  Terms and sums are float64 on
    every path, so the rounding budget is ``ops`` double unit roundoffs
    times (abs_sum + 1), never the working precision's: 32 for one
    chunked Kahan sum.

    The truncation targets 0.95 eps, or eps less the budget when that
    leaves too little room (the value of any finer cut then stays within
    2 tail(n) of this one); only a budget that alone reaches eps is
    refused, before the sum where its floor ``rounding(0)`` already does.
    """

    def rounding(majorant: float) -> float:
        return ops * _DOUBLE_UNIT * ((majorant if abs_sum is None else abs_sum) + 1.0)

    def evaluate(eps: float, max_terms: int) -> EvalResult:
        budget = rounding(0.0)
        if budget < eps:
            n = _truncation_search(tail, start, 0.95 * eps, max_terms, what)
            value = partial(n)
            budget = rounding(value)
            if tail(n) + budget <= eps:
                return EvalResult(value, tail(n) + budget, n, Route.NAIVE)
            budget = rounding(value + 2.0 * tail(n))
        if budget >= eps:
            raise ResourceLimitError(
                f"cannot certify {what} to eps={eps:g}: its double rounding budget alone "
                f"is {budget:g}"
            )
        # one step below the rounded eps - budget, so tail + budget <= eps
        n = _truncation_search(tail, start, math.nextafter(eps - budget, 0.0), max_terms, what)
        return EvalResult(partial(n), tail(n) + budget, n, Route.NAIVE)

    return evaluate


def _digit_sum_lhs(base: int, d: int) -> Callable[[float, int], EvalResult]:
    """S = sum_{n>=1} s_b(n) w(n), w(n) = n^-d - (n+1)^-d, by one digit of
    self-similarity, s_b(hb + L) = s_b(h) + L (README, Numerics notes):

        (1 - b^-d) S = P(N) - b^-d P(H) + ((b-1)/2) N^-d + R

    at N = Hb, P(M) = sum_{1<=n<M} s_b(n) w(n), and Abel summation puts R =
    sum_{n>=N} ((n mod b) - (b-1)/2) w(n) in [-K w(N), 0], K = floor(b^2/4)/2.
    So the value P(H) + M (Q + ((b-1)/2) N^-d - K w(N)/2), M = b^d/(b^d - 1)
    and Q = P(N) - P(H), is within the law M K w(N)/2 of S.  Correction and
    law are integer ratios rounded once (the law up), and a cut reads its
    N - 1 terms once.

    Rounding, with V+ = P(H) + M (Q + ((b-1)/2) N^-d) above every part: the
    Kahan sums err by 32u P(H) and 32u Q, so by 32u M Q after M; M, M Q, the
    correction and two additions round once each, under u V+: 36u V+, the
    helper's budget at 36 ops, whose +1 covers V+ - value (the law, at most
    1/4: floor(b^2/4) w(b) <= 1/4 and M <= 2) and the u^2 terms.
    """
    power = base**d
    ratio = power / (power - 1)
    quarter = base * base // 4

    def block(lo: int, hi: int) -> np.ndarray:
        n = np.arange(lo, hi, dtype=np.float64)
        c = digit_sum_block(lo, hi, base).astype(np.float64)
        return c * ((n + 1.0) ** d - n**d) / (n * (n + 1.0)) ** d

    def over_weight(cut: int, numerator: int) -> float:
        """M numerator / (4 (N (N+1))^d), rounded once."""
        return power * numerator / (4 * (power - 1) * (cut * (cut + 1)) ** d)

    def partial(n: int) -> float:
        h = (n + 1) // base
        cut = h * base
        head = chunked_kahan_sum(block, 1, h - 1)
        rest = chunked_kahan_sum(block, h, cut - h)
        centre = 2 * (base - 1) * (cut + 1) ** d - quarter * ((cut + 1) ** d - cut**d)
        return head + ratio * rest + over_weight(cut, centre)

    def tail(n: int) -> float:
        cut = (n + 1) // base * base
        return math.nextafter(over_weight(cut, quarter * ((cut + 1) ** d - cut**d)), math.inf)

    what = f"digit-sum series (base {base}, d={d})"
    return _fixed_form_lhs(partial, tail, base - 1, what, ops=36.0)


def _woods_robbins_lhs() -> Callable[[float, int], EvalResult]:
    """prod_{n>=0} ((2n+1)/(2n+2))^(e_n), certified through its log.

    Factors 2m and 2m+1 pair up: e_{2m+1} = -e_{2m} = -e_m, so their logs
    sum to e_m a_m with a_m = log1p(-x_m), x_m = 1/((2m+1)(4m+3)).  Every
    a_m is negative and |a_m| decreases.  The partial sums E_M =
    sum_{m<M} e_m are 0 or +/-1, so Abel summation,

        sum_{m>=M} e_m a_m = -E_M a_M + sum_{m>M} E_m (a_{m-1} - a_m),

    bounds the pairs from M on by |a_M| + sum_{m>M} (|a_{m-1}| - |a_m|)
    = 2 |a_M|.  Since the factors tend to 1, the even partial products
    have the limit of all of them.  As x_m <= 1/3, |a_m| <= x_m/(1 - x_m)
    <= 1.5 x_m, and sum x_m = pi/4 - (log 2)/2 < 0.44, so sum |a_m| <= 1
    majorizes the rounding.  With L the log sum and L* the computed one,
    |L - L*| <= b gives |e^L - e^L*| = e^L* |expm1(L - L*)| <= e^L* expm1(b);
    4 unit roundoffs more cover exp's own rounding.  Every partial log sum
    is at most a_0 + 2|a_1| < -0.3, so e^L* < 0.75 and the bound stays
    under eps whenever b does (the log sum refuses eps below its 64 unit
    roundoffs).  ``terms_used`` counts factors, two per pair, and the
    factor cap ``max_terms`` allows half as many pairs.
    """

    def block(lo: int, hi: int) -> np.ndarray:
        m = np.arange(lo, hi, dtype=np.float64)
        e = pm_thue_morse_block(lo, hi).astype(np.float64)
        return e * np.log1p(-1.0 / ((2.0 * m + 1.0) * (4.0 * m + 3.0)))

    def tail(m: int) -> float:
        return -2.0 * math.log1p(-1.0 / ((2.0 * m + 1.0) * (4.0 * m + 3.0)))

    log_sum = _fixed_form_lhs(lambda n: chunked_kahan_sum(block, 0, n), tail, 1,
                              "Woods-Robbins product", abs_sum=1.0)

    def evaluate(eps: float, max_terms: int) -> EvalResult:
        log = log_sum(eps, max_terms // 2)
        value = math.exp(log.value)
        bound = value * (math.expm1(log.abs_error_bound) + 4.0 * _DOUBLE_UNIT)
        return EvalResult(value, bound, 2 * log.terms_used, Route.NAIVE)

    return evaluate


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _affine_series(low: float, high: float, shift: int) -> Series:
    return Series(SeriesSpec(CoefficientSequence.affine(low, high, shift)))


def _const(c: float | Fraction) -> TwoPowerRatio:
    return TwoPowerRatio((c,))


@cache
def _registry() -> tuple[Identity, ...]:
    """The bundled identities, built on first use: the solver, whose case table
    makes theorem3 and the theorem5 records, imports this module."""
    from .solver import AlphabetCase, _all_s_identity

    entries: list[Identity] = []

    entries.append(
        Identity(
            identity_id="lemma1",
            lhs=(
                (_const(1.0), Series(F_SERIES, Route.FUNCTIONAL_EQUATION)),
                (TwoPowerRatio((-1.0, 1.0), (1.0, 1.0)), Series(G_SERIES, Route.NAIVE)),
            ),
            rhs=ZERO_RHS,
            description="shifted +/-1 series equals (1-2^s)/(1+2^s) times the unshifted one",
        )
    )
    entries.append(make_corollary2_identity(_const(1.0), _const(0.0), "corollary2-phi"))
    entries.append(make_corollary2_identity(_const(0.0), _const(1.0), "corollary2-gamma"))
    theorem3 = "(2^s+1) sum(t[n-1]/n^s) + (2^s-1) sum(t[n]/n^s) = 2^s zeta(s)"
    entries.append(_all_s_identity(AlphabetCase.POW_S, "theorem3", theorem3, Route.DECOMPOSED))
    entries.append(
        Identity(
            identity_id="example4a",
            lhs=(
                (_const(5.0), Series(PHI_SERIES, Route.DECOMPOSED)),
                (_const(3.0), Series(GAMMA_SERIES, Route.DECOMPOSED)),
            ),
            rhs=((_const(Fraction(2, 3)), Pi(2)),),
            valid_s=2.0,
            description="sum((5 t[n-1] + 3 t[n])/n^2) = 2 pi^2/3",
        )
    )
    entries.append(
        Identity(
            identity_id="example4b",
            lhs=(
                (_const(9.0), Series(PHI_SERIES, Route.DECOMPOSED)),
                (_const(7.0), Series(GAMMA_SERIES, Route.DECOMPOSED)),
            ),
            rhs=((_const(8.0), Zeta()),),
            valid_s=3.0,
            description="sum((9 t[n-1] + 7 t[n])/n^3) = 8 zeta(3)",
        )
    )
    for identity_id, case, description in (
        (
            "theorem5-zero",
            AlphabetCase.ZERO,
            "alphabet k=1/2, l=-1/2: shifted series equals (1-2^s)/(1+2^s) times unshifted",
        ),
        ("theorem5-pows", AlphabetCase.POW_S, "alphabet k=0, l=0 combination equals 2^s zeta(s)"),
        ("theorem5-eta", AlphabetCase.POW_S_MINUS_2, "alphabet k=1, l=1 combination equals 2^s eta(s)"),
    ):
        entries.append(_all_s_identity(case, identity_id, description))
    entries.append(
        Identity(
            identity_id="prop6a",
            lhs=(
                (_const(5.0), _affine_series(-1.0, 0.0, 1)),
                # 3 r[n] over the letters {1, 4}: exact, where 1/3 and 4/3 are not
                (_const(1.0), _affine_series(1.0, 4.0, 0)),
            ),
            rhs=ZERO_RHS,
            valid_s=2.0,
            description="alphabets {-1,0} and {1/3,4/3}: 5 sum(q[n-1]/n^2) + 3 sum(r[n]/n^2) = 0",
        )
    )
    entries.append(
        Identity(
            identity_id="prop6b",
            lhs=(
                (_const(9.0), _affine_series(-1.0, 0.0, 1)),
                # 7 r[n] over the letters {9, 16}
                (_const(1.0), _affine_series(9.0, 16.0, 0)),
            ),
            rhs=((_const(8.0), Zeta()),),
            valid_s=3.0,
            description="alphabets {-1,0} and {9/7,16/7}: sum((9 q[n-1] + 7 r[n])/n^3) = 8 zeta(3)",
        )
    )
    entries.append(
        Identity(
            identity_id="prop6c",
            lhs=(
                (_const(17.0), _affine_series(-_SQRT2, 1.0 - _SQRT2, 1)),
                (
                    _const(15.0),
                    _affine_series((17.0 * _SQRT2 - 2.0) / 15.0, (17.0 * _SQRT2 + 13.0) / 15.0, 0),
                ),
            ),
            rhs=((_const(16.0), Eta()),),
            valid_s=4.0,
            description="irrational alphabets over sqrt(2): sum((17 q[n-1] + 15 r[n])/n^4) = 16 eta(4)",
        )
    )
    entries.append(
        Identity(
            identity_id="example8",
            lhs=(
                (_const(1.0), Series(DELTA_SERIES, Route.NAIVE)),
                (
                    TwoPowerRatio((0.0, 0.0, -1.0), (-1.0, 0.0, 1.0)),
                    Series(ODD_PLUS_MINUS_SERIES, Route.NAIVE),
                ),
            ),
            rhs=ZERO_RHS,
            default_s=(2.0, 3.0),
            description="sum((t[n]-t[n-1])/n^s) = 4^s/(4^s-1) sum(e[m]/(2m+1)^s)",
        )
    )
    entries.append(
        Identity(
            identity_id="example9",
            lhs=((_const(1.0), Series(COMPOSITE9_SERIES, Route.NAIVE)),),
            rhs=((TwoPowerRatio((1.0,), (0.0, 0.0, 1.0)), HurwitzZeta(Fraction(1, 4))),),
            default_s=(2.0, 3.0),
            default_eps=1e-6,
            description="period-doubling composite series equals 4^-s zeta(s, 1/4)",
        )
    )
    # the digit-sum records: (id, base, d of the weight n^-d - (n+1)^-d, rhs, eps, text)
    digit_sums = [
        (f"shallit:{b}", b, 1, ((_const(Fraction(b, b - 1)), Log(Fraction(b))),), 1e-4,
         f"sum(s_{b}(n)/(n(n+1))) = ({b}/{b - 1}) log {b}")
        for b in (2, 3, 10)
    ]
    digit_sums.append(("allouche-shallit", 2, 2, ((_const(Fraction(1, 9)), Pi(2)),), 1e-8,
                       "sum(s_2(n)(2n+1)/(n^2 (n+1)^2)) = pi^2/9"))
    for identity_id, base, d, rhs, eps, description in digit_sums:
        entries.append(Identity(identity_id, (), rhs, default_eps=eps, description=description,
                                fixed_lhs=_digit_sum_lhs(base, d)))
    entries.append(
        Identity(
            identity_id="woods-robbins",
            lhs=(),
            rhs=((_const(Fraction(1, 2)), Sqrt(2)),),
            default_eps=1e-8,
            fixed_lhs=_woods_robbins_lhs(),
            description="prod(((2n+1)/(2n+2))^(e_n)) = sqrt(2)/2",
        )
    )
    return tuple(entries)


def builtin_registry() -> list[Identity]:
    """All bundled identities, in report order."""
    return list(_registry())


def get_identity(identity_id: str) -> Identity:
    """Look up a bundled identity; hyphens and underscores are equivalent."""
    wanted = identity_id.strip().lower().replace("_", "-")
    for ident in _registry():
        if ident.identity_id == wanted:
            return ident
    raise KeyError(f"unknown identity {identity_id!r}")
