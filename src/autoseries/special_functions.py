"""Riemann zeta, alternating zeta, and Hurwitz zeta for real s > 1.

One Euler-Maclaurin engine backs all three closed forms.  For a > 0 and
real s > 1:

    zeta(s, a) = sum_{k<N} (k+a)^(-s)
               + (N+a)^(1-s)/(s-1) + (N+a)^(-s)/2
               + sum_{j=1..v} T_j + R_v,
    T_j = B_{2j}/(2j)! * s(s+1)...(s+2j-2) * (N+a)^(-s-2j+1),

and the remainder satisfies the first-omitted-term bound |R_v| <= |T_{v+1}|,
which is valid for real s > 0 because every derivative of (x+a)^(-s) keeps
a fixed sign on x >= 0.  The engine scans a fixed (N, v) schedule until
|T_{v+1}| undershoots half the target tolerance, then sums the pieces with
one ``fsum``; the reported bound is |T_{v+1}| plus a rounding budget.  At
a >= 16 the schedule starts at N = 0, with no prefix: the naive route's
mean-part leaves zeta(s, N1) sit far past the first prefix of 16.

The engine runs over two number types, like ``evaluator._horner``: floats
where ``ctx`` is None, mpfs of ``ctx`` otherwise.  A wider leaf runs in a
context of working plus 20 guard bits, and its budget is
8 (N + 3v + 18 + P) 2^-(bits+20) (|value| + 1) plus the float conversion
ulp.  There it takes one ``ctx.power`` per prime: (N+a)^-s, with
(N+a)^(1-s) and (N+a)^(-s-1) one product and one quotient away, and for
an integer a below 16 (zeta(s) itself) the prefix's composites as P
products of smaller powers (``_prefix_powers``); each is one more
rounding inside the budget.
On the double path the arithmetic is float64, with no mpmath power,
whenever every shift k + a with k <= 1024 is an exact float (integers,
1/4, 1/2, 3/4, N1 + 1/2, N1 + 3/4; a 1/3 or a 0.3 takes the context).
With u = 2^-53, its budget is:

* Every power is trusted to 1 ulp, 2u relative: the trust the float64
  kernel's ``_ROUNDING_OPS`` envelope places in numpy's ``**``.  The
  exponents -s and 1 - s are exact; -s - 1 is rounded by some d, which
  Fast2Sum recovers exactly, and which moves (N+a)^(-s-1) by a factor
  within 1 + kappa, kappa = 1.01 |d| ln(N+a).
* The positive pieces (the prefix, the integral term, the half term) sum
  to at most |value| + sum |T_j|, so their powers contribute 2u times
  that, and the integral term's division one more u times itself.
* T_j takes u for B_{2j}/(2j)! (a float, cached per j), 4u for each of
  the j - 1 steps of the rising factorial (two sums, two products), 2u
  for the power, 3u for each of the j - 1 steps by 1/(N+a)^2, and 2u for
  its two products: (7j - 2)u + kappa, so (7v + 5)u + kappa covers every
  T_j up to the first omitted one.  The corrections take that times
  sum |T_j|; the remainder bound is |T_{v+1}| times 1 plus it.
* ``math.fsum`` rounds once: u |value|.
* The whole bound is scaled by 1 + 1e-9, far above every second-order
  term and the bound's own roundings.

No piece may be subnormal, where relative rounding fails: an underflowed
(N+a)^(-s-2j+1) times a large B_{2j}/(2j)! s...(s+2j-2) has no small
absolute floor.  The smallest power formed is (N+a)^(-s-2v-1), and the
float path requires it to be at least 2^-1000; then every piece is a
normal float (B_{2j}/(2j)! s...(s+2j-2) >= |B_{2j}|/(2j) >= 1/252 for
s >= 1).  A leaf where that fails, where a power overflows, or whose float
bound misses the target (about 3u |value| from the powers and the sum,
so 1e-12 at ``zeta(6, 1/4)`` ~ 4096) runs in the context instead, so the
float path refuses nothing the context certifies.  A value past the
largest float is a ``DomainError`` on the double path: no working width
makes it a float.

The alternating form is derived, not summed:  eta(s) = (1 - 2^(1-s)) zeta(s),
with the error bound propagated through the factor; on the double path
the factor is a float, 2^(1-s) to 1 ulp and 1 - 2^(1-s) rounded once.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .errors import DomainError, ResourceLimitError
from .precision import Precision, _check_s, _mp_context
from .result import EvalResult, Route

_N_SCHEDULE = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
_V_MAX = 60
_GUARD_BITS = 20
#: Unit roundoff of a float, and the float path's scale for second-order terms.
_U = 2.0**-53
_SECOND_ORDER = 1 + 1e-9

# B_{2j}/(2j)! as exact rationals and as their nearest floats (index j),
# extended lazily.
_B_OVER_FACT: list[tuple[Fraction, float]] = []


def _b_over_fact(j: int, ctx: MPContext | None):
    """B_{2j}/(2j)!: its nearest float where ``ctx`` is None, else an mpf of ``ctx``."""
    while len(_B_OVER_FACT) <= j:
        import mpmath

        jj = len(_B_OVER_FACT)
        p, q = mpmath.bernfrac(2 * jj)
        frac = Fraction(int(p), int(q) * math.factorial(2 * jj))
        _B_OVER_FACT.append((frac, float(frac)))
    frac, nearest = _B_OVER_FACT[j]
    return nearest if ctx is None else ctx.mpf(frac.numerator) / frac.denominator


def _em_terms(s, base, ctx: MPContext | None, base_pow=None):
    """T_1, T_2, ... at N + a = ``base``: from base^(-s-1), one power in
    floats or ``base_pow`` = base^-s over base in ``ctx``, then two
    products per term."""
    rising = s
    power = base ** (-s - 1) if ctx is None else base_pow / base
    inv_base2 = 1 / (base * base)
    for j in itertools.count(1):
        yield _b_over_fact(j, ctx) * rising * power
        rising = rising * (s + 2 * j - 1) * (s + 2 * j)
        power = power * inv_base2


def _schedule(s, a, eps: float, ctx: MPContext | None) -> tuple[int, list, object]:
    """The first scheduled (N, v) with |T_{v+1}| <= eps/2, as N, the
    terms T_1, ..., T_{v+1} and, in ``ctx``, (N + a)^-s (None in floats);
    at a >= 16, past the schedule's first prefix already, it starts at
    N = 0."""
    goal = eps * 0.5
    for n_terms in ((0,) if a >= 16 else ()) + _N_SCHEDULE:
        base = n_terms + a
        base_pow = None if ctx is None else ctx.power(base, -s)
        terms = []
        for term in itertools.islice(_em_terms(s, base, ctx, base_pow), _V_MAX):
            terms.append(term)
            if abs(term) <= goal:
                return n_terms, terms, base_pow
    raise ResourceLimitError(
        f"Euler-Maclaurin schedule exhausted before reaching eps={eps:g} "
        f"at s={float(s)}; raise target_eps or working_bits"
    )


def _prefix_powers(s, a, n_terms: int, ctx: MPContext) -> tuple[list, int]:
    """(k + a)^-s for k < ``n_terms`` in ``ctx``, and the products made.

    For an integer a below 16 one power per prime: m^-s is completely
    multiplicative, so a composite m takes the product of its smallest
    prime factor's and its cofactor's, made first.  Each product is one
    more rounding: m^-s is within 2 Omega(m) - 1 <= 2 log2 m - 1 < 21
    units of its own size (m <= 1039), far inside the 8 units per
    operation of the prefix's budget."""
    neg_s = -s
    if a != int(a) or a >= 16:
        return [ctx.power(k + a, neg_s) for k in range(n_terms)], 0
    a = int(a)
    top = a + n_terms - 1
    powers = [ctx.one] * (top + 1)
    products = 0
    for m in range(2, top + 1):
        p = next((q for q in range(2, math.isqrt(m) + 1) if m % q == 0), m)
        if p == m:
            powers[m] = ctx.power(m, neg_s)
        else:
            powers[m] = powers[p] * powers[m // p]
            products += 1
    return powers[a : top + 1], products


def _exact_in_floats(s: float, a) -> bool:
    """True when ``a`` is a float, every k + a with k <= 1024 is one too,
    and so is 1 - s: the float path's preconditions."""
    af = float(a)
    if af != a or not s < 2.0**52:
        return False
    num, den = af.as_integer_ratio()
    return num + _N_SCHEDULE[-1] * den <= 2**53


def _euler_maclaurin(s, a, prec: Precision, ctx: MPContext | None) -> EvalResult | None:
    """zeta(s, a) in floats (``ctx`` None) or in ``ctx``; None where the
    float path cannot certify ``prec.target_eps``."""
    if ctx is None:
        s_, a_, fsum = s, a, math.fsum
    else:
        s_, a_, fsum = ctx.mpf(s), ctx.convert(a), ctx.fsum
    n_terms, (*corrections, omitted), base_pow = _schedule(s_, a_, prec.target_eps, ctx)
    v = len(corrections)
    base = n_terms + a_
    if ctx is None and (s + 2 * v + 1) * math.log2(base) > 1000:
        return None
    remainder = abs(omitted)
    if ctx is None:
        integral = base ** (1 - s_) / (s_ - 1)
        minus_s = -s_
        pieces = [(k + a_) ** minus_s for k in range(n_terms)]
        pieces += integral, base ** minus_s / 2, *corrections
    else:
        # base^(1-s) and base^(-s-1) (``_em_terms``) from base^-s
        pieces, products = _prefix_powers(s_, a_, n_terms, ctx)
        pieces += base_pow * base / (s_ - 1), base_pow / 2, *corrections
    value = fsum(pieces)

    if ctx is None:
        # -s - 1 rounds to -s - 1 + d, and Fast2Sum recovers d exactly
        kappa = 1.01 * abs(-s - 1.0 + s + 1.0) * math.log(base)
        rel = (7 * v + 5) * _U + kappa
        c_abs = sum(map(abs, corrections))
        rounding = 3 * _U * abs(value) + 2 * _U * c_abs + _U * integral + rel * c_abs
        bound = (remainder * (1 + rel) + rounding) * _SECOND_ORDER
        if not bound <= prec.target_eps:
            return None
        return EvalResult(value, bound, max(1, n_terms + v), Route.EULER_MACLAURIN)

    out = float(value) if prec.is_double else value
    if math.isinf(out):
        raise DomainError(
            f"zeta(s, a) at s={s:g}, a={a} is about {ctx.nstr(value, 3)}, "
            f"past the largest float"
        )
    # rounding budget: ~(N + 3v) guarded operations, the prefix's
    # products and the two powers of the base derived from base^-s, plus
    # the conversion ulp
    ops = n_terms + 3 * v + 16 + products + 2
    slack = ctx.ldexp(ctx.mpf(8 * ops), -(prec.working_bits + _GUARD_BITS)) * (abs(value) + 1)
    conv = ctx.ldexp(abs(value), 1 - prec.working_bits)
    bound = float((remainder + slack + conv) * (1 + ctx.mpf(1e-9)))
    if bound > prec.target_eps:
        raise ResourceLimitError(
            f"certified bound {bound:g} exceeds target_eps={prec.target_eps:g} "
            f"at working precision {prec.working_bits}; raise working_bits"
        )
    return EvalResult(out, bound, max(1, n_terms + v), Route.EULER_MACLAURIN)


def _hurwitz_core(s: float, a, prec: Precision) -> EvalResult:
    """zeta(s, a) to ``prec.target_eps``, valid for every a > 0.

    The public ``hurwitz_zeta`` admits 0 < a <= 1 only; the naive route
    calls this directly, at a = N+1 or N+1/2, for the mean part of a
    truncated tail.  On the double path it runs in floats where they
    certify, and in a context of working plus guard bits otherwise.
    """
    if prec.is_double and _exact_in_floats(s, a):
        try:
            result = _euler_maclaurin(s, float(a), prec, None)
        except (OverflowError, ResourceLimitError):
            result = None
        if result is not None:
            return result
    return _euler_maclaurin(s, a, prec, _mp_context(prec.working_bits + _GUARD_BITS))


def riemann_zeta(s: float, prec: Precision | None = None) -> EvalResult:
    """zeta(s) for real s > 1 to the precision's target tolerance."""
    s = _check_s(s)
    prec = prec or Precision()
    return _hurwitz_core(s, 1, prec)


def hurwitz_zeta(s: float, a, prec: Precision | None = None) -> EvalResult:
    """zeta(s, a) = sum_{n>=0} (n+a)^(-s) for real s > 1 and 0 < a <= 1.

    ``a`` may be a float or a Fraction; rationals are converted exactly at
    working precision.
    """
    s = _check_s(s)
    a_val = float(a)
    if not (0.0 < a_val <= 1.0):
        raise DomainError(f"Hurwitz parameter must lie in (0, 1], got {a_val}")
    prec = prec or Precision()
    return _hurwitz_core(s, Fraction(a) if isinstance(a, (Fraction, int)) else a_val, prec)


def dirichlet_eta(s: float, prec: Precision | None = None) -> EvalResult:
    """eta(s) = (1 - 2^(1-s)) zeta(s) for real s > 1.

    Derived from the zeta engine; the error bound is the zeta bound scaled
    by the (sub-unit) factor plus the factor's own rounding.
    """
    s = _check_s(s)
    prec = prec or Precision()
    ctx = None if prec.is_double else _mp_context(prec.working_bits + _GUARD_BITS)
    q = 2.0 ** (1 - s) if ctx is None else ctx.power(2, 1 - ctx.mpf(s))
    factor = 1 - q
    inner = _hurwitz_core(s, 1, prec.with_eps(prec.target_eps * 0.9 / float(factor)))
    if ctx is None:
        value = factor * inner.value
        # q to one ulp and 1 - q rounded once; the product rounded once
        factor_err = _U * (2 * q + factor)
        bound = (
            factor * inner.abs_error_bound
            + factor_err * (abs(inner.value) + inner.abs_error_bound)
            + _U * abs(value)
        ) * _SECOND_ORDER
        return EvalResult(value, bound, inner.terms_used, Route.EULER_MACLAURIN)
    value = factor * ctx.convert(inner.value)
    slack = ctx.ldexp(abs(value), 2 - prec.working_bits)
    bound = float(factor * inner.abs_error_bound + slack)
    return EvalResult(value, bound, inner.terms_used, Route.EULER_MACLAURIN)
