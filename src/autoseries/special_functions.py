"""Riemann zeta, alternating zeta, and Hurwitz zeta for real s > 1.

One Euler-Maclaurin engine backs all three closed forms.  For a > 0 and
real s > 1:

    zeta(s, a) = sum_{k<N} (k+a)^(-s)
               + (N+a)^(1-s)/(s-1) + (N+a)^(-s)/2
               + sum_{j=1..v} B_{2j}/(2j)! * s(s+1)...(s+2j-2) * (N+a)^(-s-2j+1)
               + R_v

and the remainder satisfies the first-omitted-term bound

    |R_v| <= |B_{2v+2}|/(2v+2)! * s(s+1)...(s+2v) * (N+a)^(-s-2v-1),

which is valid for real s > 0 because every derivative of (x+a)^(-s) keeps
a fixed sign on x >= 0.  The engine scans a fixed (N, v) schedule until the
remainder bound undershoots half the target tolerance, then evaluates at
working precision plus guard bits; the reported bound adds the remainder,
a summation rounding budget, and the float conversion ulp.

The alternating form is derived, not summed:  eta(s) = (1 - 2^(1-s)) zeta(s),
with the error bound propagated through the factor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .precision import Precision, _check_s, _mp_context
from .result import EvalResult, Method

_N_SCHEDULE = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024)
_V_MAX = 60
_GUARD_BITS = 20

# B_{2j}/(2j)! as exact rationals (index j), extended lazily.
_B_OVER_FACT: list[Fraction] = []


def _b_over_fact(j: int) -> Fraction:
    import mpmath

    while len(_B_OVER_FACT) <= j:
        jj = len(_B_OVER_FACT)
        p, q = mpmath.bernfrac(2 * jj)
        _B_OVER_FACT.append(Fraction(int(p), int(q) * math.factorial(2 * jj)))
    return _B_OVER_FACT[j]


def _hurwitz_core(s: float, a, prec: Precision) -> EvalResult:
    """zeta(s, a) to ``prec.target_eps``, valid for every a > 0.

    The public ``hurwitz_zeta`` admits 0 < a <= 1 only; the naive route
    calls this directly, at a = N+1 or N+1/2, for the mean part of a
    truncated tail.
    """
    ctx = _mp_context(prec.working_bits + _GUARD_BITS)
    s_mp = ctx.mpf(s)
    a_mp = ctx.convert(a)
    eps_goal = prec.target_eps * 0.5

    chosen = None
    for n_terms in _N_SCHEDULE:
        base = n_terms + a_mp
        # T_{j} = B_{2j}/(2j)! * rising(s, 2j-1) * base^(-s-2j+1), scanned for
        # the first omitted term T_{v+1} below the goal
        rising = s_mp
        power = base ** (-s_mp - 1)
        inv_base2 = 1 / (base * base)
        for v in range(0, _V_MAX):
            j = v + 1
            frac = _b_over_fact(j)
            t_j = abs(ctx.mpf(frac.numerator) / frac.denominator * rising * power)
            if t_j <= eps_goal:
                chosen = (n_terms, v, t_j)
                break
            rising = rising * (s_mp + 2 * j - 1) * (s_mp + 2 * j)
            power = power * inv_base2
        if chosen is not None:
            break
    if chosen is None:
        raise ResourceLimitError(
            f"Euler-Maclaurin schedule exhausted before reaching eps={prec.target_eps:g} "
            f"at s={s}; raise target_eps or working_bits"
        )

    n_terms, v, remainder = chosen
    base = n_terms + a_mp
    partial = ctx.fsum(ctx.power(k + a_mp, -s_mp) for k in range(n_terms))
    value = partial + base ** (1 - s_mp) / (s_mp - 1) + ctx.power(base, -s_mp) / 2
    rising = s_mp
    power = base ** (-s_mp - 1) * base * base
    for j in range(1, v + 1):
        frac = _b_over_fact(j)
        power = power / (base * base)
        value += ctx.mpf(frac.numerator) / frac.denominator * rising * power
        rising = rising * (s_mp + 2 * j - 1) * (s_mp + 2 * j)

    # rounding budget: ~(N + 3v) guarded operations plus the conversion ulp
    ops = n_terms + 3 * v + 16
    slack = ctx.mpf(8 * ops) * ctx.mpf(2.0) ** (-(prec.working_bits + _GUARD_BITS)) * (
        abs(value) + 1
    )
    conv = abs(value) * ctx.mpf(2.0) ** (1 - prec.working_bits)
    bound = float((remainder + slack + conv) * (1 + ctx.mpf(1e-9)))
    if bound > prec.target_eps:
        raise ResourceLimitError(
            f"certified bound {bound:g} exceeds target_eps={prec.target_eps:g} "
            f"at working precision {prec.working_bits}; raise working_bits"
        )
    out = float(value) if prec.is_double else value
    return EvalResult(out, bound, n_terms + v, Method.EULER_MACLAURIN)


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
    ctx = _mp_context(prec.working_bits + _GUARD_BITS)
    factor = 1 - ctx.power(2, 1 - ctx.mpf(s))
    inner = _hurwitz_core(s, 1, prec.with_eps(prec.target_eps * 0.9 / float(factor)))
    value = factor * ctx.convert(inner.value)
    slack = abs(value) * ctx.mpf(2.0) ** (2 - prec.working_bits)
    bound = float(factor * inner.abs_error_bound + slack)
    out = float(value) if prec.is_double else value
    return EvalResult(out, bound, inner.terms_used, Method.EULER_MACLAURIN)
