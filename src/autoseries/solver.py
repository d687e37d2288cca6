"""Solve the alphabet balance function for new series identities.

For sequences q_n = t_n - k and r_n = t_n + l over the 0/1 digit-parity
stream, the combination

    (2^s+1) sum(q_{n-1}/n^s) + (2^s-1) sum(r_n/n^s)
        = zeta(s) * (2^s - (2^s (k-l) + (k+l)))

holds for every real s > 1, so the balance value

    lam(s; k, l) = 2^s - (2^s (k-l) + (k+l))

selects which closed-form family an alphabet produces: 0 collapses the
zeta term and leaves a pure ratio between the two series, 2^s reproduces
the zeta combination, and 2^s - 2 yields the alternating-zeta combination
via eta(s) = (1 - 2^(1-s)) zeta(s).

The cases are the rows of one table, ``_CASES``: the target slope 2^s +
const, the coefficients, right side and statement a case mints, and the
texts of its guards.  As lam - target = (1 - (k-l) - slope) 2^s - (k+l) -
const, each case solves 2^s = num/den with den = (1 - slope) - (k-l) and
num = k + l + const, and holds for every s where both vanish.  The
registry's theorem3 and theorem5 records are the cases at those all-s
alphabets (``_all_s_identity``), built as ``mint_identity`` builds its own.

Positivity of k and l is NOT required here: the algebra nowhere uses it,
and the all-s solution of the first case is exactly k = 1/2, l = -1/2.
Solutions with s <= 1 are returned flagged rather than rejected; the
identity they denote is valid algebra that this package cannot verify
numerically (its series evaluators need s > 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import DomainError
from .evaluator import SeriesSpec
from .identities import (
    Eta,
    Expr,
    Identity,
    Route,
    Series,
    TwoPowerRatio,
    ZERO_RHS,
    Zeta,
)
from .sequences import CoefficientSequence

#: Post-solve residual tolerance, relative to 1 + 2^s.
RESIDUAL_RTOL = 1e-12


class AlphabetCase(Enum):
    """Which target the balance value must hit."""

    ZERO = "zero"
    POW_S = "pows"
    POW_S_MINUS_2 = "powsminus2"


class _Case(NamedTuple):
    """target = slope 2^s + const; the q and r coefficients, right side and
    statement the case mints; what its den, num and ratio guards demand."""

    slope: float
    const: float
    lhs: tuple[TwoPowerRatio, TwoPowerRatio]
    rhs: tuple[tuple[TwoPowerRatio, Expr], ...]
    statement: str
    guards: tuple[str, str, str]


_SUM = "(2^s+1) sum(q[n-1]/n^s) + (2^s-1) sum(r[n]/n^s) = 2^s"
_PLUS_MINUS = (TwoPowerRatio((1.0, 1.0)), TwoPowerRatio((-1.0, 1.0)))
_CASES = {
    AlphabetCase.ZERO: _Case(
        0.0, 0.0, (TwoPowerRatio((1.0,)), TwoPowerRatio((-1.0, 1.0), (1.0, 1.0))), ZERO_RHS,
        "sum(q[n-1]/n^s) = (1-2^s)/(1+2^s) sum(r[n]/n^s)",
        ("k != l + 1 (denominator -k+l+1 vanishes)", "k + l != 0", "(k+l)/(-k+l+1) > 0"),
    ),
    AlphabetCase.POW_S: _Case(
        1.0, 0.0, _PLUS_MINUS, ((TwoPowerRatio((0.0, 1.0)), Zeta()),), f"{_SUM} zeta(s)",
        ("k != l (denominator k-l vanishes)", "k + l != 0", "-(k+l)/(k-l) > 0"),
    ),
    AlphabetCase.POW_S_MINUS_2: _Case(
        1.0, -2.0, _PLUS_MINUS, ((TwoPowerRatio((0.0, 1.0)), Eta()),), f"{_SUM} eta(s)",
        ("k != l (denominator k-l vanishes)", "k + l != 2", "-(k+l-2)/(k-l) > 0"),
    ),
}


@dataclass(frozen=True)
class AlphabetSolution:
    """A solved alphabet (k, l, case, s) ready to be minted into an identity.

    ``verifiable`` is False when the solved exponent is <= 1; the algebra
    still holds but the series evaluators cannot check it.
    """

    k: float
    l: float
    case: AlphabetCase
    s: float
    residual: float
    verifiable: bool

    def describe(self) -> str:
        note = "" if self.verifiable else "  [s <= 1: not verifiable by this package]"
        return (
            f"case={self.case.value} k={self.k:.12g} l={self.l:.12g} "
            f"-> s={self.s:.12g} (balance residual {self.residual:.2e}){note}"
        )


def lambda_fn(s: float, k: float, l: float) -> float:
    """The balance value 2^s - (2^s (k-l) + (k+l))."""
    x = 2.0**s
    return x - (x * (k - l) + (k + l))


def case_target(case: AlphabetCase, s: float) -> float:
    """The value lam must take for the case's closed form to hold at s."""
    form = _CASES[case]
    return form.slope * 2.0**s + form.const


def _balance(form: _Case, k: float, l: float) -> tuple[float, float]:
    """(num, den) of the case's solution 2^s = num/den."""
    return k + l + form.const, (1.0 - form.slope) - (k - l)


def _ratio_for_case(case: AlphabetCase, k: float, l: float) -> float:
    """The positive ratio whose base-2 log solves the case, with named guards."""
    form = _CASES[case]
    num, den = _balance(form, k, l)
    den_guard, num_guard, ratio_guard = form.guards
    # den as computed can be 0 where k != l + (1 - slope), and the reverse
    if den == 0.0 or k == l + (1.0 - form.slope):
        raise DomainError(f"case '{case.value}' needs {den_guard}")
    if num == 0.0:
        raise DomainError(f"case '{case.value}' needs {num_guard}")
    ratio = num / den
    if not ratio > 0.0:
        raise DomainError(f"case '{case.value}' needs {ratio_guard}")
    return ratio


def solve_case(case: AlphabetCase | str, k: float, l: float) -> AlphabetSolution:
    """Solve lam(s; k, l) = target(s) for s, checking the guards by name.

    s comes out as log2 of the case ratio; the balance residual
    |lam(s) - target(s)| is checked against 1e-12 (1 + 2^s) before the
    solution is returned.
    """
    case = AlphabetCase(case)
    k = float(k)
    l = float(l)
    ratio = _ratio_for_case(case, k, l)
    s = math.log2(ratio)
    if s >= 1024.0:
        # a subnormal k - l can push the ratio near the float maximum
        raise DomainError(f"solved s={s:g} puts 2^s past the float range")
    residual = abs(lambda_fn(s, k, l) - case_target(case, s))
    tol = RESIDUAL_RTOL * (1.0 + 2.0**s)
    if not residual <= tol:
        raise DomainError(
            f"solved s={s:g} fails the balance check: residual {residual:g} > {tol:g}"
        )
    return AlphabetSolution(k, l, case, s, residual, verifiable=s > 1.0)


def _alphabet_identity(
    form: _Case, k: float, l: float, valid_s: float | None, identity_id: str, description: str,
    route: Route = Route.AUTO,
) -> Identity:
    """The case's identity over the alphabets {-k, 1-k} at the shifted
    index (q) and {l, 1+l} unshifted (r), both series on ``route``."""
    q_spec = SeriesSpec(CoefficientSequence.affine(-k, 1.0 - k, 1))
    r_spec = SeriesSpec(CoefficientSequence.affine(l, 1.0 + l))
    return Identity(
        identity_id=identity_id,
        lhs=((form.lhs[0], Series(q_spec, route)), (form.lhs[1], Series(r_spec, route))),
        rhs=form.rhs,
        valid_s=valid_s,
        description=description,
    )


def _all_s_identity(
    case: AlphabetCase, identity_id: str, description: str, route: Route = Route.AUTO
) -> Identity:
    """The case at its one alphabet valid for every s > 1, where num and den
    both vanish: k - l = 1 - slope and k + l = -const."""
    form = _CASES[case]
    k = (1.0 - form.slope - form.const) / 2.0
    l = k - (1.0 - form.slope)
    return _alphabet_identity(form, k, l, None, identity_id, description, route)


def mint_identity(sol: AlphabetSolution) -> Identity:
    """Turn a solved alphabet into a verifiable identity.

    Case 'zero' states the pure ratio between the q and r series; the other
    cases state the (2^s+1, 2^s-1) combination against 2^s zeta(s) or
    2^s eta(s).  Minting requires s > 1.
    """
    if not sol.s > 1.0:
        raise DomainError(
            f"minted identities need s > 1; this solution has s={sol.s:g}"
        )
    form = _CASES[sol.case]
    # lam - target vanishes for every s exactly where num and den both do
    all_s = _balance(form, sol.k, sol.l) == (0.0, 0.0)
    return _alphabet_identity(
        form, sol.k, sol.l, None if all_s else sol.s,
        f"minted-{sol.case.value}[{sol.k:.10g},{sol.l:.10g}]",
        f"{form.statement} with k={sol.k:.12g}, l={sol.l:.12g}",
    )
