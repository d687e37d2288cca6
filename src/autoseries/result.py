"""The routes a series value can take, and the evaluation result that names
the one it took; shared by the evaluator, the router and the zeta engine."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any


class Route(Enum):
    """A way to a value: asked for by ``identities.eval_series_spec`` and
    named by the ``EvalResult`` it gives.

    AUTO                a request only: the router picks one of the others
    NAIVE               direct bounded summation with an analytic tail bound
    FUNCTIONAL_EQUATION binomial functional-equation acceleration of f
    ODD_SPLIT           the odd-index split of f or g, A(s)/(1+q) or -A(s)/(1-q)
    DECOMPOSED          a sum of alphabets over t as alpha zeta(s) + beta f(s)
    EULER_MACLAURIN     a result only: the zeta engine (and values derived from it)
    """

    AUTO = "auto"
    NAIVE = "naive"
    FUNCTIONAL_EQUATION = "functional-equation"
    ODD_SPLIT = "odd-split"
    DECOMPOSED = "decomposed"
    EULER_MACLAURIN = "euler-maclaurin"


@dataclass(frozen=True)
class EvalResult:
    """A value with a rigorous absolute error bound.

    ``value`` is a float on the double-precision path and an mpmath ``mpf``
    when more working bits were requested.  ``abs_error_bound`` always
    satisfies |value - exact| <= abs_error_bound and, on success, is at most
    the tolerance that was requested.  ``method`` is the route that produced
    the value: a direct sum is NAIVE whichever route asked for it, and a
    linear form is the route that combined its leaves.
    """

    value: Any
    abs_error_bound: float
    terms_used: int
    method: Route

    def __post_init__(self) -> None:
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")
        if self.abs_error_bound < 0:
            raise ValueError("abs_error_bound must be non-negative")
        if self.method is Route.AUTO:
            raise ValueError("a result names the route that ran, never AUTO")
