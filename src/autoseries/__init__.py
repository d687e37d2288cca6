"""Dirichlet series with digit-parity (Thue-Morse) coefficients.

Certified evaluation of the series to user-specified absolute accuracy,
a registry of self-verifying closed-form identities, and a solver that
mints new alphabet identities from the balance function lam(s; k, l).
Everything else lives in the submodules.
"""

__version__ = "0.1.0"

from .errors import AutoseriesError, DomainError, ResourceLimitError
from .precision import Precision
from .result import EvalResult, Route
from .special_functions import riemann_zeta
from .evaluator import F_SERIES, eval_functional_equation, eval_naive
from .identities import (
    IdentityKind,
    builtin_registry,
    eval_series_spec,
    get_identity,
    verify,
)
from .solver import mint_identity, solve_case

__all__ = [
    "AutoseriesError",
    "DomainError",
    "EvalResult",
    "F_SERIES",
    "IdentityKind",
    "Precision",
    "ResourceLimitError",
    "Route",
    "builtin_registry",
    "eval_functional_equation",
    "eval_naive",
    "eval_series_spec",
    "get_identity",
    "mint_identity",
    "riemann_zeta",
    "solve_case",
    "verify",
]
