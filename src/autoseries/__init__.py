"""Dirichlet series with digit-parity (Thue-Morse) coefficients.

Certified evaluation of the series to user-specified absolute accuracy,
a registry of self-verifying closed-form identities, and a solver that
mints new alphabet identities from the balance function lam(s; k, l).
"""

__version__ = "0.1.0"

from .errors import AutoseriesError, DomainError, ResourceLimitError
from .precision import Precision
from .result import EvalResult, Method
from .sequences import (
    CoefficientSequence,
    SequenceKind,
    affine_seq,
    delta,
    digit_sum,
    period_doubling,
    pm_thue_morse,
    thue_morse,
)
from .special_functions import dirichlet_eta, hurwitz_zeta, riemann_zeta
from .evaluator import (
    COMPOSITE9_SERIES,
    DEFAULT_DEPTH,
    DEFAULT_MAX_TERMS,
    DELTA_SERIES,
    DenominatorForm,
    F_SERIES,
    G_SERIES,
    GAMMA_SERIES,
    IndexShift,
    ODD_PLUS_MINUS_SERIES,
    PHI_SERIES,
    SeriesSpec,
    ZETA_SERIES,
    depth_for,
    eval_functional_equation,
    eval_naive,
    eval_phi_gamma,
    partial_sum,
)
from .identities import (
    Eta,
    Expr,
    HurwitzZeta,
    Identity,
    IdentityKind,
    LhsTerm,
    Log,
    Mul,
    Num,
    Pi,
    PowInt,
    Ratio,
    Route,
    Sqrt,
    TwoPowerRatio,
    ValidityDomain,
    VerificationRecord,
    ZERO_RHS,
    Zeta,
    builtin_registry,
    eval_series_spec,
    get_identity,
    make_corollary2_identity,
    verify,
    verify_woods_robbins,
)
from .solver import (
    AlphabetCase,
    AlphabetSolution,
    case_target,
    lambda_fn,
    mint_identity,
    solve_case,
)
from .report import ReportDocument, RunConfig

__all__ = [name for name in dir() if not name.startswith("_")]
