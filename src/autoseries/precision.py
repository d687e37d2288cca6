"""Working-precision configuration for all numerical kernels.

The default arithmetic is IEEE double (53 mantissa bits) with compensated
summation in every partial-sum loop, which keeps accumulation error at the
few-ulp level independent of the number of terms.  Requesting more than 53
bits routes scalar work through mpmath at the stated mantissa size, and a
naive sum splits: its first terms, the head, go through a fixed-point
kernel at the working width plus guard bits, and the rest, whose float64
rounding budget fits 1/1024 of eps, through the same float64 kernel as
the double path (``evaluator._naive_head``).  So the working width sets
how finely the head is summed, and the eps how long the head is.  Every
reported error bound includes a rounding budget computed from the
precision actually used on each part, so bounds stay honest on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath.ctx_mp import MPContext

from .errors import DomainError

#: Mantissa bits of IEEE binary64, the minimum and default working precision.
DOUBLE_BITS = 53

#: Guard bits required between the target tolerance and working precision.
#: Term evaluation (power, divide) rounds at working precision even though
#: the accumulator is compensated, so tolerances within 10 bits of the unit
#: roundoff cannot be certified.
GUARD_BITS = 10


@dataclass(frozen=True)
class Precision:
    """Mantissa width and target absolute tolerance for one computation.

    ``working_bits`` is the mantissa size used for arithmetic (>= 53).
    ``target_eps`` is the absolute error the caller wants certified.
    """

    working_bits: int = DOUBLE_BITS
    target_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.working_bits < DOUBLE_BITS:
            raise DomainError(
                f"working_bits must be >= {DOUBLE_BITS}, got {self.working_bits}"
            )
        if not (self.target_eps > 0.0) or not math.isfinite(self.target_eps):
            raise DomainError(f"target_eps must be positive, got {self.target_eps}")
        if self.target_eps < 2.0 ** (GUARD_BITS - self.working_bits):
            raise DomainError(
                f"target_eps={self.target_eps:g} leaves fewer than {GUARD_BITS} "
                f"guard bits at working precision {self.working_bits}; raise "
                f"working_bits to at least "
                f"{GUARD_BITS + math.ceil(-math.log2(self.target_eps))}"
            )

    @classmethod
    def for_eps(cls, eps: float) -> "Precision":
        """Pick a working precision adequate for absolute tolerance ``eps``.

        Doubles are kept whenever they leave comfortable headroom; tighter
        tolerances get 30 bits of mantissa beyond the tolerance itself.
        """
        eps = _check_eps(eps)
        if eps >= 1e-12:
            return cls(DOUBLE_BITS, eps)
        bits = max(DOUBLE_BITS, math.ceil(-math.log2(eps)) + 30)
        return cls(bits, eps)

    def with_eps(self, eps: float) -> "Precision":
        """Same mantissa width, different target tolerance."""
        return Precision(self.working_bits, eps)

    @property
    def is_double(self) -> bool:
        """True when the fast IEEE-double kernels apply."""
        return self.working_bits == DOUBLE_BITS

    @property
    def unit_roundoff(self) -> float:
        """Bound on one operation's relative error; never 0 (past 1,075 bits, 2^-1074)."""
        return 2.0 ** (1 - self.working_bits) or math.ulp(0.0)


@lru_cache(maxsize=128)
def _mp_context(bits: int) -> MPContext:
    """The one shared mpmath context with ``bits`` of mantissa.

    Building a context costs far more than most of the calls made in it,
    so every caller at a given width shares one.  Its precision is set
    here, once; no caller may change it afterwards.
    """
    ctx = MPContext()
    ctx.prec = bits
    return ctx


def _check_s(s: float) -> float:
    """``s`` as a float, refused unless it is a finite exponent above 1."""
    s = float(s)
    if not (s > 1.0) or not math.isfinite(s):
        raise DomainError(f"series exponent must satisfy s > 1, got {s}")
    return s


def _check_eps(eps: float) -> float:
    """``eps`` as a float, refused unless it is a finite positive tolerance."""
    eps = float(eps)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise DomainError(f"eps must be positive, got {eps}")
    return eps
