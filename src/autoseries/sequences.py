"""Coefficient sequences driven by the binary digit-parity map.

Everything here is an exact, pure function of the index n: the 0/1
digit-parity sequence t_n, its +/-1 form e_n = (-1)^t_n, the difference
sequence d_n = t_n - t_{n-1}, the period-doubling sequence, base-b digit
sums, and sums of alphabets a + (b - a) t_{n-r}, r = 0 or 1, as e_{n-1} =
{1, -1} at r = 1 or d_n = {0, 1} at 0 plus {0, -1} at 1 (Allouche & Shallit, 2003).

Scalar generators are O(log n) per term (bit counting, no tables), so any
index can be queried independently; they are the references the block
generators and the streams are tested against.  Block generators produce
numpy arrays for the chunked summation kernels.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .errors import DomainError

# ---------------------------------------------------------------------------
# scalar generators
# ---------------------------------------------------------------------------


def thue_morse(n: int) -> int:
    """Parity of the number of 1-bits in the binary expansion of n.

    The sequence starts 0, 1, 1, 0, 1, 0, 0, 1, ... and satisfies
    t_{2n} = t_n and t_{2n+1} = 1 - t_n.
    """
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    return int(n).bit_count() & 1


def pm_thue_morse(n: int) -> int:
    """The +/-1 form (-1)^t_n, i.e. 1 - 2 t_n.

    Satisfies e_{2n} = e_n and e_{2n+1} = -e_n.
    """
    return 1 - 2 * thue_morse(n)


def delta(n: int) -> int:
    """Difference t_n - t_{n-1}, in {-1, 0, 1}.  Defined for n >= 1."""
    if n < 1:
        raise DomainError(f"difference sequence needs n >= 1, got {n}")
    return thue_morse(n) - thue_morse(n - 1)


def period_doubling(n: int) -> int:
    """Period-doubling bit: p_{2n} = 0, p_{4n+1} = 1, p_{4n+3} = p_n.

    The value at 0 is 0 (forced by the even rule at n = 0).  Equivalently
    this is the parity of the 2-adic valuation of n + 1, which is what the
    block generator uses.
    """
    if n < 0:
        raise DomainError(f"index must be >= 0, got {n}")
    while True:
        if n % 2 == 0:
            return 0
        if n % 4 == 1:
            return 1
        n = (n - 3) // 4


def digit_sum(n: int, base: int) -> int:
    """Sum of the base-b digits of n, for n >= 1 and b >= 2."""
    if base < 2:
        raise DomainError(f"digit-sum base must be >= 2, got {base}")
    if n < 1:
        raise DomainError(f"digit sum needs n >= 1, got {n}")
    total = 0
    while n:
        n, r = divmod(n, base)
        total += r
    return total


def affine_seq(n: int, low: float, high: float) -> float:
    """Two-letter alphabet over t_n: ``low`` where t_n = 0, ``high`` where t_n = 1."""
    return high if thue_morse(n) else low


# ---------------------------------------------------------------------------
# block generators (uint64 index arithmetic)
# ---------------------------------------------------------------------------


def _indices(lo: int, hi: int) -> np.ndarray:
    if lo < 0 or hi < lo:
        raise DomainError(f"bad index range [{lo}, {hi})")
    return np.arange(lo, hi, dtype=np.uint64)


def _parity_block(values: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(values) & np.uint64(1)).astype(np.int64)


def thue_morse_block(lo: int, hi: int) -> np.ndarray:
    """t_n for n in [lo, hi) as an int64 array."""
    return _parity_block(_indices(lo, hi))


def pm_thue_morse_block(lo: int, hi: int) -> np.ndarray:
    """e_n for n in [lo, hi) as an int64 array."""
    return 1 - 2 * thue_morse_block(lo, hi)


def period_doubling_block(lo: int, hi: int) -> np.ndarray:
    """Period-doubling bits via the parity of the 2-adic valuation of n + 1."""
    m = _indices(lo, hi) + np.uint64(1)
    # trailing-zero count: popcount((m & -m) - 1); uint64 wraparound gives -m
    low_bit = m & (np.uint64(0) - m)
    return _parity_block(low_bit - np.uint64(1))


#: Largest low-digit table ``digit_sum_block`` keeps per base, in entries.
_DIGIT_TABLE_LIMIT = 1 << 16


@cache
def _low_digit_sums(base: int) -> np.ndarray:
    """s_b(L) for 0 <= L < q, q = b^k the largest power of b <= 2^16
    (k >= 1, so 3 <= b <= 2^16), in the narrowest unsigned type that holds
    k (b - 1): uint8 up to base 128.  Built on first use per base."""
    q, k = base, 1
    while q * base <= _DIGIT_TABLE_LIMIT:
        q, k = q * base, k + 1
    dtype = np.min_scalar_type(k * (base - 1))
    digits = np.arange(base, dtype=dtype)
    table = digits
    for _ in range(k - 1):
        # s_b(H b + d) = s_b(H) + d
        table = (table[:, None] + digits).ravel()
    return table


def digit_sum_block(lo: int, hi: int, base: int) -> np.ndarray:
    """s_b(n) for n in [lo, hi), lo >= 1.

    Base 2 counts bits.  Any other base splits the range at multiples of
    q = b^k (``_low_digit_sums``; q = b past 2^16), where s_b(H q + L) =
    s_b(H) + s_b(L): each piece is a slice of the table of s_b(L), L < q,
    plus one scalar ``digit_sum(H)``."""
    if base < 2:
        raise DomainError(f"digit-sum base must be >= 2, got {base}")
    if lo < 1:
        raise DomainError(f"digit sum needs n >= 1, got range start {lo}")
    if base == 2:
        return np.bitwise_count(_indices(lo, hi)).astype(np.int64)
    if hi < lo:
        raise DomainError(f"bad index range [{lo}, {hi})")
    table = _low_digit_sums(base) if base <= _DIGIT_TABLE_LIMIT else None
    q = base if table is None else len(table)
    out = np.empty(hi - lo, dtype=np.int64)
    n = lo
    while n < hi:
        high, low = divmod(n, q)
        end = min(hi, n + q - low)
        # below q = b there is one digit, s_b(L) = L
        piece = out[n - lo : end - lo]
        piece[:] = np.arange(low, low + end - n) if table is None else table[low : low + end - n]
        if high:
            piece += digit_sum(high, base)
        n = end
    return out


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------


class SequenceKind(Enum):
    PERIOD_DOUBLING = "period-doubling"
    DIGIT_SUM = "digit-sum"
    AFFINE = "affine"


#: The streams of alphabets that have a name, by their parts.
_NAMES = {((0.0, 1.0, 0),): "t", ((1.0, -1.0, 0),): "pm", ((0.0, 1.0, 0), (0.0, -1.0, 1)): "delta"}


@dataclass(frozen=True)
class CoefficientSequence:
    """An exact stream n -> c_n with a uniform majorant |c_n| <= C(n).

    ``base`` is only meaningful for digit sums; ``parts`` only for sums of
    alphabets: a part (low, high, shift) adds ``low`` where t_{n-shift} is 0
    and ``high`` where it is 1.  The majorant feeds the digit sums' tail
    bounds and every rounding budget: it is 1 for period-doubling, the
    largest |sum of one letter per part| for alphabets, and (b-1)
    (floor(log_b n) + 1) for digit sums; the other streams' tails use
    ``discrepancy``.
    """

    kind: SequenceKind
    base: int = 0
    parts: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind is SequenceKind.DIGIT_SUM and self.base < 2:
            raise DomainError(f"digit-sum base must be >= 2, got {self.base}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def thue_morse(cls) -> "CoefficientSequence":
        return cls.affine(0.0, 1.0)

    @classmethod
    def plus_minus(cls) -> "CoefficientSequence":
        return cls.affine(1.0, -1.0)

    @classmethod
    def delta(cls) -> "CoefficientSequence":
        return cls.alphabets((0.0, 1.0, 0), (0.0, -1.0, 1))

    @classmethod
    def period_doubling(cls) -> "CoefficientSequence":
        return cls(SequenceKind.PERIOD_DOUBLING)

    @classmethod
    def digit_sum(cls, base: int) -> "CoefficientSequence":
        return cls(SequenceKind.DIGIT_SUM, base=base)

    @classmethod
    def affine(cls, low: float, high: float, shift: int = 0) -> "CoefficientSequence":
        """The alphabet {low, high} over t_{n-shift}."""
        return cls.alphabets((low, high, shift))

    @classmethod
    def alphabets(cls, *parts: tuple[float, float, int]) -> "CoefficientSequence":
        """The sum of one or more alphabets (low, high, shift), shift 0 or 1;
        a subnormal letter is refused, as its mean and discrepancy underflow."""
        if not parts or any(shift not in (0, 1) for _, _, shift in parts):
            raise DomainError(f"alphabets need shifts 0 or 1, got parts {parts!r}")
        parts = tuple((float(low), float(high), int(shift)) for low, high, shift in parts)
        for letter in (x for low, high, _ in parts for x in (low, high)):
            if 0.0 < abs(letter) < sys.float_info.min:
                raise DomainError(
                    f"alphabet letter {letter!r} is subnormal (0 < |x| < 2^-1022); "
                    "its sums underflow"
                )
        return cls(SequenceKind.AFFINE, parts=parts)

    # -- stream API ---------------------------------------------------------

    @property
    def min_index(self) -> int:
        """Smallest index at which the stream is defined."""
        shifts = [shift for _, _, shift in self.parts]
        return 1 if self.kind is SequenceKind.DIGIT_SUM else max(shifts, default=0)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """c_n for n in [lo, hi) as a float64 array."""
        m = self.min_index
        if lo < m:
            raise DomainError(f"{self.label()} sequence needs n >= {m}, got {lo}")
        k = self.kind
        if k is SequenceKind.PERIOD_DOUBLING:
            return period_doubling_block(lo, hi).astype(np.float64)
        if k is SequenceKind.DIGIT_SUM:
            return digit_sum_block(lo, hi, self.base).astype(np.float64)
        # t_j for j in [lo - m, hi); a part at shift r reads j = n - r.  The
        # letters themselves: low + (high - low) t need not round to high
        bits = np.bitwise_count(_indices(lo - m, hi)) & np.uint8(1)
        out = None
        for low, high, shift in self.parts:
            c = np.where(bits[m - shift : len(bits) - shift], high, low)
            out = c if out is None else out + c
        return out

    # -- majorant ------------------------------------------------------------

    @cached_property
    def bound_constant(self) -> float | None:
        """Constant C with |c_n| <= C, or None when the majorant grows (digit sums)."""
        if self.kind is SequenceKind.AFFINE:
            # summed in the block's order, so C is what the block can hold
            return max(abs(sum(c)) for c in itertools.product(*(p[:2] for p in self.parts)))
        if self.kind is SequenceKind.DIGIT_SUM:
            return None
        return 1.0

    @cached_property
    def discrepancy(self) -> tuple[float | Fraction, float, float] | None:
        """Mean mu, bound B and growth g with |R(M)| <= B + g log2 M for
        every M >= 1, R a partial sum of the c_n - mu from ``min_index`` on;
        or None for digit sums, which keep the majorant.

        t_{2k} + t_{2k+1} = 1, so T(M) = sum_{j<M} (t_j - 1/2) is 0 or
        +/-1/2, and an alphabet {a, b} over t_{n-r} is (a+b)/2 + (b-a)
        (t_{n-r} - 1/2): mu = (a+b)/2 and R(M) = (b-a) T(M - r), B = |b-a|/2,
        which is (1/2, 1/2) for t_n and (0, 1) for e_n.  A sum of alphabets
        adds its parts' mu, R and B: mu = 0, B = 1 for d_n.  These bounded
        streams have g = 0.  (The rounding of mu and B for an alphabet stays
        within the evaluator's rounding budget.)

        Period-doubling, c_n = [v_2(n+1) odd], has mu = 1/3 (kept exact, as
        a Fraction), B = 1 and g = 1/4, with R(M) = D(M) = sum_{n<M} (c_n -
        mu).  Proof: #{1 <= m <= M : v_2(m) = j}
        = floor(M/2^j) - floor(M/2^(j+1)), so sum_{n<M} c_n = sum_{j>=1}
        (-1)^(j+1) floor(M/2^j); with sum_{j>=1} (-1)^(j+1) 2^-j = 1/3,

            D(M) = -sum_{j>=1} (-1)^(j+1) {M/2^j}.

        Let r_j = M mod 2^j and b_j bit j of M, so r_{j+1} = r_j + b_j 2^j.
        Pairing each odd j with j + 1 gives {M/2^j} - {M/2^(j+1)} = r_j
        2^-(j+1) - b_j/2, in (-1/2, 1/2).  With L = bit_length(M): the
        floor(L/2) pairs with j < L lie in (-1/2, 1/2) each; for j >= L,
        r_j = M and b_j = 0, so those pairs are positive and sum to at
        most (4/3) M 2^-(L+1) < 2/3.  Hence |D(M)| < L/4 + 2/3 <= 1 +
        (log2 M)/4, as L <= log2 M + 1.  (Over M <= 2^k the largest |D(M)|
        is ceil(k/2)/3 for 1 <= k <= 20, so the log2 growth is real.)
        """
        k = self.kind
        if k is SequenceKind.AFFINE:
            return (sum((low + high) / 2 for low, high, _ in self.parts),
                    sum(abs(high - low) / 2 for low, high, _ in self.parts), 0.0)
        if k is SequenceKind.PERIOD_DOUBLING:
            return Fraction(1, 3), 1.0, 0.25
        return None

    def value_bound(self, n: int) -> float:
        """Majorant C(n) with |c_m| <= C(m) for all m, nondecreasing in n."""
        c = self.bound_constant
        if c is not None:
            return c
        return (self.base - 1) * (math.floor(math.log(n, self.base)) + 1)

    def label(self) -> str:
        k = self.kind
        if k is SequenceKind.DIGIT_SUM:
            return f"digit-sum(base={self.base})"
        if k is SequenceKind.AFFINE:
            return _NAMES.get(self.parts) or "+".join(
                _NAMES.get(((low, high, 0),), f"affine({low:g},{high:g})") + "/shift+1" * shift
                for low, high, shift in self.parts
            )
        return k.value
