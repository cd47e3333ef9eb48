"""Numeric helpers: stable log-space sums and big-rational values.

Exact sequence values can carry integer numerators/denominators with
hundreds of thousands of bits, so this module avoids gcd normalization on
the hot path.  ``ExactValue`` keeps raw (num, den) pairs; its float and
log come from the 64 leading bits of each operand (``_split``).  The
floats decide a comparison only where ``certified_sign`` proves them
right; all others escalate to exact cross-multiplication, so results are
exact in all cases.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

LOG2 = math.log(2.0)

# bit size up to which canonical "p/q" serialization is attempted; beyond
# it the gcd/str cost dominates (and CPython caps int - str conversion
# around 4300 digits), so only the float rendering is emitted
CANONICAL_RATIONAL_BITS = 1 << 13


def logsumexp(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over finite/-inf terms, stable around the maximum."""
    ts = [t for t in terms if t != float("-inf")]
    if not ts:
        return float("-inf")
    m = max(ts)
    if m == float("inf"):
        return m
    return m + math.log(sum(math.exp(t - m) for t in ts))


def _split(num: int, den: int) -> tuple[float, int]:
    """(m, e) with num/den = m * 2^e, for positive ints of any size.

    Each operand keeps its own 64 leading bits (relative error < 2^-63
    each) and the division rounds once, so m is within 2^-53 + 2^-62.
    """
    sn = max(num.bit_length() - 64, 0)
    sd = max(den.bit_length() - 64, 0)
    return (num >> sn) / (den >> sd), sn - sd


def ratio_to_float(num: int, den: int) -> float:
    """num/den for ints of any size, within 2^-53 + 2^-62 relative of the
    true value unless the result is subnormal; raises OverflowError beyond
    the float range."""
    if den == 0:
        raise ZeroDivisionError("ratio_to_float: zero denominator")
    if num == 0:
        return 0.0
    sign = -1.0 if (num < 0) != (den < 0) else 1.0
    m, e = _split(abs(num), abs(den))
    return sign * math.ldexp(m, e)


# relative error bound of one rounding step: a correctly rounded float
# operation (2^-53) or one ratio_to_float (2^-53 + 2^-62)
ROUNDING = 2.0**-53 + 2.0**-62


def certified_sign(x: float, x_roundings: int, y: float, y_roundings: int) -> int:
    """Sign of X - Y from positive floats x and y that X and Y reach through
    at most ``x_roundings`` and ``y_roundings`` steps of relative error
    ROUNDING, all on normal floats.  With k steps in total, |x - X| + |y - Y|
    <= k ROUNDING max(x, y) up to O((k ROUNDING)^2); the sign is returned
    only when both floats are normal and their relative gap exceeds twice
    that, which also absorbs the rounding of the gap.  0 means "escalate to
    exact"; an infinite or nan operand makes the gap nan, which gives 0.
    """
    if min(x, y) < sys.float_info.min:
        return 0
    if abs(x - y) / max(x, y) > 2.0 * (x_roundings + y_roundings) * ROUNDING:
        return 1 if x > y else -1
    return 0


def float_or_inf(v) -> float:
    """float(v) for a float, int, Fraction or ExactValue; inf beyond the
    float range, where certified_sign escalates."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def tree_sum_fractions(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
    """Sum of nums[i]/dens[i] as one unnormalized (num, den) pair.

    Pairwise merging keeps intermediate operands balanced, which is far
    cheaper than left-to-right accumulation for many big-int terms.
    """
    nums = list(nums)
    dens = list(dens)
    if not nums:
        return 0, 1
    while len(nums) > 1:
        nn, dd = [], []
        for i in range(0, len(nums) - 1, 2):
            nn.append(nums[i] * dens[i + 1] + nums[i + 1] * dens[i])
            dd.append(dens[i] * dens[i + 1])
        if len(nums) % 2:
            nn.append(nums[-1])
            dd.append(dens[-1])
        nums, dens = nn, dd
    return nums[0], dens[0]


class ExactValue:
    """An exact rational kept unnormalized; comparisons are exact."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("ExactValue with zero denominator")
        if den < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        return ratio_to_float(self.num, self.den)

    def log(self) -> float:
        if self.num <= 0:
            raise ValueError("log of a non-positive ExactValue")
        m, e = _split(self.num, self.den)
        return math.log(m) + e * LOG2

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return ExactValue(self.num * other.numerator, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if isinstance(other, ExactValue):
            onum, oden = other.num, other.den
        elif isinstance(other, (int, Fraction)):
            onum, oden = other.numerator, other.denominator
        else:
            raise TypeError(f"cannot compare ExactValue with {type(other)!r}")
        sign = certified_sign(float_or_inf(self), 1, float_or_inf(other), 1)
        if sign:
            return sign
        d = self.num * oden - onum * self.den
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (ExactValue, int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __hash__(self):
        return hash(self.as_fraction())

    def canonical_str(self) -> str | None:
        """"p/q" in lowest terms, or None when the value is too large."""
        if (
            self.den.bit_length() > CANONICAL_RATIONAL_BITS
            or abs(self.num).bit_length() > CANONICAL_RATIONAL_BITS
        ):
            return None
        f = self.as_fraction()
        return f"{f.numerator}/{f.denominator}"

    def __repr__(self):
        return f"ExactValue({float(self):.6g})"
