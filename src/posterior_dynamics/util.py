"""Numeric helpers: stable log-space sums and big-rational values.

Exact sequence values can carry integer numerators/denominators with
hundreds of thousands of bits, so this module avoids gcd normalization on
the hot path.  ``ExactValue`` keeps raw (num, den) pairs and resolves
comparisons through a guarded float fast path: when two values differ by
more than 1e-9 relative, a 55-bit approximation (relative error < 1e-15)
already determines the sign; only near-ties fall back to exact
cross-multiplication.  Results are therefore exact in all cases.
"""

from __future__ import annotations

import math
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


def log_big_int(x: int) -> float:
    """log of a positive integer of arbitrary size."""
    if x <= 0:
        raise ValueError("log_big_int requires a positive integer")
    if x.bit_length() <= 900:
        return math.log(x)
    e = x.bit_length() - 60
    return math.log(x >> e) + e * LOG2


def ratio_to_float(num: int, den: int) -> float:
    """num/den with relative error below 1e-15, for ints of any size."""
    if den == 0:
        raise ZeroDivisionError("ratio_to_float: zero denominator")
    sign = 1
    if num < 0:
        sign, num = -1, -num
    if den < 0:
        sign, den = -sign, -den
    if num == 0:
        return 0.0
    shift = max(num.bit_length(), den.bit_length()) - 55
    if shift > 0:
        num >>= shift
        den >>= shift
        if den == 0:
            return sign * math.inf
    try:
        return sign * (num / den)
    except OverflowError:
        return sign * math.exp(log_big_int(num) - log_big_int(den))


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
        return log_big_int(self.num) - log_big_int(self.den)

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self.num * other.num, self.den * other.den)
        if isinstance(other, int):
            return ExactValue(self.num * other, self.den)
        if isinstance(other, Fraction):
            return ExactValue(self.num * other.numerator, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        if isinstance(other, ExactValue):
            onum, oden = other.num, other.den
        elif isinstance(other, int):
            onum, oden = other, 1
        elif isinstance(other, Fraction):
            onum, oden = other.numerator, other.denominator
        else:
            raise TypeError(f"cannot compare ExactValue with {type(other)!r}")
        f1 = ratio_to_float(self.num, self.den)
        f2 = ratio_to_float(onum, oden)
        gap = abs(f1 - f2)
        if gap > 1e-9 * max(abs(f1), abs(f2)) and math.isfinite(gap):
            return 1 if f1 > f2 else -1
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


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering used in CSV emission."""
    return format(x, ".17g")


def rational_log(value) -> float:
    """log of a positive ExactValue, Fraction or int."""
    if not isinstance(value, ExactValue):
        f = Fraction(value)
        value = ExactValue(f.numerator, f.denominator)
    return value.log()
