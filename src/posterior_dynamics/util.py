"""Numeric helpers: stable log-space sums and big-rational values.

Exact sequence values can carry integer numerators/denominators with
hundreds of thousands of bits, so this module avoids gcd normalization on
the hot path.  ``ExactValue`` keeps raw (num, den) pairs; its float and log
come from the correctly rounded quotient, so they depend on the value
alone.  A ``DeferredExactValue`` carries only those, certified on an
enclosure of the quotient (``certified_quotient``), and builds the exact
pair on first use.  The floats decide a comparison only where
``certified_sign`` proves them right; all others escalate to exact
cross-multiplication, so results are exact in all cases.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Iterable, Sequence

LOG2 = math.log(2.0)
_INF = math.inf
_NEG_INF = -math.inf
_exp = math.exp
_log = math.log
_MIN_NORMAL = sys.float_info.min

# bit size up to which canonical "p/q" serialization is attempted; beyond
# it the gcd/str cost dominates (and CPython caps int - str conversion
# around 4300 digits), so only the float rendering is emitted
CANONICAL_RATIONAL_BITS = 1 << 13

# bits of the fixed-point sum that encloses a deferred quotient: m floored
# quotients leave it under m units over at least 2^(ENCLOSURE_BITS - 1), so
# 2^-149 wide relative at m = 1000, straddling a rounding boundary rarely
ENCLOSURE_BITS = 160


def logsumexp(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over finite/-inf terms, stable around the maximum.
    The -inf terms are dropped first, in a copy made only where one is present.
    The exponentials are added in order from 0.0, as the builtin ``sum`` adds
    floats up to Python 3.11 (3.12 compensates), and faster than it on a list."""
    ts = terms if type(terms) is list else list(terms)
    if _NEG_INF in ts:
        ts = [t for t in ts if t != _NEG_INF]
    if not ts:
        return _NEG_INF
    m = max(ts)
    if m == _INF:
        return m
    total = 0.0
    for t in ts:
        total += _exp(t - m)
    return m + _log(total)


def ratio_to_float(num: int, den: int) -> float:
    """num/den correctly rounded, for ints of any size (Python's int true
    division); 0.0, never -0.0, for a zero numerator; raises OverflowError
    beyond the float range."""
    if den == 0:
        raise ZeroDivisionError("ratio_to_float: zero denominator")
    return num / den if num else 0.0


def _quotient(num: int, den: int) -> tuple[float, int]:
    """(m, e), m in [1/2, 1), with m 2^e the positive num/den correctly
    rounded to 53 bits under an unbounded exponent: int true division
    rounds the shifted quotient once, and frexp renormalizes it exactly."""
    shift = den.bit_length() - num.bit_length()
    q = (num << shift) / den if shift >= 0 else num / (den << -shift)
    m, e = math.frexp(q)
    return m, e - shift


def _float_log(num: int, den: int) -> tuple[float, float]:
    """(float, log) of the positive num/den: the correctly rounded quotient,
    inf beyond the float range, and ``math.log`` of it where it is normal;
    elsewhere log m + e ln 2 from ``_quotient``."""
    try:
        f = num / den
    except OverflowError:
        f = _INF
    if _MIN_NORMAL <= f < _INF:
        return f, _log(f)
    m, e = _quotient(num, den)
    return f, _log(m) + e * LOG2


# relative error bound of one correctly rounded float operation, such as
# one ratio_to_float of a normal result
ROUNDING = 2.0**-53


def certified_sign(x: float, y: float) -> int:
    """Sign of X - Y from positive normal floats x and y, each within one
    ROUNDING relative of X and Y: returned only when the relative gap
    exceeds twice their summed error, which absorbs the rounding of the gap
    too.  0 means "escalate to exact"; so does a subnormal, infinite or nan
    operand."""
    if min(x, y) < sys.float_info.min:
        return 0
    if abs(x - y) / max(x, y) > 4.0 * ROUNDING:
        return 1 if x > y else -1
    return 0


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


def fixed_point_sum(nums: Sequence[int], dens: Sequence[int], shift: int) -> tuple[int, int]:
    """(S, shift) for nums >= 0 and dens > 0, where S is the sum of the
    quotients floor(nums[i] 2^shift / dens[i]), so 2^shift sum(nums[i] / dens[i])
    lies in [S, S + len(nums)); a negative shift floors nums[i] 2^shift first.

    A shift that leaves S fewer than ENCLOSURE_BITS bits is replaced by one
    read off the bit lengths, which gives the largest quotient that many (S
    = 0 only where every num is), so a caller can pass the last shift back.
    """

    def floored(shift: int) -> int:
        shifted = [n << shift for n in nums] if shift >= 0 else [n >> -shift for n in nums]
        return sum(map(operator.floordiv, shifted, dens))

    total = floored(shift)
    if total.bit_length() < ENCLOSURE_BITS:
        gap = max((n.bit_length() - d.bit_length() for n, d in zip(nums, dens) if n), default=None)
        if gap is None:
            return 0, shift
        shift = ENCLOSURE_BITS + 1 - gap
        total = floored(shift)
    return total, shift


def certified_quotient(lo: int, hi: int, den: int, shift: int = 0) -> tuple[float, float] | None:
    """The (float, log) that ``ExactValue(x, den << shift)`` gives for every
    integer x in [lo, hi], 0 < lo <= hi, den > 0 (a negative shift scales x
    up), read off the ends: rounding is monotone, so where both round alike
    (the float, and below the normal range the 53-bit quotient too), every
    x between does.  None where they do not, where lo = 0, and on overflow."""
    if lo <= 0:
        return None
    if shift >= 0:
        den <<= shift
    else:
        lo, hi = lo << -shift, hi << -shift
    (f, log), (f_hi, _) = _float_log(lo, den), _float_log(hi, den)
    if f != f_hi or f == _INF or f < _MIN_NORMAL and _quotient(lo, den) != _quotient(hi, den):
        return None
    return f, log


class ExactValue:
    """An exact rational kept unnormalized; comparisons are exact, and
    each reads the pair only where the floats cannot decide it."""

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
        """Natural log, within ``log_error``; -inf at zero.  It is
        ``math.log(float(self))`` where that float is normal, and
        log m + e ln 2 from the correctly rounded 53-bit quotient m 2^e
        elsewhere, so it never underflows or overflows."""
        return self.float_log()[1]

    def float_log(self) -> tuple[float, float]:
        """``(f, self.log())`` from one division, where f is ``float(self)``
        or inf beyond the float range (where ``float`` raises)."""
        if self.num <= 0:
            if self.num == 0:
                return 0.0, -math.inf
            raise ValueError("log of a negative ExactValue")
        return _float_log(self.num, self.den)

    @staticmethod
    def log_error(log: float) -> float:
        """A bound on |x.log() - ln X| for each positive ExactValue x whose
        ``log()`` is ``log``, taking ``math.log`` within one ulp; u = 2^-53.
        Where f = float(x) is normal, f = X (1 + d), |d| <= u, so
        |ln f - ln X| <= 1.01 u, and math.log adds at most 2^-52 |log| (1 + u).
        Elsewhere m 2^e = X (1 + d), |d| <= u, m in [1/2, 1): d costs 1.01 u;
        log m lies in [-ln 2, 0), and math.log adds at most u; LOG2 is within
        u of ln 2 and e * LOG2 rounds once, 2.01 u |e ln 2| in all; the sum
        rounds by u |log|.  There log m and e ln 2 have the sign of log
        (|e| > 1000), so |e ln 2| <= |log| + ln 2, and the error is below
        (1.7 + 1.5 |log|) 2^-52.  The bound covers both cases."""
        return (2.0 + 1.5 * abs(log)) * 2.0**-52

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return ExactValue(self.num * other.numerator, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def compare(self, other) -> int:
        """sign(self - other), exact: from the floats where ``certified_sign``
        decides it, else from one cross-multiplication."""
        if not isinstance(other, (ExactValue, int, Fraction)):
            raise TypeError(f"cannot compare ExactValue with {type(other)!r}")
        try:
            sign = certified_sign(float(self), float(other))
        except OverflowError:  # beyond the float range: escalate
            sign = 0
        if sign:
            return sign
        if isinstance(other, ExactValue):
            onum, oden = other.num, other.den
        else:
            onum, oden = other.numerator, other.denominator
        d = self.num * oden - onum * self.den
        return (d > 0) - (d < 0)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, (ExactValue, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self):
        return hash(self.as_fraction())

    def canonical_str(self) -> str | None:
        """"p/q" in lowest terms, or None when the pair as its route stores
        it (lowest terms on the uniform and Beta routes, the atom route's
        unreduced sum) has a side wider than CANONICAL_RATIONAL_BITS."""
        if max(abs(self.num).bit_length(), self.den.bit_length()) > CANONICAL_RATIONAL_BITS:
            return None
        f = self.as_fraction()
        return f"{f.numerator}/{f.denominator}"

    def __repr__(self):
        return f"ExactValue({float(self):.6g})"


class DeferredExactValue(ExactValue):
    """A positive ExactValue that holds, instead of its (num, den) pair,
    the float and log the pair gives, certified by ``certified_quotient``;
    only a pair wider than CANONICAL_RATIONAL_BITS is deferred, so
    ``canonical_str`` is None.  The first read of ``num`` or ``den`` (an
    escalated comparison, ``as_fraction``, ``hash``, ``*``) calls
    ``build()`` for the pair and keeps it."""

    __slots__ = ("_build", "_pair", "_float", "_log")

    def __init__(self, build: Callable[[], tuple[int, int]], quotient: tuple[float, float]):
        self._build = build
        self._pair = None
        self._float, self._log = quotient

    def _exact(self) -> tuple[int, int]:
        if self._pair is None:
            self._pair = self._build()
            self._build = None
        return self._pair

    num = property(lambda self: self._exact()[0])
    den = property(lambda self: self._exact()[1])

    def __float__(self) -> float:
        return self._float

    def log(self) -> float:
        return self._log

    def float_log(self) -> tuple[float, float]:
        return self._float, self._log

    def canonical_str(self) -> None:
        return None
