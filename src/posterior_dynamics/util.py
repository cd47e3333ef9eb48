"""Numeric helpers: stable log-space sums and big-rational values.

Exact sequence values can carry integer numerators/denominators with
hundreds of thousands of bits, so this module avoids gcd normalization on
the hot path.  ``ExactValue`` keeps raw (num, den) pairs; its float and
log come from the bit length and 64 leading bits of each operand
(``_split``).  A ``DeferredExactValue`` carries only those leading bits,
certified from ``ENCLOSURE_BITS``-bit enclosures of the pair
(``tree_sum_leading_bits``), and builds the exact pair on first use.  The
floats decide a comparison only where ``certified_sign`` proves them
right; all others escalate to exact cross-multiplication, so results are
exact in all cases.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Sequence

LOG2 = math.log(2.0)
_INF = math.inf
_NEG_INF = -math.inf
_exp = math.exp
_log = math.log

# bit size up to which canonical "p/q" serialization is attempted; beyond
# it the gcd/str cost dominates (and CPython caps int - str conversion
# around 4300 digits), so only the float rendering is emitted
CANONICAL_RATIONAL_BITS = 1 << 13

# working precision of the enclosures that certify leading bits: each
# truncation or inexact quotient of an m-term sum costs at most
# 2^-(ENCLOSURE_BITS - 1) relative, so about 150 bits stay certified at m = 500
ENCLOSURE_BITS = 160


def logsumexp(terms: Iterable[float]) -> float:
    """log(sum(exp(t))) over finite/-inf terms, stable around the maximum."""
    ts = [t for t in terms if t != _NEG_INF]
    if not ts:
        return _NEG_INF
    m = max(ts)
    if m == _INF:
        return m
    return m + _log(sum([_exp(t - m) for t in ts]))


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


def certified_top_bits(lo: int, hi: int, exp: int) -> tuple[int, int] | None:
    """(bits, top) with X.bit_length() == bits and X >> (bits - 64) == top
    for every integer X in [lo·2^exp, hi·2^exp], 0 < lo <= hi.

    None where the ends disagree: they straddle a power of two or a 64-bit
    truncation boundary, or X has 64 bits or fewer (then ``_split`` keeps
    all of X and no enclosure narrower than X itself can name it).
    """
    width = lo.bit_length()
    bits = width + exp
    if lo <= 0 or bits <= 64 or hi.bit_length() != width:
        return None
    top = (lo << 64) >> width
    return (bits, top) if (hi << 64) >> width == top else None


def tree_sum_leading_bits(
    nums: Sequence[int], dens: Sequence[int], num_scale: int, den_scale: int
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """``certified_top_bits`` of num_scale·N and of den_scale·D, where
    (N, D) = tree_sum_fractions(nums, dens), nums >= 0 and dens, scales > 0,
    read off enclosures of ENCLOSURE_BITS bits without building (N, D).

    D is the product of dens whatever the merge order.  With P =
    ENCLOSURE_BITS, a running product lo·2^exp floored to P bits at each of
    its ``steps`` truncations keeps lo >= 2^(P-1) there, so each loses less
    than 2^-(P-1) relative, and lo·2^exp <= D <= lo·2^exp (1 + 2^-(P-1))^steps
    <= hi·2^exp with hi = lo + ceil(lo·steps / 2^(P-2)), as steps < 2^(P-1).
    N/D is the sum of nums[i]/dens[i]; with the fixed-point quotients
    floor(nums[i]·2^s / dens[i]), s chosen so the largest has at least
    ENCLOSURE_BITS bits, the sum lies within one unit per inexact quotient
    above their total.  None where either side is undecided, or where N = 0.
    """
    gap = max((n.bit_length() - d.bit_length() for n, d in zip(nums, dens) if n), default=None)
    if gap is None:
        return None
    s = ENCLOSURE_BITS + 1 - gap
    sum_lo = sum_hi = 0
    for n, d in zip(nums, dens):
        q, r = divmod(n << s, d) if s >= 0 else divmod(n, d << -s)
        sum_lo += q
        sum_hi += q + (r != 0)
    lo, exp, steps = 1, 0, 0
    for d in dens:
        lo *= d
        t = lo.bit_length() - ENCLOSURE_BITS
        if t > 0:
            lo, exp, steps = lo >> t, exp + t, steps + 1
    hi = lo + -(-lo * steps >> (ENCLOSURE_BITS - 2))
    num = certified_top_bits(lo * sum_lo * num_scale, hi * sum_hi * num_scale, exp - s)
    den = certified_top_bits(lo * den_scale, hi * den_scale, exp)
    return None if num is None or den is None else (num, den)


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
        """Natural log, from the leading bits, within ``log_error``; -inf at zero."""
        if self.num <= 0:
            if self.num == 0:
                return -math.inf
            raise ValueError("log of a negative ExactValue")
        m, e = _split(self.num, self.den)
        return math.log(m) + e * LOG2

    @staticmethod
    def log_error(log: float) -> float:
        """A bound on |x.log() - ln X| for each positive ExactValue x whose
        ``log()`` is ``log``.  ``_split`` gives m 2^e = X (1 + d), |d| <=
        ROUNDING; math.log adds at most one ulp, 2^-52 |ln m|; e * LOG2
        carries the error of LOG2 and one rounding, below 2^-52 |e ln 2| in
        all; the sum rounds by 2^-53 |log|.  As m lies in (2^-64, 2^64) and
        ln m has the sign of e unless |ln m| < ln 2, |ln m| + |e ln 2| <=
        |log| + 2 ln 2: the error is below (1.9 + 1.5 |log|) 2^-52, and the
        constant is doubled for margin."""
        return (4.0 + 1.5 * abs(log)) * 2.0**-52

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return ExactValue(self.num * other.numerator, self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
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
        if max(self._bit_lengths()) > CANONICAL_RATIONAL_BITS:
            return None
        f = self.as_fraction()
        return f"{f.numerator}/{f.denominator}"

    def _bit_lengths(self) -> tuple[int, int]:
        return abs(self.num).bit_length(), self.den.bit_length()

    def __repr__(self):
        return f"ExactValue({float(self):.6g})"


class DeferredExactValue(ExactValue):
    """A positive ExactValue that holds, instead of its (num, den) pair,
    the bit length and 64 leading bits of each side, certified by
    ``tree_sum_leading_bits``.

    float, log and canonical_str read only those and give exactly what the
    pair gives.  The first read of ``num`` or ``den`` (an escalated
    comparison, ``as_fraction``, ``hash``, ``*``) calls ``build()`` for the
    pair and keeps it.
    """

    __slots__ = ("_build", "_pair", "_num_lead", "_den_lead")

    def __init__(
        self,
        build: Callable[[], tuple[int, int]],
        num_lead: tuple[int, int],
        den_lead: tuple[int, int],
    ):
        self._build = build
        self._pair = None
        self._num_lead = num_lead
        self._den_lead = den_lead

    def _exact(self) -> tuple[int, int]:
        if self._pair is None:
            self._pair = self._build()
            self._build = None
        return self._pair

    num = property(lambda self: self._exact()[0])
    den = property(lambda self: self._exact()[1])

    def _leading(self) -> tuple[float, int]:
        """``_split(num, den)``: each side keeps its 64 leading bits."""
        (num_bits, num_top), (den_bits, den_top) = self._num_lead, self._den_lead
        return num_top / den_top, num_bits - den_bits

    def __float__(self) -> float:
        return math.ldexp(*self._leading())

    def log(self) -> float:
        m, e = self._leading()
        return math.log(m) + e * LOG2

    def _bit_lengths(self) -> tuple[int, int]:
        return self._num_lead[0], self._den_lead[0]
