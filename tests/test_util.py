"""Big-rational conversion and the certified comparison rule, checked
against Fraction and brute-force oracles."""

import math
import random
import sys
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posterior_dynamics import diagnostics as dg
from posterior_dynamics.util import (
    ROUNDING,
    ExactValue,
    certified_sign,
    certified_top_bits,
    ratio_to_float,
    tree_sum_fractions,
    tree_sum_leading_bits,
)

# widest bit-length gap between numerator and denominator that still
# leaves the quotient near the float range
RANGE_BITS = 1100


@st.composite
def big_ints(draw, bits):
    """A positive int of ``bits`` bits: random bits, or a power of two
    nudged by a few units, where truncation and rounding are tightest."""
    if draw(st.booleans()):
        x = random.Random(draw(st.integers(0, 2**32))).getrandbits(bits)
        return x | 1 << (bits - 1)
    return max(1, (1 << (bits - 1)) + draw(st.integers(-64, 64)))


@st.composite
def ratios(draw, max_bits=10**5):
    """(num, den) with unbalanced bit lengths up to ``max_bits`` each."""
    num_bits = draw(st.integers(1, max_bits))
    den_bits = draw(st.integers(max(1, num_bits - RANGE_BITS), num_bits + RANGE_BITS))
    return draw(big_ints(num_bits)), draw(big_ints(den_bits))


class TestRegressions:
    def test_near_tie_at_small_value(self):
        a = ExactValue(3 * 2**1000 + 2**975 - 1, 2**1030)
        b = F(97189948, 34785637027044922)
        assert a.as_fraction() > b
        assert a > b

    def test_log_order_flipped_by_rounding_escalates(self):
        # y > x by one part in 2^300, yet y.log() < x.log() by one ulp
        num, den = 405517788424633805213829157878, 10642947104617309222109089999
        scale = 905279 << 200
        x, y = ExactValue(num, den), ExactValue(num * scale + 1, den * scale)
        assert y > x and y.log() < x.log()
        assert dg.detect_modes([x, y, x]) == [2]
        assert dg.logconcavity_scan([x, y, x]) == []

    def test_unbalanced_operands_keep_their_bits(self):
        want = 1.0654613332037199e-112
        assert abs(ratio_to_float(3**600, 7**400 * 2**200) - want) <= 2**-52 * want


class TestCertifiedSign:
    def test_decides_clear_gaps(self):
        assert certified_sign(2.0, 1.0) == 1
        assert certified_sign(1.0, 1.0 + 2**-40) == -1
        assert certified_sign(1.0, 1.0 + 8 * ROUNDING) == -1

    def test_escalates_within_the_bound(self):
        assert certified_sign(1.0, 1.0 + 2**-52) == 0
        assert certified_sign(1.0, 1.0 + 4 * ROUNDING) == 0

    def test_escalates_off_the_normal_range(self):
        tiny = sys.float_info.min / 4
        assert certified_sign(tiny, 1.0) == 0
        assert certified_sign(0.0, 1.0) == 0
        assert certified_sign(math.inf, 1.0) == 0
        assert certified_sign(math.nan, 1.0) == 0


class TestExactLog:
    @given(ratios(max_bits=2 * 10**5), st.integers(-4, 4))
    def test_within_log_error_of_mpmath(self, pair, nudge):
        num, den = pair
        # the ratio itself, and one within a few units of 1
        for n, d in ((num, den), (max(num + nudge, 1), num)):
            got = ExactValue(n, d).log()
            with mp.workdps(60):
                err = abs(mp.mpf(got) - (mp.log(n) - mp.log(d)))
            assert err <= ExactValue.log_error(got)


class TestRatioToFloat:
    @given(ratios())
    def test_within_bound_of_fraction(self, pair):
        num, den = pair
        exact = F(num, den)
        want = float(exact) if exact < F(sys.float_info.max) else math.inf
        if not sys.float_info.min <= want < math.inf:
            return  # subnormal or overflowing: no relative bound is claimed
        got = ratio_to_float(num, den)
        assert abs(F(got) - exact) <= F(ROUNDING) * exact
        assert abs(got - want) <= math.ulp(want)

    def test_signs_and_zero(self):
        assert ratio_to_float(0, -7) == 0.0
        assert ratio_to_float(-1, 4) == -0.25
        assert ratio_to_float(3, -4) == -0.75
        with pytest.raises(ZeroDivisionError):
            ratio_to_float(1, 0)


def _leading(x: int) -> tuple[int, int]:
    """(bit length, 64 leading bits) of x, as ``_split`` truncates it."""
    return x.bit_length(), x >> max(x.bit_length() - 64, 0)


class TestCertifiedTopBits:
    TOP = (1 << 63) | 0x5DEECE66D  # a 64-bit leading part

    def test_exact_enclosure_is_decided(self):
        for x, exp in ((self.TOP << 40 | 12345, 0), (self.TOP, 100), (self.TOP << 200, -150)):
            assert certified_top_bits(x, x, exp) == _leading(x << exp if exp >= 0 else x >> -exp)

    def test_narrow_enclosure_is_decided(self):
        x = self.TOP << 96 | 2**95
        assert certified_top_bits(x - 2**90, x + 2**90, 7) == _leading(x << 7)

    def test_declines_a_straddled_truncation_boundary(self):
        # X = TOP·2^36 exactly: one unit below, the leading bits are TOP - 1
        x = self.TOP << 36
        assert certified_top_bits(x - 1, x + 1, 0) is None
        assert certified_top_bits(x - 1, x, 0) is None
        assert certified_top_bits(x, x + 1, 0) == _leading(x)

    def test_declines_a_straddled_power_of_two(self):
        assert certified_top_bits(2**100 - 1, 2**100 + 1, 0) is None
        assert certified_top_bits(2**100 - 1, 2**100, 0) is None
        assert certified_top_bits(2**99, 2**100 - 1, 3) is None

    def test_declines_short_and_empty_values(self):
        assert certified_top_bits(2**63, 2**63, 0) is None  # 64 bits: _split keeps all
        assert certified_top_bits(0, 5, 100) is None

    def test_sum_on_a_boundary_is_declined(self):
        # 1/3 + 2/3 = 1 exactly, but each fixed-point quotient is inexact,
        # so the enclosure of N = 9·2^200 straddles its leading bits
        nums, dens = [2**100, 2**101], [3 << 100, 3 << 100]
        assert tree_sum_leading_bits(nums, dens, 1, 1) is None

    def test_sum_on_a_power_of_two_is_declined(self):
        # N = 2^300 exactly, over a mass with nonzero bits below its leading
        # 160: only a product rounded outward keeps N inside the enclosure
        assert tree_sum_leading_bits([2**300], [2**199 + 2**39 - 1], 1, 1) is None

    @given(st.lists(st.tuples(st.integers(0, 2**300), st.integers(1, 2**300)),
                    min_size=1, max_size=30), st.integers(1, 2**64), st.integers(1, 2**900))
    def test_sum_matches_the_exact_pair(self, terms, num_scale, den_scale):
        nums, dens = [n for n, _ in terms], [d for _, d in terms]
        got = tree_sum_leading_bits(nums, dens, num_scale, den_scale)
        if got is not None:
            num = num_scale * sum(n * math.prod(dens[:i] + dens[i + 1 :]) for i, n in enumerate(nums))
            den = den_scale * math.prod(dens)
            assert got == (_leading(num), _leading(den))


def _exact_leading(nums, dens, num_scale, den_scale):
    num, den = tree_sum_fractions(nums, dens)
    return _leading(num_scale * num), _leading(den_scale * den)


class TestOneSidedEnclosure:
    """The running product of the denominators is floored at every step
    and its upper end derived from the count of truncations."""

    @pytest.mark.parametrize("seed", range(2))
    def test_every_step_truncates(self, seed):
        rng = random.Random(seed)
        m = 500 + rng.randrange(20)
        dens = [rng.getrandbits(2000 + rng.randrange(64)) | 1 << 1999 for _ in range(m)]
        nums = [rng.getrandbits(rng.randrange(1, 2100)) for _ in range(m)]
        num_scale, den_scale = rng.getrandbits(40) | 1, rng.getrandbits(900) | 1
        got = tree_sum_leading_bits(nums, dens, num_scale, den_scale)
        # the enclosure is ~2^-149 wide relative: a random pair is decided
        assert got == _exact_leading(nums, dens, num_scale, den_scale)

    TOPS = (1 << 63, (1 << 63) | 0x5DEECE66D, (1 << 64) - 1)

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("m", [1, 200])
    def test_product_just_below_a_truncation_boundary_is_declined(self, top, m):
        # D = (top·2^2000 - 1)(2^2000 - 1)^(m-1) lies one unit (m = 1) or a
        # relative ~2^-2000 below top·2^J, J = 2000·m, so it has the leading
        # bits of top·2^J - 1, and every step truncates
        dens = [(top << 2000) - 1] + [(1 << 2000) - 1] * (m - 1)
        nums = [1] + [0] * (m - 1)
        assert tree_sum_leading_bits(nums, dens, 1, 1) is None
        assert _exact_leading(nums, dens, 1, 1)[1] == _leading((top << 2000 * m) - 1)

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_product_at_a_truncation_boundary_is_exact_or_declined(self, top, nudge):
        # D within a relative ~2^-2000 of top·2^j, above, at or below it
        dens = [(top << 2000) + nudge] + [(1 << 2000) + nudge] * 199
        for nums in ([1] + [0] * 199, list(range(200))):
            got = tree_sum_leading_bits(nums, dens, 1, 3)
            assert got is None or got == _exact_leading(nums, dens, 1, 3)


class TestExactValueOrdering:
    @given(ratios(max_bits=4000), st.integers(1, 2**80), st.integers(-3, 3),
           st.integers(1, 2**40))
    def test_orders_like_fraction_near_ties(self, pair, q, nudge, scale):
        num, den = pair
        a, exact = ExactValue(num, den), F(num, den)
        # floor(A q)/q, nudged by a few units of 1/q, ties A to ~1/q
        b = F(num * q // den + nudge, q)
        for other in (b, ExactValue(b.numerator * scale, b.denominator * scale)):
            assert (a < other) == (exact < b)
            assert (a <= other) == (exact <= b)
            assert (a > other) == (exact > b)
            assert (a >= other) == (exact >= b)
            assert (a == other) == (exact == b)

    def test_beyond_float_range(self):
        huge = ExactValue(2**5000 + 1, 3)
        assert huge > ExactValue(2**5000, 3)
        assert ExactValue(1, 2**5000) < ExactValue(2, 2**5000)


def _nudged_geometric(p, q, shift, nudges, scale_bits):
    """p^k (scale + d_k) / (q^k scale) times 2^scale_bits, k = 1, 2, ...

    A geometric sequence ties every log-concavity comparison, and with p
    near q every step; nudging each term by d_k/scale relative, scale =
    4 * 2^shift, puts the ties near 2^-shift, and a large |scale_bits|
    takes some terms past the float range on either side."""
    scale = 4 << shift
    up, down = max(scale_bits, 0), max(-scale_bits, 0)
    return [
        ExactValue(p**k * (scale + d) << up, q**k * scale << down)
        for k, d in enumerate(nudges, start=1)
    ]


def _brute_force_scan(values):
    fr = [v.as_fraction() for v in values]
    return [i + 1 for i in range(1, len(fr) - 1) if fr[i] * fr[i] < fr[i - 1] * fr[i + 1]]


def _brute_force_verdicts(values):
    """(modes, minima, eventual decrease) of the documented convention,
    read off the Fraction values directly."""
    fr = [None] + [v.as_fraction() for v in values]  # fr[n] is value(n)
    last = len(values)
    modes = [n for n in range(1, last) if (n == 1 or fr[n - 1] < fr[n]) and fr[n] >= fr[n + 1]]
    minima = [n for n in range(1, last) if (n == 1 or fr[n - 1] > fr[n]) and fr[n] <= fr[n + 1]]
    decrease = None
    if fr[last - 1] > fr[last]:
        decrease = min(
            n for n in range(1, last + 1) if all(fr[m] > fr[m + 1] for m in range(n, last))
        )
    return modes, minima, decrease


GEOMETRIC = (st.integers(1, 2**20), st.integers(1, 2**20), st.integers(0, 300),
             st.lists(st.integers(-2, 2), min_size=3, max_size=12), st.integers(-1200, 1200))


class TestLogconcavityScan:
    @given(*GEOMETRIC)
    def test_matches_fraction_products(self, p, q, shift, nudges, scale_bits):
        values = _nudged_geometric(p, q, shift, nudges, scale_bits)
        assert dg.logconcavity_scan(values) == _brute_force_scan(values)

    def test_underflowing_values_escalate(self):
        values = [ExactValue(k * k + 1, 2**1100) for k in range(1, 9)]
        assert dg.logconcavity_scan(values) == _brute_force_scan(values)


class TestStepVerdicts:
    @given(*GEOMETRIC[:1], st.integers(-1, 1), *GEOMETRIC[2:])
    def test_match_fraction_scan_near_ties(self, p, dq, shift, nudges, scale_bits):
        values = _nudged_geometric(p, max(p + dq, 1), shift, nudges, scale_bits)
        got = (dg.detect_modes(values), dg.detect_minima(values),
               dg.eventual_decrease_index(values))
        assert got == _brute_force_verdicts(values)

