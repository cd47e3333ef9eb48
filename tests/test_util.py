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
    ENCLOSURE_BITS,
    ROUNDING,
    ExactValue,
    certified_quotient,
    certified_sign,
    fixed_point_sum,
    ratio_to_float,
    tree_sum_fractions,
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
        # y = 2^-5000 > x = y (1 - 2^-53), yet their logs, log m + e ln 2 on
        # either side of a binade below the float range, round in the other
        # order by one ulp
        x, y = ExactValue((1 << 53) - 1, 1 << 5053), ExactValue(1, 1 << 5000)
        assert y > x and y.log() < x.log()
        assert dg.detect_modes([x, y, x]) == [2]
        assert dg.logconcavity_scan([x, y, x]) == []

    def test_unbalanced_operands_keep_their_bits(self):
        want = 1.0654613332037199e-112
        assert abs(ratio_to_float(3**600, 7**400 * 2**200) - want) <= 2**-52 * want

    def test_pairs_scaled_by_three_round_alike(self):
        # scaling a pair must not move its float; 7 of these pairs once did, by one bit
        rng = random.Random(18)
        mismatches = 0
        for _ in range(20000):
            num, den = rng.getrandbits(200) | 1 << 199, rng.getrandbits(200) | 1 << 199
            mismatches += ratio_to_float(3 * num, 3 * den) != ratio_to_float(num, den)
        assert mismatches == 0


class TestValueDetermined:
    """The float, the log and the printed digits of an ExactValue depend on
    the value alone, not on how its pair is scaled."""

    @given(ratios(max_bits=4000), st.integers(1, 2**64))
    def test_scaled_pair_gives_the_same_bytes(self, pair, k):
        num, den = pair
        x, y = ExactValue(num, den), ExactValue(k * num, k * den)
        assert x.log() == y.log()
        assert x.canonical_str() == y.canonical_str() is not None  # both under the cap
        try:
            want = float(F(num, den))
        except OverflowError:
            for v in (x, y):
                with pytest.raises(OverflowError):
                    float(v)
            return
        assert float(x) == float(y) == want

    def test_zero_is_positive_zero(self):
        assert math.copysign(1.0, ratio_to_float(0, -7)) == 1.0
        assert repr(float(ExactValue(0, -7))) == "0.0"


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


    def test_adversarial_pairs_within_log_error(self):
        # sides near powers of two, ratios near 1, and quotients far
        # outside the float range
        rng = random.Random(20)
        pairs = []
        for _ in range(300):
            bits = rng.randrange(1, 20000)
            near = (1 << bits) + rng.randrange(-64, 65)
            other = (1 << rng.randrange(1, 20000)) + rng.randrange(-64, 65)
            pairs += [(max(near, 1), max(other, 1)), (max(near + rng.randrange(-4, 5), 1), near),
                      (rng.getrandbits(bits) | 1, max(near, 1))]
        with mp.workdps(60):
            for num, den in pairs:
                got = ExactValue(num, den).log()
                assert abs(mp.mpf(got) - (mp.log(num) - mp.log(den))) <= ExactValue.log_error(got)


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


def _float_log(num: int, den: int) -> tuple[float, float]:
    """(float, log) of the positive num/den, as an eager ExactValue gives them."""
    x = ExactValue(num, den)
    return float(x), x.log()


def _certify(nums, dens, num_scale, den_scale, shift=0):
    """The atom route's certificate of num_scale N / (den_scale D), where
    (N, D) = tree_sum_fractions(nums, dens): the quotient over the ends of
    the fixed-point enclosure of N/D."""
    total, shift = fixed_point_sum(nums, dens, shift)
    return certified_quotient(num_scale * total, num_scale * (total + len(nums)), den_scale, shift)


def _exact_float_log(nums, dens, num_scale, den_scale):
    num, den = tree_sum_fractions(nums, dens)
    return _float_log(num_scale * num, den_scale * den)


class TestCertifiedTopBits:
    """``certified_quotient`` names the top 53 bits of a quotient (its
    correctly rounded float, and the log read off them) for every value of
    an enclosure [lo, hi] / den, or declines where the two ends round
    apart."""

    TOP = (1 << 52) | 0x5DEECE66D  # an odd 53-bit significand

    def test_exact_enclosure_is_decided(self):
        for x, den in ((self.TOP << 40 | 12345, 3 << 90), (self.TOP, 7),
                       (self.TOP << 200, 1 << 2300)):  # the last below the float range
            assert certified_quotient(x, x, den) == _float_log(x, den)

    def test_narrow_enclosure_is_decided(self):
        x = self.TOP << 96 | 2**94
        assert certified_quotient(x - 2**90, x + 2**90, 1) == _float_log(x, 1)
        assert certified_quotient(x - 2**90, x + 2**90, 1, -7) == _float_log(x << 7, 1)

    def test_declines_a_straddled_truncation_boundary(self):
        # rounding to nearest truncates X + ulp/2, so its boundaries are the
        # midpoints between floats: X = (TOP + 1/2) 2^36 ties to TOP + 1
        x = (2 * self.TOP + 1) << 35
        assert certified_quotient(x - 1, x + 1, 1) is None
        assert certified_quotient(x - 1, x, 1) is None
        assert certified_quotient(x, x + 1, 1) == _float_log(x, 1)

    def test_declines_a_straddled_power_of_two(self):
        # 2^100 (1 - 2^-54), the midpoint below the binade 2^100, ties up to it
        x = (1 << 100) - (1 << 46)
        assert certified_quotient(x - 1, x + 1, 1) is None
        assert certified_quotient(x - 1, x, 1) is None
        assert certified_quotient(x, x + 1, 1) == _float_log(1 << 100, 1)
        assert certified_quotient(2**99, 2**100 - 1, 8) is None

    def test_declines_short_and_empty_values(self):
        # below the float range the float keeps fewer bits than the 53-bit
        # quotient the log reads: 2^-1100 and 3 * 2^-1100 both give 0.0
        den = 1 << 1200
        assert ratio_to_float(1 << 100, den) == ratio_to_float(3 << 100, den) == 0.0
        assert certified_quotient(1 << 100, 3 << 100, den) is None
        assert certified_quotient(1 << 100, 1 << 100, den) == _float_log(1 << 100, den)
        assert certified_quotient(0, 5, 100) is None  # psi = 0 builds its pair
        assert _certify([0, 0], [3, 5], 1, 1) is None

    def test_sum_on_a_boundary_is_declined(self):
        # 1/3 + (2/3 + 2^-53) = 1 + 2^-53, the midpoint above 1, and each
        # fixed-point quotient is inexact
        nums, dens = [1, 2**54 + 3], [3, 3 << 53]
        assert F(nums[0], dens[0]) + F(nums[1], dens[1]) == 1 + F(1, 2**53)
        assert _certify(nums, dens, 1, 1) is None

    def test_sum_on_a_power_of_two_is_declined(self):
        # 1/3 + (2/3 - 2^-54) = 1 - 2^-54, the midpoint below the binade 1
        nums, dens = [1, 2**55 - 3], [3, 3 << 54]
        assert F(nums[0], dens[0]) + F(nums[1], dens[1]) == 1 - F(1, 2**54)
        assert _certify(nums, dens, 1, 1) is None

    @given(st.lists(st.tuples(st.integers(0, 2**300), st.integers(1, 2**300)),
                    min_size=1, max_size=30), st.integers(1, 2**64), st.integers(1, 2**900),
           st.integers(-600, 600))
    def test_sum_matches_the_exact_pair(self, terms, num_scale, den_scale, shift):
        nums, dens = [n for n, _ in terms], [d for _, d in terms]
        total, used = fixed_point_sum(nums, dens, shift)
        exact = sum(F(n, d) for n, d in terms)
        assert total <= exact * F(2) ** used < total + len(nums)
        assert total.bit_length() >= ENCLOSURE_BITS or (total == 0 and not any(nums))
        got = _certify(nums, dens, num_scale, den_scale, shift)
        if got is not None:
            num = num_scale * sum(n * math.prod(dens[:i] + dens[i + 1 :]) for i, n in enumerate(nums))
            assert got == _float_log(num, den_scale * math.prod(dens))


class TestOneSidedEnclosure:
    """Every fixed-point quotient is floored, and the upper end of the
    enclosure adds one unit per quotient."""

    @pytest.mark.parametrize("seed", range(2))
    def test_every_step_truncates(self, seed):
        rng = random.Random(seed)
        m = 500 + rng.randrange(20)
        dens = [rng.getrandbits(2000 + rng.randrange(64)) | 1 << 1999 for _ in range(m)]
        nums = [rng.getrandbits(rng.randrange(1, 2100)) for _ in range(m)]
        num_scale, den_scale = rng.getrandbits(40) | 1, rng.getrandbits(900) | 1
        got = _certify(nums, dens, num_scale, den_scale)
        # the enclosure is ~2^-150 wide relative: a random pair is decided
        assert got == _exact_float_log(nums, dens, num_scale, den_scale)

    TOPS = (1 << 63, (1 << 63) | 0x5DEECE66D, (1 << 64) - 1)

    @pytest.mark.parametrize("top", TOPS)
    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_product_at_a_truncation_boundary_is_exact_or_declined(self, top, nudge):
        # the product of the dens within a relative ~2^-2000 of top·2^j,
        # above, at or below it
        dens = [(top << 2000) + nudge] + [(1 << 2000) + nudge] * 199
        for nums in ([1] + [0] * 199, list(range(200))):
            got = _certify(nums, dens, 1, 3)
            assert got is None or got == _exact_float_log(nums, dens, 1, 3)


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


ZERO_RUNS = st.lists(st.integers(0, 5), min_size=3, max_size=12)


@given(ZERO_RUNS)
def test_zeros_give_the_same_verdicts_as_floats_and_as_fractions(ints):
    """A raw list with zeros: 0.0 reads as the log -inf, as an exact zero does,
    so floats and Fractions agree with the brute force on every verdict."""
    exact = [ExactValue(k, 1) for k in ints]
    want = (_brute_force_scan(exact), *_brute_force_verdicts(exact))
    for seq in ([float(k) for k in ints], [F(k) for k in ints]):
        got = (dg.logconcavity_scan(seq), dg.detect_modes(seq), dg.detect_minima(seq),
               dg.eventual_decrease_index(seq))
        assert got == want, seq


@pytest.mark.parametrize("scan", [dg.detect_modes, dg.logconcavity_scan,
                                  dg.eventual_decrease_index])
def test_a_float_zero_is_read_and_a_negative_float_refused(scan):
    assert scan([1.0, 0.0, 0.0]) == scan([F(1), F(0), F(0)])
    with pytest.raises(ValueError):
        scan([1.0, -1.0, 0.5])


class TestStepVerdicts:
    @given(*GEOMETRIC[:1], st.integers(-1, 1), *GEOMETRIC[2:])
    def test_match_fraction_scan_near_ties(self, p, dq, shift, nudges, scale_bits):
        values = _nudged_geometric(p, max(p + dq, 1), shift, nudges, scale_bits)
        got = (dg.detect_modes(values), dg.detect_minima(values),
               dg.eventual_decrease_index(values))
        assert got == _brute_force_verdicts(values)

