"""The float route loops against independent oracles and earlier forms.

The float uniform route (``engine._uniform_float_logs`` over
``specialfn.legendre_ratios``) and the exponential route are running sums of
O(1)-size log steps.  They are checked against exact values (the
binomial-square sum at dyadic thetas, where y, z, y + z and (z - y)^2 are
exact floats, and the central binomial on the anti-diagonal) and against
40-digit mpmath references, within 1e-11 max(1, |log psi(n)|).  The normal
closed form and ``specialfn.bessel_K_half`` compute their constant terms
(log sigma, mu^2 sigma^2, log 2, ...) once per sequence and carry the last
Bessel value in locals; the copies below recompute them on every step, as
the loops did before, and every float must come out with the same bits.
"""

import math
import struct
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posterior_dynamics import diagnostics, engine
from posterior_dynamics import specialfn as sf
from posterior_dynamics.util import ExactValue


def bits(values):
    return [struct.pack("<d", v) for v in values]


def within_bound(got, want):
    """|got - want| <= 1e-11 max(1, |want|), the bound both float routes meet."""
    return abs(got - want) <= 1e-11 * max(1.0, abs(want))


THETA = st.floats(1e-6, 1.0 - 1e-6)
HORIZON = st.integers(1, 3000)
DYADIC = st.integers(1, 63).map(lambda k: F(k, 64))


def exact_uniform_logs(theta0, theta1, horizon):
    y, z = theta0 * theta1, (1 - theta0) * (1 - theta1)
    return [value.log() for value in sf.binomial_square_sum(y, z, horizon)]


@settings(max_examples=30)
@given(DYADIC, DYADIC, st.integers(1, 1000))
@example(F(1, 2), F(1, 2), 1000)
@example(F(1, 2), F(3, 4), 1)
def test_uniform_logs_match_exact_sums_at_dyadic_thetas(theta0, theta1, horizon):
    got = engine._uniform_float_logs(float(theta0), float(theta1), horizon)
    want = exact_uniform_logs(theta0, theta1, horizon)
    assert all(within_bound(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("theta0, theta1", [(F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))])
def test_uniform_anti_diagonal_is_the_central_binomial(theta0, theta1):
    # y = z: psi(n) = (n+1) C(2n, n) y^n
    y = theta0 * theta1
    logs = engine._uniform_float_logs(float(theta0), float(theta1), 3000)
    for n in (1, 2, 3, 10, 100, 1000, 3000):
        exact = ExactValue((n + 1) * math.comb(2 * n, n) * y.numerator**n, y.denominator**n)
        assert within_bound(logs[n - 1], exact.log())


@settings(max_examples=20)
@given(st.floats(0.01, 0.99), st.integers(-6, 6), st.integers(1, 200))
@example(0.1, 3, 200)
@example(0.5, -1, 200)
def test_uniform_logs_are_smooth_across_the_anti_diagonal(theta0, steps, horizon):
    """theta1 a few ulps from 1 - theta0 puts y and z either way round or
    equal; the one loop meets the exact sum at the float thetas on every side."""
    theta1 = 1.0 - theta0
    for _ in range(abs(steps)):
        theta1 = math.nextafter(theta1, 1.0 if steps > 0 else 0.0)
    got = engine._uniform_float_logs(theta0, theta1, horizon)
    want = exact_uniform_logs(F(theta0), F(theta1), horizon)
    assert all(within_bound(g, w) for g, w in zip(got, want))


def reference_uniform_logs(theta0, theta1, ns):
    """log psi(n) at each n of ns from the Legendre recurrence on ratios in
    40-digit arithmetic: q_1 = s, n q_n = (2n-1) s - (n-1) d^2 / q_(n-1)."""
    out = {}
    with mp.workdps(40):
        y, z = mp.mpf(theta0) * theta1, (1 - mp.mpf(theta0)) * (1 - mp.mpf(theta1))
        s, d2 = y + z, (z - y) ** 2
        q = product = s
        for n in range(1, max(ns) + 1):
            if n > 1:
                q = ((2 * n - 1) * s - (n - 1) * d2 / q) / n
                product *= q
            if n in ns:
                out[n] = mp.log(product * (n + 1))
    return out


LONG_UNIFORM = [(0.5, 0.5), (0.6, 0.6), (0.4, 0.5), (0.5, 0.75)]
LONG_NS = (1000, 10_000, 50_000)


@pytest.mark.parametrize("theta0, theta1", LONG_UNIFORM)
def test_uniform_reference_is_the_binomial_sum(theta0, theta1):
    ns = range(1, 121)
    ref = reference_uniform_logs(theta0, theta1, set(ns))
    with mp.workdps(40):
        y, z = mp.mpf(theta0) * theta1, (1 - mp.mpf(theta0)) * (1 - mp.mpf(theta1))
        for n in ns:
            direct = (n + 1) * mp.fsum(math.comb(n, k) ** 2 * y**k * z ** (n - k)
                                       for k in range(n + 1))
            assert abs(ref[n] - mp.log(direct)) < mp.mpf(10) ** -35


@pytest.mark.parametrize("theta0, theta1", LONG_UNIFORM)
def test_uniform_logs_at_long_horizons(theta0, theta1):
    logs = engine._uniform_float_logs(theta0, theta1, max(LONG_NS))
    ref = reference_uniform_logs(theta0, theta1, set(LONG_NS))
    for n in LONG_NS:
        assert within_bound(logs[n - 1], float(ref[n])), n


@settings(max_examples=60)
@given(st.floats(0.0, 1e6), st.integers(0, 3000))
@example(0.0, 3000)
@example(1.0, 3000)
def test_legendre_ratios_at_y_equals_z_are_central_binomial_steps(y, n):
    """At y = z each ratio is C(2k, k)/C(2k-2, k-1) y = (4k - 2) y / k, which
    the recurrence reaches in one rounding of (2k - 1)(2y) / k."""
    if y == 0.0:
        with pytest.raises(sf.DomainError):
            sf.legendre_ratios(n, y, y)
        return
    want = [(2 * k - 1) * (y + y) / k for k in range(1, n + 1)]
    assert bits(sf.legendre_ratios(n, y, y)) == bits(want)


def reference_exponential_log(theta0, theta1, n, rate=1.0):
    """The closed form in 40 digits with mpmath.besselk."""
    with mp.workdps(40):
        t0, t1 = mp.mpf(theta0) * rate, mp.mpf(theta1) * rate
        th, half = (t0 + t1) / 2, mp.mpf(1) / 2
        bracket = (n + th) * mp.besselk(n + half, th) + th * mp.besselk(n - half, th)
        return float((n - half) * mp.log(th) - (n + half) * mp.log(2) - mp.loggamma(n + 1)
                     - mp.log(mp.pi) / 2 + mp.log(bracket)
                     + (th - t0) + n * mp.log(t0 * t1 / th**2) + mp.log(rate))


@settings(max_examples=25)
@given(st.floats(1e-3, 20.0), st.floats(1e-3, 20.0), HORIZON, st.floats(0.01, 10.0))
@example(1.5, 1.5, 3000, 1.0)
@example(1.0, 4.0, 3000, 1.0)
def test_exponential_logs_match_besselk(theta0, theta1, horizon, rate):
    logs = engine.expected_posterior_exponential(theta0, theta1, horizon, rate).log_values
    for n in sorted({n for n in (1, 2, (horizon + 1) // 2, horizon) if n <= horizon}):
        assert within_bound(logs[n - 1], reference_exponential_log(theta0, theta1, n, rate)), n


@pytest.mark.parametrize("theta0, theta1", [(1.0, 1.0), (1.0, 4.0), (2.0, 3.0), (0.5, 0.5)])
def test_exponential_logs_at_long_horizons(theta0, theta1):
    logs = engine.expected_posterior_exponential(theta0, theta1, max(LONG_NS)).log_values
    for n in LONG_NS:
        assert within_bound(logs[n - 1], reference_exponential_log(theta0, theta1, n)), n


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
def test_exponential_diagonal_is_log_concave_to_the_horizon(theta):
    # the closed form assembled from logs of size n log n reported 66, 1 and 0
    # spurious violations here
    seq = engine.expected_posterior_exponential(theta, theta, 50_000)
    assert diagnostics.logconcavity_scan(seq) == []


# The normal closed form and the Bessel recursion, as they were before their
# invariants were hoisted.


def earlier_log_expected_posterior_normal(theta0, theta1, sigma, n):
    mid = 0.5 * (theta0 + theta1)
    sig2 = sigma * sigma
    diag = (
        math.log(n + sig2)
        - math.log(sigma)
        - 0.5 * math.log(2.0 * math.pi * (2.0 * n + sig2))
        - mid * mid * sig2 / (4.0 * n + 2.0 * sig2)
    )
    return diag + 0.5 * (mid * mid - theta0 * theta0) - n * (theta0 - theta1) ** 2 / (4.0 * sig2)


def earlier_bessel_K_half(theta, n_max):
    log_k = [0.5 * (math.log(math.pi) - math.log(2.0) - math.log(theta)) - theta]
    rho = [1.0]
    for n in range(n_max):
        step = (2 * n + 1) / theta + rho[n]
        log_k.append(log_k[n] + math.log(step))
        rho.append(1.0 / step)
    return log_k, rho


NORMAL_THETA = st.floats(-5.0, 5.0)
SIGMA = st.floats(0.05, 1000.0)


@settings(max_examples=60)
@given(NORMAL_THETA, NORMAL_THETA, SIGMA, HORIZON)
@example(-1 / 3, 1 / 3, 100.0, 3000)  # figure3's parameters
@example(0.5, 0.5, 1.0, 1)
def test_normal_logs_bits(theta0, theta1, sigma, horizon):
    got = engine.expected_posterior_normal(theta0, theta1, sigma, horizon).log_values
    want = [earlier_log_expected_posterior_normal(theta0, theta1, sigma, n)
            for n in range(1, horizon + 1)]
    assert bits(got) == bits(want)


@settings(max_examples=60)
@given(NORMAL_THETA, NORMAL_THETA, SIGMA, st.floats(0.0, 1e5))
def test_normal_log_at_real_n_bits(theta0, theta1, sigma, n):
    got = engine.log_expected_posterior_normal(theta0, theta1, sigma, n)
    assert bits([got]) == bits([earlier_log_expected_posterior_normal(theta0, theta1, sigma, n)])


@settings(max_examples=60)
@given(st.floats(1e-3, 100.0), st.integers(0, 3000))
@example(1.0, 0)
def test_bessel_K_half_bits(theta, n_max):
    got = sf.bessel_K_half(theta, n_max)
    log_k, rho = earlier_bessel_K_half(theta, n_max)
    assert bits(got.log_k) == bits(log_k) and bits(got.rho) == bits(rho)


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
def test_bessel_back_ratios_match_the_exact_recurrence(theta):
    """rho_n = k_(n-1)/k_n of the exponential route against
    rho_(n+1) = 1/((2n+1)/theta + rho_n) run in Fractions from rho_0 = 1.

    Each float step rounds (2n+1)/theta, the sum and the reciprocal, at
    most 3u relative (u = 2^-53), and passes on the error of rho_n times
    rho_n rho_(n+1) <= 0.6 at these thetas: the recurrence contracts, so
    the error stays below 3u/(1 - 0.6) < 8u at every n."""
    rho = sf.bessel_K_half(theta, 200).rho
    t, exact = F(theta), F(1)
    for n in range(201):
        if n:
            exact = 1 / ((2 * n - 1) / t + exact)
        assert abs(F(rho[n]) - exact) <= 8 * exact / 2**53, n
