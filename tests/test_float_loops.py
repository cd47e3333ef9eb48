"""The float route loops against in-test copies of their earlier form.

``engine._uniform_float_logs`` computes log y, log(hi - lo) and each
log(n + 1) once, and ``specialfn.legendre_ratios`` carries its last ratio
in a local.  The normal and exponential closed forms and
``specialfn.bessel_K_half`` compute their constant terms (log sigma,
mu^2 sigma^2, log mid, log 2, ...) once per sequence and carry the last
Bessel value in locals.  The copies below recompute them on every step, as
the loops did before; every float must come out with the same bits.
"""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from posterior_dynamics import engine
from posterior_dynamics import specialfn as sf


def earlier_legendre_ratios(n, x):
    if n < 1:
        return []
    ratios = [x]
    for k in range(1, n):
        ratios.append(((2 * k + 1) * x - k / ratios[-1]) / (k + 1))
    return ratios


def earlier_uniform_float_logs(theta0, theta1, horizon):
    y = theta0 * theta1
    z = (1.0 - theta0) * (1.0 - theta1)
    if math.isclose(y, z, rel_tol=1e-15):
        logs = []
        log_c = 0.0
        for n in range(1, horizon + 1):
            log_c += math.log(2 * (2 * n - 1)) - math.log(n)
            logs.append(n * math.log(y) + math.log(n + 1) + log_c)
        return logs
    hi, lo = max(y, z), min(y, z)
    x = (hi + lo) / (hi - lo)
    ratios = earlier_legendre_ratios(horizon, x)
    logs = []
    log_p = 0.0
    for n in range(1, horizon + 1):
        log_p += math.log(ratios[n - 1])
        logs.append(n * math.log(hi - lo) + math.log(n + 1) + log_p)
    return logs


def bits(values):
    return [struct.pack("<d", v) for v in values]


THETA = st.floats(1e-6, 1.0 - 1e-6)
HORIZON = st.integers(1, 3000)


@settings(max_examples=60)
@given(THETA, THETA, HORIZON)
@example(0.5, 0.5, 3000)  # y == z
@example(0.3, 0.6, 1)
def test_uniform_float_logs_bits(theta0, theta1, horizon):
    got = engine._uniform_float_logs(theta0, theta1, horizon)
    assert bits(got) == bits(earlier_uniform_float_logs(theta0, theta1, horizon))


@settings(max_examples=60)
@given(THETA, st.integers(-6, 6), HORIZON)
def test_uniform_float_logs_bits_at_the_isclose_edge(theta0, steps, horizon):
    """theta1 a few ulps from 1 - theta0 puts y and z on either side of
    math.isclose(y, z, rel_tol=1e-15), so both branches run near the edge."""
    theta1 = 1.0 - theta0
    for _ in range(abs(steps)):
        theta1 = math.nextafter(theta1, 1.0 if steps > 0 else 0.0)
    got = engine._uniform_float_logs(theta0, theta1, horizon)
    assert bits(got) == bits(earlier_uniform_float_logs(theta0, theta1, horizon))


def test_isclose_edge_reaches_both_branches():
    theta0 = 0.1
    sides = set()
    theta1 = 1.0 - theta0
    for _ in range(12):
        y, z = theta0 * theta1, (1.0 - theta0) * (1.0 - theta1)
        sides.add((y == z, math.isclose(y, z, rel_tol=1e-15)))
        theta1 = math.nextafter(theta1, 1.0)
    assert {(False, True), (False, False)} <= sides


@settings(max_examples=80)
@given(st.one_of(st.just(1.0), st.floats(1.0, 1e6)), st.integers(0, 3000))
@example(1.0, 3000)
@example(math.nextafter(1.0, 2.0), 3000)
def test_legendre_ratios_bits(x, n):
    assert bits(sf.legendre_ratios(n, x)) == bits(earlier_legendre_ratios(n, x))


# The closed-form loops of the normal and exponential routes and the
# Bessel recursion, as they were before their invariants were hoisted.


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


def earlier_exponential_logs(theta0, theta1, horizon, rate):
    t0, t1 = theta0 * rate, theta1 * rate
    mid = 0.5 * (t0 + t1)
    log_k, rho = earlier_bessel_K_half(mid, horizon)
    log_rate = math.log(rate)
    log_off = math.log(t0 * t1) - 2.0 * math.log(mid) if t0 != t1 else 0.0
    logs = []
    log_fact = 0.0
    for n in range(1, horizon + 1):
        log_fact += math.log(n)
        diag = (
            (n - 0.5) * math.log(mid)
            - (n + 0.5) * math.log(2.0)
            - log_fact
            - 0.5 * math.log(math.pi)
            + log_k[n]
            + math.log((n + mid) + mid * rho[n])
        )
        logs.append(diag + (mid - t0) + n * log_off + log_rate)
    return logs


NORMAL_THETA = st.floats(-5.0, 5.0)
SIGMA = st.floats(0.05, 1000.0)
EXP_THETA = st.floats(1e-3, 50.0)
RATE = st.one_of(st.just(1.0), st.floats(0.01, 100.0))


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
@given(EXP_THETA, EXP_THETA, HORIZON, RATE)
@example(1.5, 1.5, 3000, 1.0)
@example(1.0, 4.0, 3000, 1.0)
def test_exponential_logs_bits(theta0, theta1, horizon, rate):
    got = engine.expected_posterior_exponential(theta0, theta1, horizon, rate).log_values
    assert bits(got) == bits(earlier_exponential_logs(theta0, theta1, horizon, rate))


@settings(max_examples=60)
@given(st.floats(1e-3, 100.0), st.integers(0, 3000))
@example(1.0, 0)
def test_bessel_K_half_bits(theta, n_max):
    got = sf.bessel_K_half(theta, n_max)
    log_k, rho = earlier_bessel_K_half(theta, n_max)
    assert bits(got.log_k) == bits(log_k) and bits(got.rho) == bits(rho)
