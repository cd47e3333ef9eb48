"""The uniform-prior float loops against in-test copies of their earlier form.

``engine._uniform_float_logs`` computes log y, log(hi - lo) and each
log(n + 1) once, and ``specialfn.legendre_ratios`` carries its last ratio
in a local.  The copies below recompute them on every step, as the loops
did before; every float must come out with the same bits.
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
