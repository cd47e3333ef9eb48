"""Float verdicts against exact verdicts on the routes that have both.

A verdict is a mode, a minimum, a log-concavity violation or the
eventual-decrease index of psi(n).  The exact run decides each one on
certified bounds or exact comparisons, so it is the oracle; the float run
of the same inputs must reach the same verdicts.

The uniform and Beta routes are covered here.  The atom route is left out:
its float run gives wrong verdicts once 1 - psi(n) falls below about 1e-13,
and it joins with the change that carries 1 - psi(n) on that route.  The
normal route has no exact mode; its check against an interval enclosure
joins with the change that makes its log-concavity boundary exact.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine
from posterior_dynamics import priors as pr


def verdicts(seq):
    report = dg.analyze(seq)
    return (report.modes, report.minima, report.logconcavity_violations,
            report.eventual_decrease)


@st.composite
def rationals(draw):
    """A theta in (0, 1) with a denominator from 10 to 1000."""
    den = draw(st.integers(10, 1000))
    return Fraction(draw(st.integers(1, den - 1)), den)


GRID = st.integers(1, 19).map(lambda k: Fraction(k, 20))
SHAPE = st.integers(1, 6)


@settings(max_examples=200)
@given(rationals(), rationals())
def test_uniform_verdicts_agree(theta0, theta1):
    exact = engine.expected_posterior_uniform(theta0, theta1, 60, mode="exact")
    floats = engine.expected_posterior_uniform(theta0, theta1, 60, mode="float")
    assert verdicts(floats) == verdicts(exact)


@settings(max_examples=60)
@given(SHAPE, SHAPE, GRID, GRID)
def test_beta_verdicts_agree(a, b, theta0, theta1):
    prior = pr.Beta(a, b)
    exact = engine.expected_posterior_beta(prior, theta0, theta1, 40, mode="exact")
    floats = engine.expected_posterior_beta(prior, theta0, theta1, 40, mode="float")
    assert verdicts(floats) == verdicts(exact)
