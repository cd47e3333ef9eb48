"""The float per-term kernels against in-test copies of their earlier form.

``families.suff_stat_log_density`` checks theta against its domain in place,
takes ints u without a float round trip and reads log C(n, k) from a table of
log factorials; ``util.logsumexp`` sums a list against module constants; the
Beta prior predictive reads its float shape and log B(a, b) from the prior,
and its other log-gammas from the same table when the shapes are integers,
and the atom one its float log-weights.  The copies below are the kernels as
they were before; every float must come out with the same bits, and every
error with the same type and message.
"""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr
from posterior_dynamics.util import logsumexp


def earlier_density(family, theta, n, u):
    if n < 1:
        raise fam.DomainError(f"n={n} must be >= 1")
    family.require_theta(theta, closure=(family.kind == fam.BERNOULLI))
    t = float(theta)
    uf = float(u)
    if family.kind == fam.BERNOULLI:
        if uf < 0 or uf > n or uf != int(uf):
            return float("-inf")
        k = int(uf)
        log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        if t == 0.0:
            return 0.0 if k == 0 else float("-inf")
        if t == 1.0:
            return 0.0 if k == n else float("-inf")
        return log_choose + k * math.log(t) + (n - k) * math.log(1.0 - t)
    if family.kind == fam.NORMAL:
        var = n * family.sigma**2
        return -0.5 * math.log(2.0 * math.pi * var) - (uf - n * t) ** 2 / (2.0 * var)
    if uf < 0 or (uf == 0 and n > 1):
        return float("-inf")
    if uf == 0:
        return math.log(t)
    return n * math.log(t) + (n - 1) * math.log(uf) - t * uf - math.lgamma(n)


def earlier_logsumexp(terms):
    ts = [t for t in terms if t != float("-inf")]
    if not ts:
        return float("-inf")
    m = max(ts)
    if m == float("inf"):
        return m
    return m + math.log(sum(math.exp(t - m) for t in ts))


def earlier_beta_logpmf(prior, n, u):
    uf = float(u)
    if uf < 0 or uf > n or uf != int(uf):
        return float("-inf")
    k = int(uf)
    a, b = float(prior.a), float(prior.b)
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    log_beta = lambda x, y: math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
    return log_choose + log_beta(k + a, n - k + b) - log_beta(a, b)


def earlier_atom_logpmf(family, prior, n, u):
    prior.validate_for(family)
    return earlier_logsumexp(
        math.log(float(w)) + earlier_density(family, t, n, u) for t, w in prior.atoms
    )


def bits(value):
    return struct.pack("<d", value)


def outcome(call, *args):
    """(True, bits of the result) or (False, type and message of the error)."""
    try:
        return True, bits(call(*args))
    except Exception as exc:  # noqa: BLE001 -- the comparison is the point
        return False, (type(exc), str(exc))


BERNOULLI = fam.bernoulli()
SUBNORMAL = 5e-324
BERNOULLI_THETA = st.one_of(
    st.sampled_from([0.0, 1.0, SUBNORMAL, 1.0 - SUBNORMAL, 1.0 - 2.0**-53, 0, 1]),
    st.floats(0.0, 1.0),
    st.fractions(0, 1, max_denominator=10**6),
)
N = st.integers(1, 2000)


def counts(n):
    """u as an int, float, Fraction or bool: in range, below 0, above n and
    between two integers."""
    ints = st.integers(-5, n + 5) | st.sampled_from([0, n, -1, n + 1, 10**6])
    return st.one_of(
        ints,
        ints.map(float),
        ints.map(Fraction),
        st.booleans(),
        st.floats(-2.0, n + 2.0, allow_nan=False),
        st.fractions(-2, n + 2, max_denominator=7),
    )


@settings(max_examples=300)
@given(BERNOULLI_THETA, N, st.data())
def test_bernoulli_density_bits(theta, n, data):
    u = data.draw(counts(n))
    assert outcome(fam.suff_stat_log_density, BERNOULLI, theta, n, u) == outcome(
        earlier_density, BERNOULLI, theta, n, u)


def test_log_factorial_table_grows_mid_run(monkeypatch):
    """From an empty table, ns out of order up to 2,000 grow it several
    times between calls; each entry is lgamma(i + 1)."""
    monkeypatch.setattr(fam, "_LOG_FACT", [])
    for n in (1, 2, 7, 3, 150, 40, 151, 999, 2000, 1000, 1999):
        for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
            for theta in (0.3, SUBNORMAL, 1.0 - 2.0**-53):
                got = fam.suff_stat_log_density(BERNOULLI, theta, n, k)
                assert bits(got) == bits(earlier_density(BERNOULLI, theta, n, k))
    assert [bits(v) for v in fam._LOG_FACT] == [bits(math.lgamma(i + 1)) for i in range(2001)]


def test_log_factorial_table_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(fam, "_LOG_FACT", [])
    monkeypatch.setattr(fam, "LOG_FACT_MAX", 100)
    for n in (100, 101, 5000):
        for k in (0, 1, 50, 100):
            got = fam.suff_stat_log_density(BERNOULLI, 0.3, n, k)
            assert bits(got) == bits(earlier_density(BERNOULLI, 0.3, n, k))
    assert len(fam._LOG_FACT) == 101


@pytest.mark.parametrize("n,k", [(5.0, 2), (Fraction(5), 2), (True, 1), (2.5, 1)])
def test_log_binomial_of_an_n_that_is_no_int(n, k):
    want = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    assert bits(fam.log_binomial(n, k)) == bits(want)


@pytest.mark.parametrize("family,theta,n,u", [
    (BERNOULLI, Fraction(1) + Fraction(1, 10**20), 5, 2),
    (BERNOULLI, float("nan"), 5, 2),
    (BERNOULLI, -0.1, 5, 2),
    (BERNOULLI, 0.5, 0, 0),
    (BERNOULLI, 0.5, 5, float("nan")),
    (BERNOULLI, 0.5, 5, "two"),
    (fam.normal(2.0), float("nan"), 5, 1.0),
    (fam.normal(2.0), float("inf"), 5, 1.0),
    (fam.exponential(), 0, 5, 1.0),
    (fam.exponential(), -0.1, 5, 1.0),
    (fam.exponential(), 1.0, 0, 1.0),
])
def test_density_errors_match(family, theta, n, u):
    new = outcome(fam.suff_stat_log_density, family, theta, n, u)
    assert not new[0]
    assert new == outcome(earlier_density, family, theta, n, u)


@settings(max_examples=200)
@given(st.floats(0.1, 100.0), st.floats(-50.0, 50.0) | st.fractions(-50, 50), N,
       st.floats(-1e4, 1e4))
def test_normal_density_bits(sigma, theta, n, u):
    family = fam.normal(sigma)
    assert outcome(fam.suff_stat_log_density, family, theta, n, u) == outcome(
        earlier_density, family, theta, n, u)


@settings(max_examples=200)
@given(st.floats(SUBNORMAL, 100.0) | st.fractions(Fraction(1, 10**6), 100), N,
       st.sampled_from([0, 0.0, -1.0]) | st.floats(0.0, 1e4))
@example(2.0, 1, 0.0)
def test_exponential_density_bits(theta, n, u):
    family = fam.exponential()
    assert outcome(fam.suff_stat_log_density, family, theta, n, u) == outcome(
        earlier_density, family, theta, n, u)


# terms within a few units of each other all count in the sum, so its order shows
TERM = (st.floats(-3.0, 3.0) | st.floats(-800.0, 800.0)
        | st.sampled_from([float("-inf"), float("inf")]))


@settings(max_examples=300)
@given(st.lists(TERM, max_size=40))
@example([])
@example([float("-inf")] * 3)
@example([1.0, float("inf"), float("-inf")])
@example([0.1 * i for i in range(30)])
def test_logsumexp_bits(terms):
    assert bits(logsumexp(terms)) == bits(earlier_logsumexp(terms))
    assert bits(logsumexp(iter(terms))) == bits(earlier_logsumexp(terms))


SHAPE = st.integers(1, 40) | st.floats(0.01, 40.0) | st.fractions(Fraction(1, 100), 40)


@settings(max_examples=300)
@given(SHAPE, SHAPE, st.data())
def test_beta_marginal_bits(a, b, data):
    n = data.draw(N)
    u = data.draw(counts(n))
    prior = pr.Beta(a, b)
    for _ in range(2):  # the second call reads the cached float shape
        assert outcome(pr.marginal_suffstat_logpmf, BERNOULLI, prior, n, u) == outcome(
            earlier_beta_logpmf, prior, n, u)


@pytest.mark.parametrize("a,b", [(30, 40), (30.0, 40.0), (Fraction(30), 40)])
def test_integer_beta_shapes_read_the_log_factorial_table(monkeypatch, a, b):
    """lgamma(k + a), lgamma(n - k + b) and lgamma(n + a + b) come off the
    table while n + a + b - 1 is within its cap, with the same bits."""
    monkeypatch.setattr(fam, "_LOG_FACT", [])
    monkeypatch.setattr(fam, "LOG_FACT_MAX", 100)
    prior = pr.Beta(a, b)
    for n in (31, 32, 5, 200):  # n + a + b - 1 = 100 is the cap, 101 passes it
        for k in (0, 1, n // 2, n - 1, n):
            assert outcome(pr.marginal_suffstat_logpmf, BERNOULLI, prior, n, k) == outcome(
                earlier_beta_logpmf, prior, n, k)
        if n == 31:
            assert len(fam._LOG_FACT) == 101
    assert len(fam._LOG_FACT) == 101
    monkeypatch.setattr(fam, "_LOG_FACT", [])
    assert outcome(pr.marginal_suffstat_logpmf, BERNOULLI, pr.Beta(2.5, 3), 10, 4) == outcome(
        earlier_beta_logpmf, pr.Beta(2.5, 3), 10, 4)
    assert len(fam._LOG_FACT) == 11


ATOM_PRIORS = [
    pr.atoms((Fraction(1, 5), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 3)),
             (Fraction(4, 5), Fraction(1, 3))),
    pr.atoms((0, Fraction(1, 7)), (1, Fraction(2, 7)), (0.3, Fraction(4, 7))),
    pr.atoms((SUBNORMAL, Fraction(1, 10**30)), (0.999, 1 - Fraction(1, 10**30))),
]


@settings(max_examples=200)
@given(st.sampled_from(ATOM_PRIORS), st.data())
def test_atom_marginal_bits(prior, data):
    n = data.draw(st.integers(1, 300))
    u = data.draw(counts(n))
    assert outcome(pr.marginal_suffstat_logpmf, BERNOULLI, prior, n, u) == outcome(
        earlier_atom_logpmf, BERNOULLI, prior, n, u)


def test_atom_marginal_still_validates_atoms():
    prior = pr.atoms((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2)))
    assert outcome(pr.marginal_suffstat_logpmf, BERNOULLI, prior, 3, 1) == outcome(
        earlier_atom_logpmf, BERNOULLI, prior, 3, 1)
    assert not outcome(pr.marginal_suffstat_logpmf, BERNOULLI, prior, 3, 1)[0]
