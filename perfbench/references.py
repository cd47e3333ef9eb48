"""Independent reference values for sampled psi(n).

Nothing here calls the program's routes.  Bernoulli sequences are plain
``Fraction`` sums over the sufficient statistic k = u_n; for atom priors
the brute-force oracle of the program (a sum over all 2^n raw sequences)
must agree with them exactly at small n.  The normal model uses the
Gaussian integral over u_n in closed form, and the exponential model the
half-integer Bessel K closed form through ``mpmath.besselk``, both at 50
digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50

EXACT_RTOL = 1e-15  # the util.ratio_to_float docstring promise
FLOAT_RTOL = 1e-9
BRUTEFORCE_MAX_N = 12


def _mpf(x):
    """Fractions and floats as mpf, exactly up to the working precision."""
    x = Fraction(x) if isinstance(x, (int, Fraction)) else x
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


def sample_ns(horizon: int) -> list[int]:
    """Every 7th n up to 210, then log-spaced, plus both ends."""
    ns = {1, horizon, *range(7, min(horizon, 210) + 1, 7)}
    if horizon > 210:
        ns.update(round(horizon ** (i / 12)) for i in range(7, 12))
    return sorted(n for n in ns if 1 <= n <= horizon)


def _binomial_pmf(theta: Fraction, n: int, k: int) -> Fraction:
    return math.comb(n, k) * theta**k * (1 - theta) ** (n - k)


def bernoulli_psi(prior: dict, theta0: Fraction, theta1: Fraction, n: int) -> Fraction:
    """sum_k pi(theta0) p(k | theta0) p(k | theta1) / m(k) for the atom,
    uniform and integer Beta priors of the scenario schema."""
    kind = prior["type"]
    if kind == "atoms":
        atoms = [(Fraction(a["theta"]), Fraction(a["weight"])) for a in prior["atoms"]]
        pi0 = dict(atoms)[theta0]

        def marginal(k):
            return sum(w * _binomial_pmf(t, n, k) for t, w in atoms)
    elif kind == "uniform01":
        pi0 = Fraction(1)

        def marginal(k):
            return Fraction(1, n + 1)
    elif kind == "beta":
        a, b = int(prior["a"]), int(prior["b"])

        def beta_fn(x, y):  # B(x, y) for positive integers
            return Fraction(math.factorial(x - 1) * math.factorial(y - 1),
                            math.factorial(x + y - 1))

        pi0 = theta0 ** (a - 1) * (1 - theta0) ** (b - 1) / beta_fn(a, b)

        def marginal(k):
            return math.comb(n, k) * beta_fn(k + a, n - k + b) / beta_fn(a, b)
    else:
        raise ValueError(f"no Bernoulli reference for prior {kind!r}")
    total = Fraction(0)
    for k in range(n + 1):
        m = marginal(k)
        if m:
            total += pi0 * _binomial_pmf(theta0, n, k) * _binomial_pmf(theta1, n, k) / m
    return total


def uniform_psi_mp(theta0: Fraction, theta1: Fraction, n: int):
    """(n+1) sum_k C(n,k)^2 y^k z^(n-k), y = theta0 theta1,
    z = (1-theta0)(1-theta1); Vandermonde's identity when y == z."""
    t0, t1 = _mpf(theta0), _mpf(theta1)
    y, z = t0 * t1, (1 - t0) * (1 - t1)
    if theta0 * theta1 == (1 - theta0) * (1 - theta1):
        return (n + 1) * y**n * mp.binomial(2 * n, n)
    term = z**n
    total = term
    for k in range(n):
        term = term * (mp.mpf(n - k) / (k + 1)) ** 2 * y / z
        total += term
    return (n + 1) * total


def normal_psi(theta0, theta1, sigma, n: int):
    """Normal(theta, sigma^2) data, standard normal prior.  With v = n sigma^2
    and V = n^2 + n sigma^2 the sum u_n is N(n theta, v) given theta and
    N(0, V) marginally, so psi(n) = phi(theta0) integral of
    N(u; n theta1, v) N(u; n theta0, v) / N(u; 0, V) du, a Gaussian integral."""
    t0, t1, s = _mpf(theta0), _mpf(theta1), _mpf(sigma)
    v = n * s**2
    big_v = n * n + n * s**2
    a = 1 / v - 1 / (2 * big_v)
    b = n * (t0 + t1) / v
    c = n * n * (t0**2 + t1**2) / (2 * v)
    phi0 = mp.exp(-t0**2 / 2) / mp.sqrt(2 * mp.pi)
    return (phi0 / (2 * mp.pi * v) * mp.sqrt(2 * mp.pi * big_v) * mp.sqrt(mp.pi / a)
            * mp.exp(b * b / (4 * a) - c))


def exponential_psi(theta0, theta1, rate, n: int):
    """Exp(theta) data, Exp(rate) prior, via the half-integer Bessel K form at
    theta = (theta0 + theta1)/2 after rescaling to rate 1."""
    lam = _mpf(rate)
    t0, t1 = _mpf(theta0) * lam, _mpf(theta1) * lam
    th = (t0 + t1) / 2
    half = mp.mpf(1) / 2
    diag = (th ** (n - half) / (2 ** (n + half) * mp.factorial(n) * mp.sqrt(mp.pi))
            * ((n + th) * mp.besselk(n + half, th) + th * mp.besselk(n - half, th)))
    return diag * mp.exp(th - t0) * (t0 * t1 / th**2) ** n * lam


def scenario_reference(scenario: dict, n: int):
    """Reference psi(n) for one scenario of the JSON schema."""
    family = scenario["family"]["kind"]
    prior = scenario["prior"]
    t0, t1 = Fraction(scenario["theta0"]), Fraction(scenario["theta1"])
    if family == "bernoulli":
        if prior["type"] == "uniform01" and n > 1000:
            return uniform_psi_mp(t0, t1, n)
        return bernoulli_psi(prior, t0, t1, n)
    if family == "normal":
        return normal_psi(t0, t1, scenario["family"]["sigma"], n)
    if family == "exponential":
        return exponential_psi(t0, t1, prior.get("lambda", 1), n)
    raise ValueError(f"no reference for family {family!r}")


def relative_error(value: float, log_value: float | None, reference) -> float:
    """|value - ref| / ref; in log space where the float underflowed."""
    ref = _mpf(reference)
    if ref <= 0:
        raise ValueError("references are positive")
    if value > 0 and ref > mp.mpf("1e-300"):
        return float(abs(mp.mpf(value) - ref) / ref)
    if log_value is None:
        return math.inf
    return float(abs(mp.mpf(log_value) - mp.log(ref)) / max(1, abs(mp.log(ref))))
