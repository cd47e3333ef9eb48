"""Canonical one-dimensional exponential families.

Three families are supported, each with density
exp(eta(t) T(x) - A(eta(t)) - B(x)) and the parameterization fixed as:

    bernoulli    t in (0,1),   eta = log(t/(1-t)), T(x) = x
    normal       t in R,       eta = t,            T(x) = x / sigma^2   (sigma fixed)
    exponential  t in (0,inf), eta = t,            T(x) = -x

The sufficient statistic of n iid draws is u_n = sum x_i, with laws
Binomial(n,t), Normal(n t, n sigma^2) and Gamma(n, rate=t), all in closed
form; n = 1 gives the density of a single draw.

For two parameters t0, t1 the density p_{tmid} proportional to
sqrt(p_{t0} p_{t1}) stays inside the family; ``log_bhattacharyya_reduction``,
the one owner of log w, returns that midpoint parameter and log w for the squared
Bhattacharyya affinity w (integral of sqrt(p_{t0} p_{t1}), squared), the
per-observation geometric decay factor of expected posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction]

BERNOULLI = "bernoulli"
NORMAL = "normal"
EXPONENTIAL = "exponential"

# open interval of valid parameters, per kind; the finite bounds are ints,
# so a Fraction theta compares exactly and without converting a float bound
_DOMAINS = {BERNOULLI: (0, 1), NORMAL: (-math.inf, math.inf), EXPONENTIAL: (0, math.inf)}
_KINDS = tuple(_DOMAINS)

NEG_INF = float("-inf")
# a float x with |x| below this has a float square x * x
_SQUARE_MAX = math.sqrt(math.nextafter(math.inf, 0.0))

_log = math.log
_lgamma = math.lgamma
# _LOG_FACT[i] = lgamma(i + 1) = log i!.  The table is empty at import and
# ``log_binomial`` grows it to the largest n it is asked for, up to
# LOG_FACT_MAX (about 2 MB of floats); a larger n takes lgamma directly.
# Three lgamma calls per log C(n, k) instead made float figure1 (H=150) plus Beta
# (H=200) 22-35% slower on a 2-core host, losing 15 of 16 pairs in each of two runs.
LOG_FACT_MAX = 1 << 16
_LOG_FACT: list[float] = []
# _LOG_COIN[t] = (log t, log(1.0 - t)) for a float coin 0 < t < 1, filled by
# the Bernoulli density on first use; a run reads a few coins, and the table
# is emptied when it holds LOG_COIN_MAX of them
LOG_COIN_MAX = 256
_LOG_COIN: dict[float, tuple[float, float]] = {}


class DomainError(ValueError):
    """A parameter or observation lies outside its legal domain."""


def float_of(x: Real) -> float:
    """float(x), or the infinity x rounds to past the float range (where ``float`` raises)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def complement(theta: Real) -> float:
    """The float of 1 - theta, with the digits near 1 that float(theta) loses."""
    return float_of(1 - theta)


def require_sigma(sigma, name: str = "sigma") -> None:
    """DomainError unless a scale is a finite number > 0: the normal
    family's sigma, or (as ``name="rate"``) the exponential prior's rate."""
    if sigma is None or not 0 < sigma < math.inf:
        raise DomainError(f"{name}={sigma} must be finite and > 0")


def require_square(x: float, shown: str) -> None:
    """DomainError unless the square of the float x, named ``shown``, is in the float range."""
    if not abs(x) < _SQUARE_MAX:
        raise DomainError(f"{shown}^2 = ({x})^2 is past the float range")


@dataclass(frozen=True)
class FamilySpec:
    """One of the three supported families; sigma is set iff kind == normal."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == NORMAL:
            require_sigma(self.sigma)
            sig = float_of(self.sigma)
            require_sigma(sig * sig, "sigma^2")  # the routes read sigma^2 too
        elif self.sigma is not None:
            raise DomainError(f"sigma is only meaningful for the normal family, not {self.kind}")

    def require_theta(self, theta: Real, closure: bool = False, shown: str = "") -> None:
        """Raise DomainError unless theta lies in the open parameter
        interval, or in its closure when ``closure`` is set; the message
        names theta as ``shown`` where that is given."""
        lo, hi = _DOMAINS[self.kind]
        if not (lo <= theta <= hi if closure else lo < theta < hi):
            kind = "closure of " if closure else ""
            bounds = f"({float(lo)}, {float(hi)})"
            raise DomainError(f"{shown or f'theta={theta}'} outside {kind}{bounds} "
                              f"for the {self.kind} family")


def bernoulli() -> FamilySpec:
    return FamilySpec(BERNOULLI)


def normal(sigma: float) -> FamilySpec:
    return FamilySpec(NORMAL, float_of(sigma))


def exponential() -> FamilySpec:
    return FamilySpec(EXPONENTIAL)


def fisher_information(family: FamilySpec, theta: Real) -> float:
    """Closed-form Fisher information I(theta) of a single observation."""
    family.require_theta(theta)
    t = float(theta)
    if family.kind == BERNOULLI:
        return 1.0 / (t * complement(theta))
    if family.kind == NORMAL:
        return 1.0 / (family.sigma**2)
    return 1.0 / (t * t)  # exponential


def log_bhattacharyya_reduction(family: FamilySpec, theta0: Real,
                                theta1: Real) -> tuple[Real, float]:
    """Midpoint parameter and log w, w the squared Bhattacharyya affinity of (theta0, theta1).

    The midpoint is taken in the natural parameterization, so the density at
    the midpoint is the normalized geometric average of the two densities.
    log w lies in [-inf, 0], is 0 on the diagonal and is symmetric.  Near the
    diagonal log w = log1p(-d^2), so n log w carries no cancellation, with
    d = (theta0 - theta1)/(sqrt(theta0(1-theta1)) + sqrt(theta1(1-theta0))) (Bernoulli)
    or (theta0 - theta1)/(theta0 + theta1).  The Bernoulli branch reads 1 - theta by ``complement``
    (theta0 - theta1 above 1/2 too) and returns mid = r/(r+s) as a Fraction of the float r, s.
    """
    family.require_theta(theta0)
    family.require_theta(theta1)
    t0, t1 = float(theta0), float(theta1)
    if family.kind == BERNOULLI:
        c0, c1 = complement(theta0), complement(theta1)
        r, s = math.sqrt(t0 * t1), math.sqrt(c0 * c1)
        d = (c1 - c0 if min(t0, t1) > 0.5 else t0 - t1) / (math.sqrt(t0 * c1) + math.sqrt(t1 * c0))
        mid = Fraction(r) / (Fraction(r) + Fraction(s))
        return mid, math.log1p(-d * d) if d * d < 0.5 else 2.0 * math.log(r + s)
    if family.kind == NORMAL:
        require_square(t0 - t1, "(theta0 - theta1)")
        sig = family.sigma
        return (t0 + t1) / 2.0, -((t0 - t1) ** 2) / (4.0 * sig * sig)
    mid = (t0 + t1) / 2.0  # exponential: w = theta0 theta1 / mid^2
    d = (t0 - t1) / (t0 + t1)
    if d * d < 0.5:
        return mid, math.log1p(-d * d)
    return mid, math.log(t0) + math.log(t1) - 2.0 * math.log(mid)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k) for ints 0 <= k <= n: the float
    lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1), with the three terms
    read from ``_LOG_FACT`` for n up to ``LOG_FACT_MAX``."""
    lf = _LOG_FACT
    try:
        return lf[n] - lf[k] - lf[n - k]
    except (IndexError, TypeError):
        pass
    if type(n) is int and n <= LOG_FACT_MAX:
        lf.extend(map(_lgamma, range(len(lf) + 1, n + 2)))  # grow to hold log n!
        return lf[n] - lf[k] - lf[n - k]
    return _lgamma(n + 1) - _lgamma(k + 1) - _lgamma(n - k + 1)


def suff_stat_log_density(family: FamilySpec, theta: Real, n: int, u: Real) -> float:
    """log density/pmf of u_n = sum of n iid observations, given theta.

    theta is checked here, for direct callers; the float Bernoulli routes
    of ``engine`` check theta exactly once at their entry and pass
    ``float(theta)``, which is all the arithmetic below reads.  The check
    compares theta with the domain bounds in place and calls
    ``require_theta`` only to raise its error."""
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    kind = family.kind
    lo, hi = _DOMAINS[kind]
    if kind == BERNOULLI:
        if not lo <= theta <= hi:
            family.require_theta(theta, closure=True)
        t = float(theta)
        if type(u) is int:
            if u < 0 or u > n:
                return NEG_INF
            k = u
        else:
            uf = float(u)
            if uf < 0 or uf > n or uf != int(uf):
                return NEG_INF
            k = int(uf)
        if t == 0.0:
            return 0.0 if k == 0 else NEG_INF
        if t == 1.0:
            return 0.0 if k == n else NEG_INF
        try:
            log_t, log_c = _LOG_COIN[t]
        except KeyError:
            if len(_LOG_COIN) >= LOG_COIN_MAX:
                _LOG_COIN.clear()
            log_t, log_c = _LOG_COIN[t] = _log(t), _log(1.0 - t)
        lf = _LOG_FACT
        # log_binomial(n, k), inlined for a table hit: calling it made the
        # float figure1, figure2 and Beta routes 4-6% slower (2-core host)
        try:
            log_choose = lf[n] - lf[k] - lf[n - k]
        except (IndexError, TypeError):
            log_choose = log_binomial(n, k)
        return log_choose + k * log_t + (n - k) * log_c
    if not lo < theta < hi:
        family.require_theta(theta)
    t = float(theta)
    uf = float(u)
    if kind == NORMAL:
        var = n * family.sigma**2
        return -0.5 * _log(2.0 * math.pi * var) - (uf - n * t) ** 2 / (2.0 * var)
    # exponential: Gamma(n, rate=theta)
    if uf < 0 or (uf == 0 and n > 1):
        return NEG_INF
    if uf == 0:  # n == 1, density at the boundary
        return _log(t)
    return n * _log(t) + (n - 1) * _log(uf) - t * uf - _lgamma(n)


def binomial_pmf_exact(theta: Fraction, n: int, k: int) -> Fraction:
    """Binomial(n, theta) mass at k as an exact rational; theta a rational
    in [0, 1].  With theta = p/q the mass is C(n,k) p^k (q-p)^(n-k) / q^n,
    built on the integers and reduced once."""
    if not isinstance(theta, (int, Fraction)):
        raise DomainError(f"theta={theta!r} must be an int or Fraction for an exact pmf")
    p, q = theta.numerator, theta.denominator
    if not 0 <= p <= q:
        raise DomainError(f"theta={theta} outside [0, 1]")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k) * p**k * (q - p) ** (n - k), q**n)
