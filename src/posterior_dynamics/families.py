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
sqrt(p_{t0} p_{t1}) stays inside the family; ``bhattacharyya_reduction``
returns that midpoint parameter together with the squared Bhattacharyya
affinity (integral of sqrt(p_{t0} p_{t1}), squared), the per-observation
geometric decay factor of expected posteriors.
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

_log = math.log
_lgamma = math.lgamma
# _LOG_FACT[i] = lgamma(i + 1) = log i!.  The table is empty at import and
# ``log_factorials`` grows it to the largest n ``log_binomial`` or the
# integer-shape Beta marginal asks for, up to LOG_FACT_MAX (about 2 MB of
# floats); a larger n takes lgamma directly.
LOG_FACT_MAX = 1 << 16
_LOG_FACT: list[float] = []


class DomainError(ValueError):
    """A parameter or observation lies outside its legal domain."""


def float_of(x: Real) -> float:
    """float(x), or the infinity x rounds to past the float range (where ``float`` raises)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def require_sigma(sigma, name: str = "sigma") -> None:
    """DomainError unless a scale is a finite number > 0: the normal
    family's sigma, or (as ``name="rate"``) the exponential prior's rate."""
    if sigma is None or not 0 < sigma < math.inf:
        raise DomainError(f"{name}={sigma} must be finite and > 0")


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

    def require_theta(self, theta: Real, closure: bool = False) -> None:
        """Raise DomainError unless theta lies in the open parameter
        interval, or in its closure when ``closure`` is set."""
        lo, hi = _DOMAINS[self.kind]
        if not (lo <= theta <= hi if closure else lo < theta < hi):
            kind = "closure of " if closure else ""
            bounds = f"({float(lo)}, {float(hi)})"
            raise DomainError(f"theta={theta} outside {kind}{bounds} for the {self.kind} family")


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
        return 1.0 / (t * (1.0 - t))
    if family.kind == NORMAL:
        return 1.0 / (family.sigma**2)
    return 1.0 / (t * t)  # exponential


def bhattacharyya_reduction(family: FamilySpec, theta0: Real, theta1: Real) -> tuple[float, float]:
    """Midpoint parameter and squared Bhattacharyya affinity for (theta0, theta1).

    The midpoint is taken in the natural parameterization, so the density at
    the midpoint is the normalized geometric average of the two densities.
    The affinity lies in (0, 1], equals 1 iff theta0 == theta1, and is
    symmetric in its arguments.
    """
    family.require_theta(theta0)
    family.require_theta(theta1)
    t0, t1 = float(theta0), float(theta1)
    if family.kind == BERNOULLI:
        r = math.sqrt(t0 * t1)
        s = math.sqrt((1.0 - t0) * (1.0 - t1))
        return r / (r + s), (r + s) ** 2
    if family.kind == NORMAL:
        sig = family.sigma
        return (t0 + t1) / 2.0, math.exp(-((t0 - t1) ** 2) / (4.0 * sig * sig))
    mid = (t0 + t1) / 2.0
    return mid, t0 * t1 / (mid * mid)  # exponential


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
        lf = log_factorials(n)
        return lf[n] - lf[k] - lf[n - k]
    return _lgamma(n + 1) - _lgamma(k + 1) - _lgamma(n - k + 1)


def log_factorials(m: int) -> list[float]:
    """``_LOG_FACT``, grown to hold log m! for an int m <= LOG_FACT_MAX."""
    lf = _LOG_FACT
    if len(lf) <= m:
        lf.extend(map(_lgamma, range(len(lf) + 1, m + 2)))
    return lf


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
        lf = _LOG_FACT
        try:  # log_binomial(n, k), inlined for a table hit
            log_choose = lf[n] - lf[k] - lf[n - k]
        except (IndexError, TypeError):
            log_choose = log_binomial(n, k)
        return log_choose + k * _log(t) + (n - k) * _log(1.0 - t)
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
