"""Canonical one-dimensional exponential families.

Four families are supported, each with density
exp(eta(t) T(x) - A(eta(t)) - B(x)) and the parameterization fixed as:

    bernoulli    t in (0,1),   eta = log(t/(1-t)), T(x) = x
    normal       t in R,       eta = t,            T(x) = x / sigma^2   (sigma fixed)
    poisson      t in (0,inf), eta = log t,        T(x) = x
    exponential  t in (0,inf), eta = t,            T(x) = -x

The sufficient statistic of n iid draws is u_n = sum x_i, with laws
Binomial(n,t), Normal(n t, n sigma^2), Poisson(n t) and Gamma(n, rate=t).
Closed forms are implemented directly; eta/T only serve property tests.

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
POISSON = "poisson"
EXPONENTIAL = "exponential"

_KINDS = (BERNOULLI, NORMAL, POISSON, EXPONENTIAL)

NEG_INF = float("-inf")


class DomainError(ValueError):
    """A parameter or observation lies outside its legal domain."""


@dataclass(frozen=True)
class FamilySpec:
    """One of the four supported families; sigma is set iff kind == normal."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == NORMAL:
            if self.sigma is None or not self.sigma > 0:
                raise DomainError("normal family requires sigma > 0")
        elif self.sigma is not None:
            raise DomainError(f"sigma is only meaningful for the normal family, not {self.kind}")

    # -- domain ------------------------------------------------------

    def theta_domain(self) -> tuple[float, float]:
        """Open interval of valid parameters."""
        if self.kind == BERNOULLI:
            return (0.0, 1.0)
        if self.kind == NORMAL:
            return (-math.inf, math.inf)
        return (0.0, math.inf)

    def contains(self, theta: Real, closure: bool = False) -> bool:
        lo, hi = self.theta_domain()
        if closure:
            return lo <= theta <= hi
        return lo < theta < hi

    def require_theta(self, theta: Real, closure: bool = False) -> None:
        if not self.contains(theta, closure=closure):
            lo, hi = self.theta_domain()
            kind = "closure of " if closure else ""
            raise DomainError(
                f"theta={theta} outside {kind}({lo}, {hi}) for the {self.kind} family"
            )

    # -- natural parameter -------------------------------------------

    def eta(self, theta: float) -> float:
        self.require_theta(theta)
        t = float(theta)
        if self.kind == BERNOULLI:
            return math.log(t / (1.0 - t))
        if self.kind == POISSON:
            return math.log(t)
        return t  # normal, exponential

    def eta_inv(self, y: float) -> float:
        if self.kind == BERNOULLI:
            return 1.0 / (1.0 + math.exp(-y))
        if self.kind == POISSON:
            return math.exp(y)
        return y

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == NORMAL:
            out["sigma"] = self.sigma
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise DomainError("family object must carry a 'kind' field")
        kind = obj["kind"]
        if kind == NORMAL:
            if "sigma" not in obj:
                raise DomainError("normal family requires a 'sigma' field")
            return cls(NORMAL, float(obj["sigma"]))
        extra = set(obj) - {"kind"}
        if extra:
            raise DomainError(f"unexpected family fields {sorted(extra)} for kind {kind!r}")
        return cls(kind)


def bernoulli() -> FamilySpec:
    return FamilySpec(BERNOULLI)


def normal(sigma: float) -> FamilySpec:
    return FamilySpec(NORMAL, float(sigma))


def poisson() -> FamilySpec:
    return FamilySpec(POISSON)


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
    if family.kind == POISSON:
        return 1.0 / t
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
    if family.kind == POISSON:
        return math.sqrt(t0 * t1), math.exp(-((math.sqrt(t0) - math.sqrt(t1)) ** 2))
    mid = (t0 + t1) / 2.0
    return mid, t0 * t1 / (mid * mid)  # exponential


def log_density(family: FamilySpec, theta: Real, x: Real) -> float:
    """log p_theta(x); observations outside the support map to -inf."""
    family.require_theta(theta)
    t = float(theta)
    xf = float(x)
    if family.kind == BERNOULLI:
        if xf == 1.0:
            return math.log(t)
        if xf == 0.0:
            return math.log(1.0 - t)
        return NEG_INF
    if family.kind == NORMAL:
        sig = family.sigma
        return -0.5 * math.log(2.0 * math.pi * sig * sig) - (xf - t) ** 2 / (2.0 * sig * sig)
    if family.kind == POISSON:
        if xf < 0 or xf != int(xf):
            return NEG_INF
        k = int(xf)
        return k * math.log(t) - t - math.lgamma(k + 1)
    # exponential, density t*exp(-t*x) on [0, inf)
    if xf < 0:
        return NEG_INF
    return math.log(t) - t * xf


def suff_stat_log_density(family: FamilySpec, theta: Real, n: int, u: Real) -> float:
    """log density/pmf of u_n = sum of n iid observations, given theta."""
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    family.require_theta(theta, closure=(family.kind == BERNOULLI))
    t = float(theta)
    uf = float(u)
    if family.kind == BERNOULLI:
        if uf < 0 or uf > n or uf != int(uf):
            return NEG_INF
        k = int(uf)
        log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        if t == 0.0:
            return 0.0 if k == 0 else NEG_INF
        if t == 1.0:
            return 0.0 if k == n else NEG_INF
        return log_choose + k * math.log(t) + (n - k) * math.log(1.0 - t)
    if family.kind == NORMAL:
        var = n * family.sigma**2
        return -0.5 * math.log(2.0 * math.pi * var) - (uf - n * t) ** 2 / (2.0 * var)
    if family.kind == POISSON:
        if uf < 0 or uf != int(uf):
            return NEG_INF
        k = int(uf)
        lam = n * t
        return k * math.log(lam) - lam - math.lgamma(k + 1)
    # exponential: Gamma(n, rate=theta)
    if uf < 0 or (uf == 0 and n > 1):
        return NEG_INF
    if uf == 0:  # n == 1, density at the boundary
        return math.log(t)
    return n * math.log(t) + (n - 1) * math.log(uf) - t * uf - math.lgamma(n)


def binomial_pmf_exact(theta: Fraction, n: int, k: int) -> Fraction:
    """Binomial(n, theta) mass at k as an exact rational; theta in [0, 1]."""
    if not 0 <= theta <= 1:
        raise DomainError(f"theta={theta} outside [0, 1]")
    if k < 0 or k > n:
        return Fraction(0)
    return math.comb(n, k) * theta**k * (1 - theta) ** (n - k)


def numeric_affinity(family: FamilySpec, theta0: Real, theta1: Real) -> float:
    """Squared affinity by direct summation/quadrature; reduction cross-check."""
    from .quadrature import integrate_half_line, integrate_real_line

    tol = 1e-12  # quadrature tolerance; the Poisson sum stops below 1e-3 of it
    family.require_theta(theta0)
    family.require_theta(theta1)

    def half_log(x):
        return 0.5 * (log_density(family, theta0, x) + log_density(family, theta1, x))

    if family.kind == BERNOULLI:
        root = math.exp(half_log(0)) + math.exp(half_log(1))
        return root * root
    if family.kind == POISSON:
        total, k = 0.0, 0
        while True:
            term = math.exp(half_log(k))
            total += term
            k += 1
            if k > 20 and term < tol * 1e-3:
                break
        return total * total
    if family.kind == NORMAL:
        root, _ = integrate_real_line(lambda x: math.exp(half_log(x)), tol=tol)
        return root * root
    root, _ = integrate_half_line(lambda x: math.exp(half_log(x)), tol=tol)
    return root * root
