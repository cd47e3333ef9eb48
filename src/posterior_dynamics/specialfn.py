"""Legendre polynomials, Turan-type ratios, half-integer Bessel K, and the
bivariate binomial-square sum that ties them to Bernoulli expected posteriors.

Values grow like (2x)^n and overflow float64 near degree 300 for large
arguments, so sequences are carried as (log magnitude, sign) together with
first-order ratios; the inequalities of interest are ratio statements, so
ratios are also the numerically natural representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .util import ExactValue, logsumexp

Real = Union[int, float, Fraction]


class SpecialFnDomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Legendre polynomials on |x| >= 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegendreEval:
    """P_n(x) as (log|P_n|, sign), plus the ratio P_n / P_{n-1} (n >= 1)."""

    n: int
    x: float
    log_abs: float
    sign: int
    ratio: float | None

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_abs)


def legendre_ratios(n: int, x: float) -> list[float]:
    """[r_1, ..., r_n] with r_k = P_k(x)/P_{k-1}(x), for x >= 1.

    Three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} rewritten
    on ratios: r_{k+1} = ((2k+1) x - k / r_k) / (k+1).  For x >= 1 every
    P_k is positive and r_k >= 1, so the forward recursion is stable.
    """
    if x < 1.0:
        raise SpecialFnDomainError(f"x={x} < 1; supported domain is |x| >= 1")
    if n < 1:
        return []
    ratios = [x]
    for k in range(1, n):
        ratios.append(((2 * k + 1) * x - k / ratios[-1]) / (k + 1))
    return ratios


def legendre_P(n: int, x: float) -> LegendreEval:
    """Legendre polynomial of degree n at |x| >= 1, in log/sign form.

    x <= -1 is mapped through the parity P_n(-x) = (-1)^n P_n(x); |x| < 1
    is rejected (the inequalities audited here live on |x| >= 1).
    """
    if n < 0:
        raise SpecialFnDomainError(f"degree n={n} must be >= 0")
    sign = 1
    if x <= -1.0:
        x = -x
        sign = -1 if n % 2 else 1
    if x < 1.0:
        raise SpecialFnDomainError(f"x={x} inside (-1, 1); supported domain is |x| >= 1")
    ratios = legendre_ratios(n, x)
    log_abs = math.fsum(math.log(r) for r in ratios)
    return LegendreEval(n, x, log_abs, sign, ratios[-1] if ratios else None)


def legendre_leading_coefficient(n: int) -> Fraction:
    """Coefficient of x^n in P_n: C(2n, n) / 2^n."""
    return Fraction(math.comb(2 * n, n), 2**n)


@dataclass(frozen=True)
class TuranRatio:
    """The ratio P_{n-1} P_{n+1} / P_n^2 with its bound and its x->inf limit."""

    n: int
    x: float
    ratio: float
    bound: Fraction  # (n+1)^2 / (n (n+2))
    limit: Fraction  # n (2n+1) / ((n+1) (2n-1))


def turan_bound(n: int) -> Fraction:
    return Fraction((n + 1) ** 2, n * (n + 2))


def turan_limit(n: int) -> Fraction:
    return Fraction(n * (2 * n + 1), (n + 1) * (2 * n - 1))


def turan_ratio(n: int, x: float) -> TuranRatio:
    """P_{n-1}(x) P_{n+1}(x) / P_n(x)^2 for n >= 1, x > 1, via ratios."""
    if n < 1:
        raise SpecialFnDomainError(f"n={n} must be >= 1")
    if not x > 1.0:
        raise SpecialFnDomainError(f"x={x} must be > 1")
    ratios = legendre_ratios(n + 1, x)
    value = ratios[n] / ratios[n - 1]
    return TuranRatio(n, x, value, turan_bound(n), turan_limit(n))


# ---------------------------------------------------------------------------
# binomial-square sums S_n(y, z) = (n+1) sum_k C(n,k)^2 y^k z^(n-k)
# ---------------------------------------------------------------------------


def binomial_square_sum(y: Real, z: Real, n_max: int) -> list:
    """[S_1, ..., S_{n_max}] as exact ExactValues, for rational y, z.

    S_n is symmetric in (y, z), homogeneous of degree n, and connects to
    Legendre polynomials through S_n(y,z) = (y-z)^n (n+1) P_n((y+z)/(y-z))
    for y > z; for y == z it collapses to y^n (n+1) C(2n, n).
    """
    y = Fraction(y)
    z = Fraction(z)
    if y < 0 or z < 0 or (y == 0 and z == 0):
        raise SpecialFnDomainError("binomial_square_sum needs y, z >= 0, not both 0")
    p, q = y.numerator, y.denominator
    r, s = z.numerator, z.denominator
    # term k of the numerator over denominator (q s)^n is
    #   C(n,k)^2 p^k r^(n-k) q^(n-k) s^k = C(n,k)^2 (p s)^k (r q)^(n-k)
    ps, rq = p * s, r * q
    pow_ps = [1] * (n_max + 1)
    pow_rq = [1] * (n_max + 1)
    for i in range(1, n_max + 1):
        pow_ps[i] = pow_ps[i - 1] * ps
        pow_rq[i] = pow_rq[i - 1] * rq
    out = []
    for n in range(1, n_max + 1):
        total = 0
        c = 1  # C(n, k), updated incrementally
        for k in range(n + 1):
            total += c * c * pow_ps[k] * pow_rq[n - k]
            if k < n:
                c = c * (n - k) // (k + 1)
        # reduced, because canonical_str judges the size of the stored pair
        value = Fraction((n + 1) * total, (q * s) ** n)
        out.append(ExactValue(value.numerator, value.denominator))
    return out


def log_binomial_square_sum(y: float, z: float, n: int) -> float:
    """log S_n(y, z) for floats, by direct stable summation."""
    if y < 0 or z < 0 or (y == 0 and z == 0):
        raise SpecialFnDomainError("binomial_square_sum needs y, z >= 0, not both 0")
    if y == 0 or z == 0:
        base = max(y, z)
        return math.log(n + 1) + n * math.log(base)
    ly, lz = math.log(y), math.log(z)
    terms = []
    lc = 0.0  # log C(n, k)
    for k in range(n + 1):
        terms.append(2.0 * lc + k * ly + (n - k) * lz)
        lc += math.log(n - k) - math.log(k + 1) if k < n else 0.0
    return math.log(n + 1) + logsumexp(terms)


# ---------------------------------------------------------------------------
# modified Bessel K at half-integer orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesselHalfSeq:
    """k_n = K_{n+1/2}(theta) for n = 0..N in log form, with back ratios.

    log_k[n] = log k_n; rho[n] = k_{n-1}/k_n, where k_{-1} = K_{-1/2} equals
    k_0 by the symmetry of K in its order, so rho[0] = 1.
    """

    theta: float
    log_k: tuple[float, ...]
    rho: tuple[float, ...]


def bessel_K_half(theta: float, n_max: int) -> BesselHalfSeq:
    """Forward recursion k_{n+1} = ((2n+1)/theta) k_n + k_{n-1}.

    K grows with its order, so the forward direction is stable.  The base
    value is K_{1/2}(theta) = sqrt(pi/(2 theta)) exp(-theta).
    """
    if not theta > 0:
        raise SpecialFnDomainError(f"theta={theta} must be > 0")
    if n_max < 0:
        raise SpecialFnDomainError(f"n_max={n_max} must be >= 0")
    log_k = [0.5 * (math.log(math.pi) - math.log(2.0) - math.log(theta)) - theta]
    rho = [1.0]
    for n in range(n_max):
        step = (2 * n + 1) / theta + rho[n]  # k_{n+1} / k_n
        log_k.append(log_k[n] + math.log(step))
        rho.append(1.0 / step)
    return BesselHalfSeq(theta, tuple(log_k), tuple(rho))


def segura_bracket(n: int, theta: float) -> tuple[float, float]:
    """Analytic bracket (lower, upper) for rho_n = K_{n-1/2}/K_{n+1/2}.

    Lower: theta / (n + 1/2 + sqrt((n - 3/2)^2 + theta^2)); upper: theta.
    """
    if n < 2:
        raise SpecialFnDomainError(f"n={n} must be >= 2")
    if not theta > 0:
        raise SpecialFnDomainError(f"theta={theta} must be > 0")
    lower = theta / (n + 0.5 + math.sqrt((n - 1.5) ** 2 + theta * theta))
    return lower, theta


def logconcavity_ratio_from_bessel(n: int, theta: float, rho: float) -> float:
    """psi(n-1) psi(n+1) / psi(n)^2 of the exponential-model sequence, as a
    function of the Bessel back ratio rho = k_{n-1}/k_n.

    n [ (2n^2+3n+1)/theta + 2n+1+theta + (n+1+theta) rho ] [ theta - (n-theta) rho ]
    -----------------------------------------------------------------------------
                         (n+1) (n + theta + theta rho)^2
    """
    if n < 2:
        raise SpecialFnDomainError(f"n={n} must be >= 2")
    if not theta > 0:
        raise SpecialFnDomainError(f"theta={theta} must be > 0")
    if rho < 0 or rho > theta:
        raise SpecialFnDomainError(f"rho={rho} outside [0, theta={theta}]")
    first = (2.0 * n * n + 3.0 * n + 1.0) / theta + 2.0 * n + 1.0 + theta + (n + 1.0 + theta) * rho
    second = theta - (n - theta) * rho
    return n * first * second / ((n + 1.0) * (n + theta + theta * rho) ** 2)
