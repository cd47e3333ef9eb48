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

from .util import ExactValue

Real = Union[int, float, Fraction]


class SpecialFnDomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Legendre polynomials on |x| >= 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LegendreEval:
    """P_n(x) as (log|P_n|, sign)."""

    n: int
    x: float
    log_abs: float
    sign: int

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
    r = x
    ratios = [r]
    for k in range(1, n):
        r = ((2 * k + 1) * x - k / r) / (k + 1)
        ratios.append(r)
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
    return LegendreEval(n, x, log_abs, sign)


def legendre_leading_coefficient(n: int) -> Fraction:
    """Coefficient of x^n in P_n: C(2n, n) / 2^n."""
    return Fraction(math.comb(2 * n, n), 2**n)


def turan_bound(n: int) -> Fraction:
    return Fraction((n + 1) ** 2, n * (n + 2))


def turan_limit(n: int) -> Fraction:
    return Fraction(n * (2 * n + 1), (n + 1) * (2 * n - 1))


def turan_ratio(n: int, x: float) -> float:
    """P_{n-1}(x) P_{n+1}(x) / P_n(x)^2 for n >= 1, x > 1, via ratios; its
    bound is ``turan_bound(n)`` and its x -> inf limit ``turan_limit(n)``."""
    if n < 1:
        raise SpecialFnDomainError(f"n={n} must be >= 1")
    if not x > 1.0:
        raise SpecialFnDomainError(f"x={x} must be > 1")
    ratios = legendre_ratios(n + 1, x)
    return ratios[n] / ratios[n - 1]


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
    # with D = q s, Y = p s and Z = r q, S_n = (n+1) Q_n / D^n where
    # Q_n = sum_k C(n,k)^2 Y^k Z^(n-k) is an integer obeying the Legendre
    # recurrence in homogeneous form (the division by n is exact):
    #   n Q_n = (2n-1)(Y+Z) Q_{n-1} - (n-1)(Z-Y)^2 Q_{n-2},  Q_0 = 1, Q_1 = Y+Z
    p, q = y.numerator, y.denominator
    r, s = z.numerator, z.denominator
    big_y, big_z, d = p * s, r * q, q * s
    sum_yz, diff_sq = big_y + big_z, (big_z - big_y) ** 2
    prev, cur, den = 1, sum_yz, 1  # Q_0, Q_1, D^0
    out = []
    for n in range(1, n_max + 1):
        if n > 1:
            prev, cur = cur, ((2 * n - 1) * sum_yz * cur - (n - 1) * diff_sq * prev) // n
        den *= d
        # reduced, because canonical_str judges the size of the stored pair
        num = (n + 1) * cur
        g = math.gcd(num, den)
        out.append(ExactValue(num // g, den // g))
    return out


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
    log = math.log
    last_log_k = 0.5 * (log(math.pi) - log(2.0) - log(theta)) - theta
    last_rho = 1.0
    log_k, rho = [last_log_k], [last_rho]
    for odd in range(1, 2 * n_max, 2):  # 2n + 1
        step = odd / theta + last_rho  # k_{n+1} / k_n
        last_log_k += log(step)
        last_rho = 1.0 / step
        log_k.append(last_log_k)
        rho.append(last_rho)
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
