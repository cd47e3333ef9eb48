"""Legendre polynomials, the Turan-type polynomials of their scaled-ratio
bound, half-integer Bessel K, and the bivariate binomial-square sum that ties
them to Bernoulli expected posteriors, with its integral form J_n(c) for one n.

The binomial-square sums obey the homogeneous Legendre recurrence, which
``binomial_square_sum`` runs on exact integers and ``legendre_ratios`` on the
float ratios of consecutive terms, which neither overflow nor cancel; the
Turan audit works on the exact integer coefficients of P_n in s = (x - 1)/2,
where x >= 1 is s >= 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .bipoly import poly_mul, poly_sub
from .families import DomainError
from .util import ExactValue

Real = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Legendre polynomials on x >= 1
# ---------------------------------------------------------------------------


def legendre_ratios(n: int, y: float, z: float) -> list[float]:
    """[q_1, ..., q_n], q_k = Q_k/Q_{k-1} with Q_k = sum_j C(k,j)^2 y^j z^(k-j), y, z >= 0
    not both 0: the homogeneous Legendre recurrence k Q_k = (2k-1) s Q_{k-1} - (k-1) d^2 Q_{k-2},
    s = y + z, d = z - y, on ratios.  The q_k rise from q_1 = s to (sqrt y + sqrt z)^2 <= 2s,
    so the subtracted term is at most (k-1) s and the forward recursion is stable.  At
    y = (x-1)/2, z = (x+1)/2 it gives P_k(x)/P_{k-1}(x); at y = z, C(2k,k)/C(2k-2,k-1) y."""
    if not (y >= 0.0 and z >= 0.0 and y + z > 0.0):
        raise DomainError(f"y={y}, z={z}: need y, z >= 0, not both 0")
    s, d2 = y + z, (z - y) * (z - y)
    q, ratios = s, [s][:n]
    for k in range(2, n + 1):
        q = ((2 * k - 1) * s - (k - 1) * d2 / q) / k
        ratios.append(q)
    return ratios


def legendre_shifted(n: int) -> list[int]:
    """Integer coefficients of P_n(1 + 2s) in s, ascending: C(n, k) C(n+k, k).
    The first is P_n(1) = 1; the last over 2^n is the x^n coefficient of P_n."""
    if n < 0:
        raise DomainError(f"degree n={n} must be >= 0")
    return [math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1)]


def turan_bound(n: int) -> Fraction:
    return Fraction((n + 1) ** 2, n * (n + 2))


def turan_limit(n: int) -> Fraction:
    return Fraction(n * (2 * n + 1), (n + 1) * (2 * n - 1))


def turan_polynomials(n: int) -> tuple[list[int], list[int]]:
    """A_n = (n+1)^2 P_n^2 - n(n+2) P_{n-1} P_{n+1} and B_n = P_{n-1} P_{n+1} - P_n^2
    for n >= 1, as integer coefficients in s = (x - 1)/2.  P_n > 0 on x >= 1, so
    there A_n >= 0 is R_n = P_{n-1} P_{n+1} / P_n^2 <= ``turan_bound(n)``, B_n > 0
    is R_n > 1, and R_n -> ``turan_limit(n)`` as x -> inf."""
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    prev, cur, nxt = ([legendre_shifted(k)] for k in (n - 1, n, n + 1))
    square, straddle = poly_mul(cur, cur), poly_mul(prev, nxt)
    a = poly_sub(poly_mul([[(n + 1) ** 2]], square), poly_mul([[n * (n + 2)]], straddle))
    return a[0], poly_sub(straddle, square)[0]


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
        raise DomainError("binomial_square_sum needs y, z >= 0, not both 0")
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


def log_legendre_integral(n: int, c: float) -> tuple[float, int]:
    """(log J_n(c), M) for n >= 1, 0 <= c <= 1: J_n(c) = 2F1(-n, 1/2; 1; c) is
    (1/pi) int_0^pi (1 - c sin^2(phi/2))^n dphi, the mean of (1 - b + b cos phi)^n, b = c/2,
    taken as T_M = (1/M) sum_{j<M} (1 - c sin^2(pi j/M))^n.  Its Fourier coefficients are
    >= 0, none past n, so 0 <= T_M - J_n <= B = 2 (1 + b (cosh tau - 1))^n e^(-M tau) /
    (1 - e^(-M tau)) for every tau > 0.  M <= n + 1 is the first with B <= 2^-60 L at
    tau = asinh(M/(n b)), L = min(2/3, 4/(3 pi sqrt(n c))) <= J_n by (1 - x)^n >= 1 - n x
    and sin t <= t.  Below n c = 2^-60, log J_n = -n c/2 to rounding (M = 0)."""
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"c={c} outside [0, 1]")
    if n * c < 2.0**-60:
        return -0.5 * n * c, 0
    target = -math.log(max(1.5, 0.75 * math.pi * math.sqrt(n * c))) - 60.0 * math.log(2.0)

    def log_bound(m: int) -> float:
        s = 2.0 * m / (n * c)  # sinh tau, and cosh tau - 1 = s^2 / (1 + cosh tau)
        tau = math.asinh(s)
        return (n * math.log1p(0.5 * c * s * (s / (1.0 + math.hypot(1.0, s)))) - m * tau
                + math.log(2.0 / -math.expm1(-m * tau)))

    m = bisect_left(range(1, n + 1), True, key=lambda k: log_bound(k) <= target) + 1
    # nodes j and m - j agree, so all but the middle node of an even m count
    # twice; sin^2 = 1 at c = 1 is the endpoint, where the integrand is 0
    xs = (c * math.sin(math.pi * j / m) ** 2 for j in range(1, m // 2 + 1))
    terms = [math.exp(n * math.log1p(-x)) if x < 1.0 else 0.0 for x in xs]
    return math.log((1.0 + math.fsum(terms) + math.fsum(terms[:(m - 1) // 2])) / m), m


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
        raise DomainError(f"theta={theta} must be > 0")
    if n_max < 0:
        raise DomainError(f"n_max={n_max} must be >= 0")
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


def weighted_integral(n: int, m: int, theta: Real) -> Fraction:
    """The integral of u^n (u + 1)^m e^(-2 theta u) over u > 0, exactly.

    Term by term in the binomial expansion of (u + 1)^m it is
    sum_j C(m, j) (n + j)! / (2 theta)^(n + j + 1), a finite rational sum:
    theta is taken as Fraction(theta), which every float is exactly.
    """
    two_theta = 2 * Fraction(theta)
    if not two_theta > 0:
        raise DomainError(f"theta={theta} must be > 0")
    # over the common denominator p^(n+m+1), with 2 theta = p / q
    p, q = two_theta.numerator, two_theta.denominator
    total = sum(
        math.comb(m, j) * math.factorial(n + j) * q ** (n + j + 1) * p ** (m - j)
        for j in range(m + 1)
    )
    return Fraction(total, p ** (n + m + 1))


def segura_bracket(n: int, theta: float) -> tuple[float, float]:
    """Analytic bracket (lower, upper) for rho_n = K_{n-1/2}/K_{n+1/2}.

    Lower: theta / (n + 1/2 + sqrt((n - 3/2)^2 + theta^2)); upper: theta.
    """
    if n < 2:
        raise DomainError(f"n={n} must be >= 2")
    if not theta > 0:
        raise DomainError(f"theta={theta} must be > 0")
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
        raise DomainError(f"n={n} must be >= 2")
    if not theta > 0:
        raise DomainError(f"theta={theta} must be > 0")
    if rho < 0 or rho > theta:
        raise DomainError(f"rho={rho} outside [0, theta={theta}]")
    first = (2.0 * n * n + 3.0 * n + 1.0) / theta + 2.0 * n + 1.0 + theta + (n + 1.0 + theta) * rho
    second = theta - (n - theta) * rho
    return n * first * second / ((n + 1.0) * (n + theta + theta * rho) ** 2)
