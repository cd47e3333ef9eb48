"""Expected-posterior sequences by four interchangeable routes.

For a parameter pair (theta0, theta1) the quantity of interest is the
expectation, under data generated at theta1, of the posterior weight (or
density) at theta0 after n observations.  Routes:

  * exact big-rational summation over the sufficient statistic
    (Bernoulli observations, finite atom priors, Beta/uniform priors);
  * closed forms for normal observations + standard normal prior and
    exponential observations + exponential prior (half-integer Bessel K);
  * adaptive quadrature over the sufficient statistic (oracle route);
  * brute-force enumeration of all 2^n raw Bernoulli sequences (oracle
    route, deliberately ignorant of sufficiency).

Default arithmetic for discrete Bernoulli priors is exact: the short-range
wiggles this library hunts for must not be floating-point artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, pairwise
from typing import Union

from . import families as fam
from . import priors as pr
from .families import BERNOULLI, EXPONENTIAL, NEG_INF, NORMAL, DomainError, FamilySpec
from .priors import (
    AtomIntegerForm,
    Beta,
    DiscreteAtoms,
    ExpPrior,
    ImpossibleObservationError,
    Prior,
    StdNormal,
    Uniform01,
    UnsupportedConjugacyError,
)
from .quadrature import integrate_half_line, integrate_real_line
from .specialfn import bessel_K_half, binomial_square_sum, legendre_ratios, log_legendre_integral
from .util import (
    CANONICAL_RATIONAL_BITS,
    ENCLOSURE_BITS,
    DeferredExactValue,
    ExactValue,
    certified_quotient,
    fixed_point_sum,
    logsumexp,
    tree_sum_fractions,
)

Real = Union[int, float, Fraction]

METHOD_EXACT = "exact_rational"
# the float branch of the atom and Beta routes: the same finite sum over
# u_n, taken in log space
METHOD_FLOAT_SUM = "float_finite_sum"
METHOD_NORMAL = "closed_form_normal"
METHOD_EXP_BESSEL = "closed_form_exp_bessel"
METHOD_UNIFORM = "uniform_prior_legendre"

REPR_RATIONAL = "rational"
REPR_FLOAT = "float"

NUMERIC_MODES = ("auto", "exact", "float")

BRUTEFORCE_CAP = 14


@dataclass
class ExpectedPosteriorSequence:
    """Values of the expected posterior for n = 1..N plus tags.

    Exact routes pass ``values`` (ExactValue entries), float routes pass
    ``log_values``; the other list is derived, so ``values`` holds
    ExactValues or floats and ``log_values`` always holds float logs
    (no deferred pair is built for them).
    """

    family: FamilySpec
    theta0: Real
    theta1: Real
    method: str
    values: list | None = None
    log_values: list[float] | None = None
    _floats: list[float] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.values is None) == (self.log_values is None):
            raise ValueError("pass exactly one of values and log_values")
        if self.values is None:
            self.values = list(map(math.exp, self.log_values))
        else:
            # one division per eager value gives its float and its log; a
            # value beyond the float range leaves float_values to raise.
            # Two appended lists, since a list of (float, log) pairs raised
            # the exact-rational benchmark's peak RSS by about 0.4 MB.
            floats, logs = [], []
            for v in self.values:
                f, lv = v.float_log()
                floats.append(f)
                logs.append(lv)
            self.log_values = logs
            self._floats = floats if math.inf not in floats else None

    @property
    def representation(self) -> str:
        return REPR_RATIONAL if isinstance(self.values[0], ExactValue) else REPR_FLOAT

    @property
    def horizon(self) -> int:
        return len(self.values)

    def ns(self) -> range:
        return range(1, len(self.values) + 1)

    def value(self, n: int):
        return self.values[n - 1]

    def float_values(self) -> list[float]:
        """The values as floats: on an exact route those taken with the
        logs (``float(v)`` raises OverflowError beyond the float range),
        on a float route ``values`` itself; not a copy, so callers must not
        mutate it."""
        if not isinstance(self.values[0], ExactValue):
            return self.values
        if self._floats is None:
            self._floats = [float(v) for v in self.values]
        return self._floats

    def rational_strings(self) -> list[str | None]:
        """Canonical "p/q" per value, or None where reduction is too big."""
        return [v.canonical_str() if isinstance(v, ExactValue) else None for v in self.values]


def _rational(*values) -> bool:
    """Whether every value is exact (int or Fraction), so a route may run exact."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _resolve_exact(mode: str, exact_ok: bool, requirement: str) -> bool:
    """Whether a Bernoulli route runs exact: ``auto`` picks exact when the
    inputs allow it, ``exact`` is honoured or refused, never downgraded."""
    if mode not in NUMERIC_MODES:
        raise DomainError(f"unknown numeric mode {mode!r}")
    if mode == "exact" and not exact_ok:
        raise DomainError(f"exact mode requires {requirement}")
    return mode != "float" and exact_ok


def _bernoulli_float_log(
    theta0: float, theta1: float, n: int, log_pi0: float, log_marginal
) -> float:
    """log psi(n) = log sum_k pi(theta0) p_theta0(k) p_theta1(k) / m(k) over
    u_n = k, where ``log_marginal(n, k)`` is log m(k), the prior predictive.

    The thetas are floats: each caller passes those that its one
    ``require_inputs`` gate returns, the values the density reads anyway."""
    family = fam.bernoulli()
    density = fam.suff_stat_log_density
    terms = []
    for k in range(n + 1):
        lp0 = density(family, theta0, n, k)
        lp1 = density(family, theta1, n, k)
        lmarg = log_marginal(n, k)
        if lmarg == NEG_INF:
            if lp1 > NEG_INF:
                raise ImpossibleObservationError.at(n, k)
            continue
        terms.append(log_pi0 + lp0 + lp1 - lmarg)
    return logsumexp(terms)


# ---------------------------------------------------------------------------
# Bernoulli observations, finite atom prior
# ---------------------------------------------------------------------------


def expected_posterior_discrete(
    prior: DiscreteAtoms,
    theta0: Real,
    theta1: Real,
    horizon: int,
    mode: str = "auto",
) -> ExpectedPosteriorSequence:
    """Bernoulli observations with an atom prior, summed over u_n.

    theta0 must be an atom; theta1 may be any parameter in [0, 1].  In
    exact mode (default whenever all inputs are rational) every value is an
    exact big rational; one too large for ``canonical_str`` is a
    ``DeferredExactValue`` whose certified quotient gives its float and
    log, and whose pair is built on first use.  Float mode sums in log
    space against the running maximum term.  A count u_n that theta1 can
    produce but no atom can raises ImpossibleObservationError in both.
    """
    family = fam.bernoulli()
    t0, t1 = pr.require_inputs(family, prior, theta0, theta1, horizon)
    exact_ok = _rational(theta0, theta1, *prior.thetas)
    if _resolve_exact(mode, exact_ok, "rational atoms, weights, theta0, theta1"):
        values = _discrete_exact_values(prior, theta0, theta1, horizon)
        return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_EXACT, values=values)
    t0w = pr.prior_log_density(prior, theta0)
    weighted = [(float(t), lw) for t, lw in prior.log_weights]

    # its own loop over float atoms: partial(marginal_suffstat_logpmf, ...)
    # made float figure1 at H=150 4.7% slower (2-core host)
    def log_marginal(n: int, k: int) -> float:
        density = fam.suff_stat_log_density
        return logsumexp([lw + density(family, t, n, k) for t, lw in weighted])

    logs = [_bernoulli_float_log(t0, t1, n, t0w, log_marginal) for n in range(1, horizon + 1)]
    return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_FLOAT_SUM, log_values=logs)


@dataclass(frozen=True)
class _AtomIntegers:
    """The exact atom route over integers: the prior's integer form over
    the common denominator of its atoms and theta1, with theta1 on it too
    (theta1 = a1/denom, 1 - theta1 = b1/denom).  Floats and logs depend on
    psi alone, but which values print "p/q" and which are deferred follows
    the width of the pair, which this one denominator keeps as it is."""

    form: AtomIntegerForm
    w0: int  # the weight of theta0
    a01: int  # a0 a1: theta0 theta1 times denom^2
    b01: int  # b0 b1
    a1: int
    b1: int

    @classmethod
    def of(cls, prior: DiscreteAtoms, theta0, theta1) -> _AtomIntegers:
        t1 = Fraction(theta1)
        form = prior.integer_form
        form = form.over(math.lcm(form.denom, t1.denominator))
        w0, a0, b0 = form.atoms[prior.thetas.index(theta0)]
        a1 = t1.numerator * (form.denom // t1.denominator)
        b1 = form.denom - a1
        return cls(form, w0, a0 * a1, b0 * b1, a1, b1)

    def carried_terms(self, horizon: int):
        """Yield ``(nums, dens)`` of psi(n) for n = 1..horizon: the terms
        C(n,k) a01^k b01^(n-k) over the prior masses sum_j w_j a_j^k b_j^(n-k)
        of u_n = k, zero masses skipped.

        Each row advances from n - 1 by small-integer multiplies only: the
        mass row of atom j takes b_j on every entry and a_j on a new last
        one, the numerator row takes Pascal's rule b01 x_k + a01 x_(k-1).
        A count that theta1 can produce but no atom can raises
        ImpossibleObservationError at the first such (n, k)."""
        atoms = self.form.atoms
        rows = [[w] for w, _, _ in atoms]
        x = [1]
        a01, b01 = self.a01, self.b01
        for n in range(1, horizon + 1):
            rows = [
                [v * b for v in row] + [row[-1] * a] for row, (_, a, b) in zip(rows, atoms)
            ]
            x = [b01 * x[0]] + [b01 * hi + a01 * lo for lo, hi in pairwise(x)] + [a01 * x[-1]]
            masses = list(map(sum, zip(*rows)))
            if 0 not in masses:
                yield x, masses
                continue
            nums, dens = [], []
            for k, mass in enumerate(masses):
                if mass:
                    nums.append(x[k])
                    dens.append(mass)
                elif (self.a1 or k == 0) and (self.b1 or k == n):  # theta1 can generate u_n = k
                    raise ImpossibleObservationError.at(n, k)
            yield nums, dens

    def direct_terms(self, n: int) -> tuple[list[int], list[int]]:
        """The ``carried_terms`` of one n, from powers."""
        nums, dens = [], []
        for k in range(n + 1):
            mass = sum(self.form.masses(n, k))
            if mass:
                nums.append(math.comb(n, k) * self.a01**k * self.b01 ** (n - k))
                dens.append(mass)
        return nums, dens

    def pair(self, n: int, nums: list[int], dens: list[int]) -> tuple[int, int]:
        """The exact (num, den) of psi(n) from its terms."""
        total_num, total_den = tree_sum_fractions(nums, dens)
        return self.w0 * total_num, total_den * self.form.denom**n

    def rebuild(self, n: int) -> tuple[int, int]:
        return self.pair(n, *self.direct_terms(n))


def _discrete_exact_values(
    prior: DiscreteAtoms, theta0, theta1, horizon: int
) -> list[ExactValue]:
    ints = _AtomIntegers.of(prior, theta0, theta1)
    # a pair too wide for canonical_str is not built: its correctly rounded
    # quotient, certified on a fixed-point enclosure of its sum of terms,
    # gives its float and log, and the pair waits for a use
    values = []
    den_scale, shift, cap = 1, 0, CANONICAL_RATIONAL_BITS
    for n, (nums, dens) in enumerate(ints.carried_terms(horizon), start=1):
        den_scale *= ints.form.denom
        # the pair's den is prod(dens) den_scale, and psi <= 1 keeps its num
        # no wider; k factors give a product of at least sum(bits - 1) + 1
        # bits and at most k - 1 more, and only between is it formed
        low = sum(map(int.bit_length, dens)) - len(dens) + den_scale.bit_length()
        quotient = None
        if low > cap or low + len(dens) > cap and (math.prod(dens) * den_scale).bit_length() > cap:
            total, shift = fixed_point_sum(nums, dens, shift)
            lo = ints.w0 * total
            quotient = certified_quotient(lo, lo + ints.w0 * len(nums), den_scale, shift)
            # the next sum, about as wide, then keeps about as many bits
            shift += ENCLOSURE_BITS + 1 - total.bit_length()
        values.append(DeferredExactValue(partial(ints.rebuild, n), quotient) if quotient
                      else ExactValue(*ints.pair(n, nums, dens)))
    return values


# ---------------------------------------------------------------------------
# Bernoulli observations, uniform prior (Legendre route)
# ---------------------------------------------------------------------------


def expected_posterior_uniform(
    theta0: Real, theta1: Real, horizon: int, mode: str = "auto"
) -> ExpectedPosteriorSequence:
    """Bernoulli observations with the uniform prior on (0, 1).

    The marginal of u_n is uniform on {0..n}, which collapses the sum to
    the bivariate binomial-square form S_n(theta0 theta1, (1-theta0)(1-theta1));
    exact for rational parameters.  Float mode runs the exact route's
    recurrence on the ratios Q_n/Q_{n-1} of S_n = (n+1) Q_n and sums their
    logs, O(1) per step with no branch on the anti-diagonal.
    """
    family = fam.bernoulli()
    pr.require_inputs(family, Uniform01(), theta0, theta1, horizon)
    if _resolve_exact(mode, _rational(theta0, theta1), "rational theta0, theta1"):
        y = Fraction(theta0) * Fraction(theta1)
        z = (1 - Fraction(theta0)) * (1 - Fraction(theta1))
        values = binomial_square_sum(y, z, horizon)
        return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_UNIFORM, values=values)
    logs = _uniform_float_logs(theta0, theta1, horizon)
    return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_UNIFORM, log_values=logs)


def _uniform_float_logs(theta0: Real, theta1: Real, horizon: int) -> list[float]:
    """log psi(n) = log(n + 1) + log q_1 + ... + log q_n over the Legendre ratios q_k of
    y = theta0 theta1 and z = (1-theta0)(1-theta1), each 1 - theta a ``families.complement``."""
    ratios = legendre_ratios(horizon, float(theta0) * float(theta1),
                             fam.complement(theta0) * fam.complement(theta1))
    log = math.log
    return [log(n + 1) + log_q for n, log_q in enumerate(accumulate(map(log, ratios)), start=1)]


def log_expected_posterior_uniform(theta0: Real, theta1: Real, n: int) -> float:
    """log psi(n) of the uniform prior at one n, with no sequence built:
    psi(n) = (n+1) w^n J_n(c), y = theta0 theta1, z = (1-theta0)(1-theta1),
    w = (sqrt y + sqrt z)^2, c = 4 sqrt(yz)/w = 4 mid (1 - mid) <= 1, with mid and log w
    from ``families.log_bhattacharyya_reduction``; ``specialfn.log_legendre_integral``
    bounds J_n's trapezoid sum within 2^-60 relative before rounding."""
    family = fam.bernoulli()
    pr.require_inputs(family, Uniform01(), theta0, theta1, n)
    mid, log_w = fam.log_bhattacharyya_reduction(family, theta0, theta1)
    c = fam.float_of(4 * mid * (1 - mid))
    return n * log_w + math.log(n + 1) + log_legendre_integral(n, c)[0]


# ---------------------------------------------------------------------------
# normal observations, standard normal prior
# ---------------------------------------------------------------------------


def _normal_logs(theta0: float, theta1: float, sigma: float, ns) -> list[float]:
    """The closed-form log value at each (possibly real) n >= 0 of ns:
        log(n + s) - log sigma - log(2 pi (2n + s)) / 2 - mid^2 s / (4n + 2s)
        + (mid^2 - theta0^2) / 2 - n (theta0 - theta1)^2 / (4s),
    s = sigma^2, mid = (theta0 + theta1) / 2; the terms free of n are
    computed once, each rounded as in the formula; sigma is a ``FamilySpec``'s.
    DomainError where theta0 - theta1, theta0 or theta1 has no float square."""
    fam.require_square(theta0 - theta1, "(theta0 - theta1)")
    fam.require_square(theta0, "theta0")
    fam.require_square(theta1, "theta1")
    log = math.log
    mid = 0.5 * (theta0 + theta1)
    sig2 = sigma * sigma
    log_sigma, two_pi, two_sig2, four_sig2 = log(sigma), 2.0 * math.pi, 2.0 * sig2, 4.0 * sig2
    mid2_sig2 = mid * mid * sig2
    tail = 0.5 * (mid * mid - theta0 * theta0)
    slope = (theta0 - theta1) ** 2
    return [
        log(n + sig2) - log_sigma - 0.5 * log(two_pi * (2.0 * n + sig2))
        - mid2_sig2 / (4.0 * n + two_sig2) + tail - n * slope / four_sig2
        for n in ns
    ]


def log_expected_posterior_normal(theta0: float, theta1: float, sigma: float, n: float) -> float:
    """Closed-form log value at (possibly real) n >= 0, read at the thetas'
    floats; DomainError for a theta off the real line or an n that is not a
    finite real >= 0."""
    if not 0 <= n < math.inf:
        raise DomainError(f"n={n!r} must be a finite real >= 0")
    family = fam.normal(sigma)
    t0, t1 = pr.require_inputs(family, StdNormal(), theta0, theta1, 1)
    return _normal_logs(t0, t1, family.sigma, (n,))[0]


def expected_posterior_normal(
    theta0: float, theta1: float, sigma: float, horizon: int
) -> ExpectedPosteriorSequence:
    """Normal(theta, sigma^2) observations, standard normal prior on theta."""
    family = fam.normal(sigma)
    t0, t1 = pr.require_inputs(family, StdNormal(), theta0, theta1, horizon)
    logs = _normal_logs(t0, t1, family.sigma, range(1, horizon + 1))
    return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_NORMAL, log_values=logs)


# ---------------------------------------------------------------------------
# exponential observations, exponential prior (Bessel route)
# ---------------------------------------------------------------------------


def expected_posterior_exponential(
    theta0: float, theta1: float, horizon: int, rate: float = 1.0
) -> ExpectedPosteriorSequence:
    """Exp(theta) observations with an Exp(rate) prior on theta.

    The diagonal value is
        theta^(n-1/2) / (2^(n+1/2) n! sqrt(pi)) G_n k_n,  G_n = (n+theta) + theta rho_n,
    at theta = (theta0+theta1)/2 with k_n = K_{n+1/2}(theta) and rho_n = k_{n-1}/k_n;
    off the diagonal it picks up exp(theta-theta0) (theta0 theta1/theta^2)^n.
    A general prior rate rescales through (t0, t1, x) -> (rate*t0, rate*t1, x/rate),
    which multiplies the posterior density by rate.  The diagonal log is taken at
    n = 1 from the formula, then as a running sum of the O(1/n) steps
        log1p((theta rho_n - 1)/(2n+2)) + log1p((1 + theta (rho_{n+1} - rho_n))/G_n),
    so no large logs cancel; the off-diagonal and rate terms are added per n.
    """
    lam = fam.float_of(rate)
    fam.require_sigma(lam, "rate")
    family = fam.exponential()
    t0, t1 = pr.require_inputs(family, ExpPrior(rate), theta0, theta1, horizon, scale=lam)
    mid, log_off = fam.log_bhattacharyya_reduction(family, t0, t1)  # log(theta0 theta1/theta^2)
    bess = bessel_K_half(mid, horizon)
    rho, log, log1p = bess.rho, math.log, math.log1p
    shift = mid - t0 + log(lam)
    g = (1.0 + mid) + mid * rho[1]
    diag = 0.5 * log(mid) - 1.5 * log(2.0) - 0.5 * log(math.pi) + bess.log_k[1] + log(g)
    logs = [diag + shift + log_off]
    for n in range(1, horizon):
        diag += log1p((mid * rho[n] - 1.0) / (2 * n + 2)) + log1p(
            (1.0 + mid * (rho[n + 1] - rho[n])) / g)
        g = (n + 1 + mid) + mid * rho[n + 1]
        logs.append(diag + shift + (n + 1) * log_off)
    return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_EXP_BESSEL, log_values=logs)


# ---------------------------------------------------------------------------
# Bernoulli + Beta prior (conjugate finite sum)
# ---------------------------------------------------------------------------


def expected_posterior_beta(
    prior: Beta, theta0: Real, theta1: Real, horizon: int, mode: str = "auto"
) -> ExpectedPosteriorSequence:
    """Bernoulli observations with a Beta(a, b) prior; exact for integer a, b."""
    family = fam.bernoulli()
    f0, f1 = pr.require_inputs(family, prior, theta0, theta1, horizon)
    # the shapes' types decide: a float shape such as 7.0 runs the float sum
    shapes = (prior.a, prior.b)
    exact_ok = _rational(theta0, theta1, *shapes) and all(s.denominator == 1 for s in shapes)
    if _resolve_exact(mode, exact_ok, "integer Beta shapes and rational thetas"):
        a_int, b_int = int(prior.a), int(prior.b)
        t0, t1 = Fraction(theta0), Fraction(theta1)
        # 1/B(a,b) = (a+b-1)! / ((a-1)! (b-1)!) for integer shapes
        inv_beta = Fraction(
            math.factorial(a_int + b_int - 1),
            math.factorial(a_int - 1) * math.factorial(b_int - 1),
        )
        density0 = t0 ** (a_int - 1) * (1 - t0) ** (b_int - 1) * inv_beta
        values = []
        for n in range(1, horizon + 1):
            # term k is p0 p1 / marg = nums[k] / dens[k], unreduced; the
            # terms are summed over the lcm of dens and reduced once, with
            # density0, so each value is still in lowest terms
            nums, dens = [], []
            for k in range(n + 1):
                marg = pr.beta_marginal_pmf_exact(a_int, b_int, n, k)
                p0 = fam.binomial_pmf_exact(t0, n, k)
                p1 = fam.binomial_pmf_exact(t1, n, k)
                nums.append(p0.numerator * p1.numerator * marg.denominator)
                dens.append(p0.denominator * p1.denominator * marg.numerator)
            common = math.lcm(*dens)
            total = sum(num * (common // den) for num, den in zip(nums, dens))
            value = Fraction(total * density0.numerator, common * density0.denominator)
            values.append(ExactValue(value.numerator, value.denominator))
        return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_EXACT, values=values)
    log_density0 = pr.prior_log_density(prior, theta0)
    log_marginal = partial(pr.marginal_suffstat_logpmf, family, prior)
    logs = [
        _bernoulli_float_log(f0, f1, n, log_density0, log_marginal) for n in range(1, horizon + 1)
    ]
    return ExpectedPosteriorSequence(family, theta0, theta1, METHOD_FLOAT_SUM, log_values=logs)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def expected_posterior_quadrature(
    family: FamilySpec,
    prior: Prior,
    theta0: Real,
    theta1: Real,
    n: int,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Single value by summation/quadrature over the sufficient statistic.

    Returns (value, achieved error estimate); the error is zero for the
    finite-sum cases.  Raises QuadratureError carrying the partial estimate
    when the tolerance is not reached, and UnsupportedConjugacyError for
    pairings with no prior-predictive route.
    """
    # exact checks before the float kernels: 1 + 10^-20 must not round to 1.0
    t0, t1 = pr.require_inputs(family, prior, theta0, theta1, n)
    log_pi0 = pr.prior_log_density(prior, theta0)
    if family.kind == BERNOULLI:  # the marginal refuses a prior it cannot take
        log_marginal = partial(pr.marginal_suffstat_logpmf, family, prior)
        log_psi = _bernoulli_float_log(t0, t1, n, log_pi0, log_marginal)
        return math.exp(log_psi), 0.0
    if family.kind == NORMAL and isinstance(prior, StdNormal):
        integrate, support_lo = integrate_real_line, -math.inf
    elif family.kind == EXPONENTIAL and isinstance(prior, ExpPrior):
        integrate, support_lo = integrate_half_line, 0.0
    else:
        raise UnsupportedConjugacyError.of(family, prior)

    def integrand(u: float) -> float:
        if u <= support_lo:
            return 0.0
        lp0 = fam.suff_stat_log_density(family, t0, n, u)
        lp1 = fam.suff_stat_log_density(family, t1, n, u)
        lmarg = pr.marginal_suffstat_logpmf(family, prior, n, u)
        return math.exp(log_pi0 + lp0 + lp1 - lmarg)

    return integrate(integrand, tol=tol)


# ---------------------------------------------------------------------------
# brute-force oracle over raw sequences
# ---------------------------------------------------------------------------


def expected_posterior_bruteforce(
    prior: DiscreteAtoms, theta0: Real, theta1: Real, n: int
) -> Fraction:
    """Sum over all 2^n Bernoulli observation sequences, exact.

    Conditions on the raw sequence (not the sufficient statistic); the two
    routes agreeing is the sufficiency collapse under test.  Capped at
    n <= 14 by the enumeration budget.
    """
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta1, n)
    if n > BRUTEFORCE_CAP:
        raise DomainError(f"n={n} exceeds the brute-force cap of {BRUTEFORCE_CAP}")
    if not _rational(theta0, theta1, *prior.thetas):
        raise DomainError("brute force requires rational atoms, weights, thetas")
    # every sequence probability over denom^n and every weight over wdenom,
    # so each sequence adds gen·w0·p0 / marginal to denom^n psi(n)
    thetas = [Fraction(t) for t in prior.thetas]
    t1 = Fraction(theta1)
    denom = math.lcm(*(t.denominator for t in thetas), t1.denominator)
    wdenom = math.lcm(*(w.denominator for w in prior.weights))
    coins = [(int(t * denom), int((1 - t) * denom)) for t in thetas + [t1]]
    weights = [int(w * wdenom) for w in prior.weights]
    i0 = thetas.index(Fraction(theta0))
    total = Fraction(0)
    for bits in range(1 << n):
        seq_probs = []
        for heads, tails in coins:
            prob = 1
            for i in range(n):
                prob *= heads if (bits >> i) & 1 else tails
            seq_probs.append(prob)
        gen_prob = seq_probs[-1]
        marginal = sum(w * p for w, p in zip(weights, seq_probs))
        if marginal == 0:
            if gen_prob != 0:
                raise ImpossibleObservationError(
                    "impossible observation under prior support"
                )
            continue
        total += Fraction(gen_prob * weights[i0] * seq_probs[i0], marginal)
    return total / denom**n
