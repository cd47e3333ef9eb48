"""Priors, posteriors over the sufficient statistic, and prior-predictive laws.

Two prior shapes exist: a finite list of weighted atoms (weights are exact
rationals summing to one) and four named continuous densities -- Uniform(0,1),
Beta(a,b), the standard normal, and Exp(rate).  Posteriors for atom priors
are computed exactly, by Bayes' rule over Bernoulli atoms given the number
of successes u_n.

Atom locations may sit on the boundary of the Bernoulli parameter interval
(0 or 1): a coin known to always land heads is a legitimate hypothesis.
Other families require interior atoms; ``require_inputs`` holds the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Union

from . import families as fam
from .families import BERNOULLI, EXPONENTIAL, NEG_INF, NORMAL, DomainError, FamilySpec
from .util import ExactValue, logsumexp

Real = Union[int, float, Fraction]

_lgamma = math.lgamma


class PriorError(ValueError):
    """Malformed prior: its weights, atoms, shapes or rate."""


class ImpossibleObservationError(ValueError):
    """Observation has zero probability under every atom of the prior."""

    @classmethod
    def at(cls, n: int, k: int) -> ImpossibleObservationError:
        """The error for u_n = k, a count that no atom can produce."""
        return cls(f"impossible observation under prior support: u_{n}={k}")


class UnsupportedConjugacyError(ValueError):
    """No closed-form prior predictive for this (family, prior) pairing."""

    @classmethod
    def of(cls, family: FamilySpec, prior) -> UnsupportedConjugacyError:
        return cls(f"unsupported conjugacy: {family.kind} with {type(prior).__name__}")


@dataclass(frozen=True)
class DiscreteAtoms:
    """Finitely supported prior: ((theta, weight), ...), weights exact."""

    atoms: tuple[tuple[Real, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise PriorError("discrete prior needs at least one atom")
        total = Fraction(0)
        seen = set()
        for theta, weight in self.atoms:
            if not isinstance(weight, Fraction):
                raise PriorError(f"weight {weight!r} must be a Fraction")
            if weight <= 0:
                raise PriorError(f"weight {weight} must be positive")
            if theta in seen:
                raise PriorError(f"duplicate atom theta={theta}")
            seen.add(theta)
            total += weight
        if total != 1:
            raise PriorError(f"weights sum to {total}, expected exactly 1")

    @property
    def thetas(self) -> tuple[Real, ...]:
        return tuple(t for t, _ in self.atoms)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    def weight_of(self, theta: Real) -> Fraction:
        for t, w in self.atoms:
            if t == theta:
                return w
        raise PriorError(f"theta={theta} is not an atom of the prior")

    def is_atom(self, theta: Real) -> bool:
        return any(t == theta for t, _ in self.atoms)

    def validate_for(self, family: FamilySpec) -> None:
        closure = family.kind == BERNOULLI
        for t in self.thetas:
            family.require_theta(t, closure=closure)

    @cached_property
    def log_weights(self) -> tuple[tuple[Real, float], ...]:
        """((theta, log weight), ...), each log from the exact weight, so it never underflows."""
        return tuple((t, ExactValue(w.numerator, w.denominator).log()) for t, w in self.atoms)

    def mean(self) -> Real:
        return sum(t * w for t, w in self.atoms)

    @cached_property
    def integer_form(self) -> AtomIntegerForm:
        """The prior as Bernoulli atoms over integers.  Raises DomainError
        unless every atom lies in [0, 1]; once built, the form is kept on the
        instance, outside the dataclass fields, so equality, hash and repr
        do not see it, and the atoms are not checked again."""
        self.validate_for(fam.bernoulli())
        thetas = [Fraction(t) for t in self.thetas]
        denom = math.lcm(*(t.denominator for t in thetas))
        wdenom = math.lcm(*(w.denominator for w in self.weights))
        return AtomIntegerForm(denom, wdenom, tuple(
            (int(w * wdenom), int(t * denom), denom - int(t * denom))
            for t, w in zip(thetas, self.weights)
        ))


@dataclass(frozen=True)
class AtomIntegerForm:
    """A Bernoulli atom prior over integers: theta_j = a_j/denom,
    1 - theta_j = b_j/denom and weight_j = w_j/wdenom."""

    denom: int
    wdenom: int
    atoms: tuple[tuple[int, int, int], ...]  # (w_j, a_j, b_j)

    def masses(self, n: int, k: int) -> list[int]:
        """w_j a_j^k b_j^(n-k) for each atom: its prior weight times the
        chance of one sequence with k successes in n trials, times
        wdenom denom^n."""
        return [w * a**k * b ** (n - k) for w, a, b in self.atoms]

    def over(self, denom: int) -> AtomIntegerForm:
        """The same prior over ``denom``, a multiple of ``self.denom``."""
        s = denom // self.denom
        return AtomIntegerForm(
            denom, self.wdenom, tuple((w, a * s, b * s) for w, a, b in self.atoms)
        )


@dataclass(frozen=True)
class Uniform01:
    pass


@dataclass(frozen=True)
class Beta:
    a: Real
    b: Real

    def __post_init__(self):
        # the routes read each shape as a float, which must be > 0 and finite too
        if not all(0 < x < math.inf and 0.0 < fam.float_of(x) < math.inf
                   for x in (self.a, self.b)):
            raise PriorError("Beta prior requires finite a > 0 and b > 0")

    @cached_property
    def float_shape(self) -> tuple[float, float, float]:
        """(a, b, log B(a, b)) as floats, kept on the instance like
        ``DiscreteAtoms.integer_form``."""
        a, b = float(self.a), float(self.b)
        return a, b, _lgamma(a) + _lgamma(b) - _lgamma(a + b)


@dataclass(frozen=True)
class StdNormal:
    pass


@dataclass(frozen=True)
class ExpPrior:
    rate: Real = 1

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise PriorError("exponential prior requires a finite rate > 0")
        # the routes read the rate as a float: one whose float is 0.0, or
        # that has none, is refused here, by the rule of sigma
        fam.require_sigma(fam.float_of(self.rate), "rate")


Prior = Union[DiscreteAtoms, Uniform01, Beta, StdNormal, ExpPrior]


def require_inputs(family: FamilySpec, prior: Prior, theta0: Real, theta1: Real,
                   horizon: int, scale: float = 1.0) -> tuple[float, float]:
    """The gate of every psi entry point: DomainError unless the horizon is an
    int >= 1, not a bool, and theta0, theta1 lie in the family's open interval;
    under an atom prior theta0 is an atom, and Bernoulli atoms and theta1 may be sure coins.
    Returns the floats a route reads, scale theta0 and scale theta1, which must lie
    in the interval too off the Bernoulli family, whose density reads 0.0 and 1.0;
    the refusal of a scaled float (the exponential prior's rate times theta) names
    theta, the rate and their product."""
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise DomainError(f"horizon={horizon!r} must be an int >= 1")
    atom_prior = isinstance(prior, DiscreteAtoms)
    if atom_prior:
        prior.validate_for(family)
        if not prior.is_atom(theta0):
            raise DomainError(f"theta0={theta0} must be an atom of the prior")
    for theta in (theta0, theta1):
        family.require_theta(theta, closure=atom_prior and family.kind == BERNOULLI)
    reads = fam.float_of(theta0) * scale, fam.float_of(theta1) * scale
    if family.kind != BERNOULLI:
        for name, theta, t in zip(("theta0", "theta1"), (theta0, theta1), reads):
            family.require_theta(t, shown=f"rate*{name} = {scale}*{theta} = {t}"
                                 if scale != 1.0 else "")
    return reads


def atoms(*pairs: tuple[Real, Real]) -> DiscreteAtoms:
    """Convenience constructor; weights are coerced to exact Fractions."""
    return DiscreteAtoms(tuple((t, Fraction(w)) for t, w in pairs))


def prior_log_density(prior: Prior, theta: Real) -> float:
    """log pi(theta): an atom's log weight or a continuous prior's log density, -inf off
    the support the exact theta decides; a Beta prior refuses a theta whose float is off it."""
    if isinstance(prior, DiscreteAtoms):
        prior.weight_of(theta)  # the PriorError of a theta that is no atom
        return dict(prior.log_weights)[theta]
    t = fam.float_of(theta)
    if isinstance(prior, Uniform01):
        return 0.0 if 0 < theta < 1 else NEG_INF
    if isinstance(prior, Beta):
        if not 0 < theta < 1:
            return NEG_INF
        if not 0.0 < t < 1.0:
            raise DomainError(f"theta={theta} rounds to {t} as a float, outside (0, 1)")
        a, b, log_beta = prior.float_shape
        return (a - 1.0) * math.log(t) + (b - 1.0) * math.log(1.0 - t) - log_beta
    if isinstance(prior, StdNormal):
        return -0.5 * math.log(2.0 * math.pi) - 0.5 * t * t
    if isinstance(prior, ExpPrior):
        if not theta > 0:
            return NEG_INF
        lam = float(prior.rate)
        return math.log(lam) - lam * t
    raise PriorError(f"no log density for the prior {prior!r}")


# ---------------------------------------------------------------------------
# posterior over atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosteriorVector:
    """Per-atom posterior weights after conditioning on the observations."""

    thetas: tuple[Real, ...]
    weights: tuple[Fraction, ...]

    def weight_of(self, theta: Real) -> Fraction:
        for t, w in zip(self.thetas, self.weights):
            if t == theta:
                return w
        raise PriorError(f"theta={theta} is not an atom of the posterior")


def posterior_given_suffstat(prior: DiscreteAtoms, n: int, k: int) -> PosteriorVector:
    """Exact Bayes' rule over Bernoulli atoms given k successes in n trials;
    n = 0 gives back the prior.  Each weight is an integer mass of the
    prior's ``integer_form`` over the integer total, so the common scale of
    the masses and the binomial coefficient C(n, k) never enter."""
    if not (isinstance(n, int) and isinstance(k, int)) or n < 0:
        raise DomainError(f"need an integer count k of successes in n >= 0 trials: n={n}, k={k!r}")
    form = prior.integer_form
    if not 0 <= k <= n:
        raise ImpossibleObservationError(f"impossible observation: {k} successes in {n} trials")
    masses = form.masses(n, k)
    total = sum(masses)
    if total == 0:
        raise ImpossibleObservationError.at(n, k)
    return PosteriorVector(prior.thetas, tuple(Fraction(m, total) for m in masses))


def mean_parameter(posterior: PosteriorVector) -> Real:
    """Posterior-mean parameter."""
    return sum(t * w for t, w in zip(posterior.thetas, posterior.weights))


# ---------------------------------------------------------------------------
# prior-predictive (marginal) law of the sufficient statistic
# ---------------------------------------------------------------------------


def marginal_suffstat_logpmf(family: FamilySpec, prior: Prior, n: int, u: Real) -> float:
    """log mass/density of u_n under the prior predictive.

    Supported pairings: any family with a DiscreteAtoms prior, and the
    conjugate pairs bernoulli+Uniform01/Beta, normal+StdNormal,
    exponential+ExpPrior.
    """
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    if isinstance(prior, DiscreteAtoms):  # the density checks each atom
        density = fam.suff_stat_log_density
        return logsumexp([lw + density(family, t, n, u) for t, lw in prior.log_weights])
    if family.kind == BERNOULLI and isinstance(prior, (Uniform01, Beta)):
        if type(u) is int:  # no float round trip, as in ``suff_stat_log_density``
            if u < 0 or u > n:
                return NEG_INF
            k = u
        else:
            uf = float(u)
            if uf < 0 or uf > n or uf != int(uf):
                return NEG_INF
            k = int(uf)
        if isinstance(prior, Uniform01):
            return -math.log(n + 1)
        a, b, log_beta_ab = prior.float_shape
        x, y = k + a, n - k + b
        log_beta_xy = _lgamma(x) + _lgamma(y) - _lgamma(x + y)
        return fam.log_binomial(n, k) + log_beta_xy - log_beta_ab
    if family.kind == NORMAL and isinstance(prior, StdNormal):
        var = n * n + n * family.sigma**2
        uf = float(u)
        return -0.5 * math.log(2.0 * math.pi * var) - uf * uf / (2.0 * var)
    if family.kind == EXPONENTIAL and isinstance(prior, ExpPrior):
        # integrating the Gamma(n, theta) density against rate*exp(-rate*theta)
        # gives rate * n * u^(n-1) / (u + rate)^(n+1)
        uf = float(u)
        lam = float(prior.rate)
        if uf <= 0:
            return NEG_INF
        return math.log(lam) + math.log(n) + (n - 1) * math.log(uf) - (n + 1) * math.log(uf + lam)
    raise UnsupportedConjugacyError.of(family, prior)


def beta_marginal_pmf_exact(a: int, b: int, n: int, k: int) -> Fraction:
    """Bernoulli + Beta(a,b) prior predictive of u_n, exact for integer a,b."""
    if not (isinstance(a, int) and isinstance(b, int) and a >= 1 and b >= 1):
        raise PriorError(f"exact Beta marginal needs integer a, b >= 1, got a={a!r}, b={b!r}")
    if k < 0 or k > n:
        return Fraction(0)
    # C(n,k) B(k+a, n-k+b) / B(a,b), its factorials regrouped into binomials
    return Fraction(
        math.comb(k + a - 1, k) * math.comb(n - k + b - 1, n - k), math.comb(n + a + b - 1, n)
    )
