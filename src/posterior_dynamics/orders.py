"""Single-observation and step-wise order relations for Bernoulli scenarios.

Likelihood-ratio dominance on finite laws, the convex factor that decides
whether one more observation raises or lowers an expected posterior, the
exact one-step update identity, and the two-sided symmetry between the
theta0-posterior under theta1 and the theta1-posterior under theta0.
Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from . import families as fam
from . import priors as pr
from .engine import expected_posterior_discrete
from .families import DomainError
from .priors import DiscreteAtoms, PosteriorVector

Real = Union[int, Fraction]


@dataclass(frozen=True)
class FiniteLaw:
    """Finitely supported law: strictly increasing support, exact weights."""

    support: tuple[Real, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise DomainError("support and probability lists differ in length")
        if any(p < 0 for p in self.probs):
            raise DomainError("law has a negative probability")
        if sum(self.probs) != 1:
            raise DomainError(f"law probabilities sum to {sum(self.probs)}, expected 1")
        for a, b in zip(self.support, self.support[1:]):
            if not a < b:
                raise DomainError("law support must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "FiniteLaw":
        """Group duplicate values, drop zero-probability points, sort."""
        grouped: dict = {}
        for value, prob in pairs:
            grouped[value] = grouped[value] + prob if value in grouped else prob
        items = sorted((v, p) for v, p in grouped.items() if p != 0)
        return cls(tuple(v for v, _ in items), tuple(p for _, p in items))

    def to_json(self) -> list[list[str]]:
        """[[value, prob], ...] as strings, in support order."""
        return [[str(v), str(p)] for v, p in zip(self.support, self.probs)]


def lr_dominates(law_hi: FiniteLaw, law_lo: FiniteLaw) -> bool:
    """True iff law_hi dominates law_lo in the likelihood-ratio order.

    On the union support (missing points carry probability zero) the
    condition is P_hi(t') P_lo(t) >= P_hi(t) P_lo(t') for every pair
    t' > t; equivalent to the set form on finite supports.  With
    P_hi(v) = a/b and P_lo(v) = c/d, b and d positive, put h(v) = a d and
    l(v) = c b: the products compare as h(t') l(t) against h(t) l(t'),
    since both sides carry the same positive factor b b' d d'.  A point
    with h = l = 0 meets the condition with every other point; at the
    rest it says that h/l, taken in [0, inf], never decreases, so each
    point is compared with the one before it.  Both supports increase, so
    one merge walks the union in order, without hashing a ``Fraction``.
    """
    hs, ls = law_hi.support, law_lo.support
    zero = Fraction(0)
    i = j = 0
    h_prev = l_prev = 0
    while i < len(hs) or j < len(ls):
        if j == len(ls) or (i < len(hs) and hs[i] < ls[j]):
            p, q = law_hi.probs[i], zero
            i += 1
        elif i == len(hs) or ls[j] < hs[i]:
            p, q = zero, law_lo.probs[j]
            j += 1
        else:
            p, q = law_hi.probs[i], law_lo.probs[j]
            i += 1
            j += 1
        h, l = p.numerator * q.denominator, q.numerator * p.denominator
        if h == 0 and l == 0:
            continue
        if h * l_prev < h_prev * l:
            return False
        h_prev, l_prev = h, l
    return True


def posterior_law(
    prior: DiscreteAtoms, theta0: Real, n: int, under: Real | None = None
) -> FiniteLaw:
    """Law of the theta0-posterior after n Bernoulli observations.

    ``under`` selects the generating parameter; None means the prior
    predictive (marginal) law.  Built by exact enumeration over the
    sufficient statistic, which carries the full distribution: with the
    prior's integer masses M_j of u_n = k and their total T, the
    theta0-posterior is M_0/T and the prior-predictive probability is
    C(n, k) T / scale(n).  A generating parameter goes through
    ``binomial_pmf_exact``, apart from the masses.
    """
    gen_theta = None if under is None else Fraction(under)
    # the prior predictive draws from the atoms: theta0 stands in for theta1
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta0 if under is None else gen_theta, n)
    form = prior.integer_form
    scale = form.scale(n)
    i0 = prior.thetas.index(theta0)
    pairs = []
    for k in range(n + 1):
        masses = form.masses(n, k)
        total = sum(masses)
        if gen_theta is None:
            gen = Fraction(math.comb(n, k) * total, scale)
        else:
            gen = fam.binomial_pmf_exact(gen_theta, n, k)
        if total == 0:
            if gen != 0:
                raise pr.ImpossibleObservationError.at(n, k)
            continue
        pairs.append((Fraction(masses[i0], total), gen))
    return FiniteLaw.from_pairs(pairs)


def expected_update_factor(mean_theta: Real, theta0: Real, theta1: Real) -> Real:
    """The strictly convex factor V with V(theta0) = V(theta1) = 1:

        V(y) = theta0 theta1 / y + (1-theta0)(1-theta1) / (1-y)

    One more observation multiplies the expected theta0-posterior by
    V(posterior-mean parameter), so V below/above one decides the
    direction of the next step.
    """
    y = Fraction(mean_theta) if not isinstance(mean_theta, float) else mean_theta
    if not 0 < y < 1:
        raise DomainError(f"mean parameter {mean_theta} outside (0, 1)")
    for theta in (theta0, theta1):
        fam.bernoulli().require_theta(theta, closure=True)
    return theta0 * theta1 / y + (1 - theta0) * (1 - theta1) / (1 - y)


def one_step_expected_posterior(
    posterior: PosteriorVector | DiscreteAtoms, theta0: Real, theta1: Real
) -> Real:
    """Expectation, under theta1, of the next-step theta0-posterior given the
    current state (a posterior, or the prior): current weight times the update
    factor at the posterior-mean parameter.  Exact for exact posteriors."""
    q0 = posterior.weight_of(theta0)
    mean = pr.mean_parameter(posterior)
    return q0 * expected_update_factor(mean, theta0, theta1)


def check_prior_criterion(
    prior: DiscreteAtoms, theta0: Real, theta1: Real
) -> tuple[Real, str]:
    """One-observation expected posterior and its predicted direction.

    Returns (expected value, direction), direction "le" when the prior
    mean lies weakly between theta0 and theta1 (expected <= prior weight,
    equality iff the mean hits theta0 or theta1), "ge" otherwise.
    """
    pr.require_inputs(fam.bernoulli(), prior, theta0, theta1, 1)
    expected = one_step_expected_posterior(prior, theta0, theta1)
    mean = prior.mean()
    lo, hi = min(theta0, theta1), max(theta0, theta1)
    direction = "le" if lo <= mean <= hi else "ge"
    return expected, direction


def symmetry_check(
    prior: DiscreteAtoms, theta0: Real, theta1: Real, n: int
) -> tuple[Real, Real, bool]:
    """weight(theta1) * E_{theta1}[posterior at theta0] versus
    weight(theta0) * E_{theta0}[posterior at theta1]; exact equality."""
    seq01 = expected_posterior_discrete(prior, theta0, theta1, n, mode="exact")
    seq10 = expected_posterior_discrete(prior, theta1, theta0, n, mode="exact")
    lhs = prior.weight_of(theta1) * seq01.value(n).as_fraction()
    rhs = prior.weight_of(theta0) * seq10.value(n).as_fraction()
    return lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# randomized scenario generation and the dominance-reversal search
# ---------------------------------------------------------------------------


def random_rational_scenario(rng: random.Random, max_atoms: int = 4) -> DiscreteAtoms:
    """Random atom prior: interior atoms on the 1/20 grid, small rational weights."""
    count = rng.randint(2, max_atoms)
    thetas = set()
    while len(thetas) < count:
        thetas.add(Fraction(rng.randint(1, 19), 20))
    raw = [rng.randint(1, 9) for _ in range(count)]
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    return DiscreteAtoms(tuple(zip(sorted(thetas), weights)))


def find_lr_reversal(seed: int) -> dict | None:
    """Search up to 2000 random 3-atom scenarios for a reversed dominance witness.

    The expected direction -- the marginal law of the theta0-posterior
    dominating its law under a different generating atom -- provably holds
    when the generating atom is extreme, so the search scans interior
    generating atoms.  Returns a witness record or None.
    """
    rng = random.Random(seed)
    for trial in range(2000):
        prior = random_rational_scenario(rng, max_atoms=3)
        if len(prior.atoms) != 3:
            continue
        thetas = prior.thetas
        middle = thetas[1]
        for theta0 in (thetas[0], thetas[2]):
            for n in (1, 2, 3):
                marginal_law = posterior_law(prior, theta0, n, under=None)
                generated_law = posterior_law(prior, theta0, n, under=middle)
                if not lr_dominates(marginal_law, generated_law) and lr_dominates(
                    generated_law, marginal_law
                ):
                    return {
                        "trial": trial,
                        "atoms": [[str(t), str(w)] for t, w in prior.atoms],
                        "theta0": str(theta0),
                        "generating_theta": str(middle),
                        "n": n,
                        "generated_law": generated_law.to_json(),
                        "marginal_law": marginal_law.to_json(),
                    }
    return None
