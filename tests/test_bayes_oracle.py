"""The exact atom-posterior kernel against the formulas it replaced.

``oracle_posterior`` and ``oracle_posterior_law`` are the earlier
implementations, kept verbatim in arithmetic: each Bernoulli mass carries
its binomial coefficient, n = 0 returns the prior untouched, and the law
divides the theta0 mass by the prior-predictive probability.  The kernel
drops the coefficient and the special case, so the two must agree as
Fractions on every state, including sure coins (theta 0 or 1) and states
the prior cannot reach.
"""

import random
from fractions import Fraction as F

from posterior_dynamics import families as fam
from posterior_dynamics import orders
from posterior_dynamics import priors as pr
from posterior_dynamics.families import DomainError
from posterior_dynamics.orders import FiniteLaw


def oracle_posterior(prior, n, k):
    if n == 0:
        return prior.weights
    masses = [w * fam.binomial_pmf_exact(F(t), n, k) for t, w in prior.atoms]
    total = sum(masses)
    if total == 0:
        raise pr.ImpossibleObservationError(f"u_{n}={k}")
    return tuple(m / total for m in masses)


def oracle_posterior_law(prior, theta0, n, under=None):
    thetas = [F(t) for t in prior.thetas]
    weights = list(prior.weights)
    w0 = prior.weight_of(theta0)
    t0 = F(theta0)
    pairs = []
    for k in range(n + 1):
        pmf = [fam.binomial_pmf_exact(t, n, k) for t in thetas]
        marginal = sum(w * p for w, p in zip(weights, pmf))
        gen = marginal if under is None else fam.binomial_pmf_exact(F(under), n, k)
        if marginal == 0:
            if gen != 0:
                raise pr.ImpossibleObservationError("impossible observation")
            continue
        q0 = w0 * pmf[thetas.index(t0)] / marginal
        pairs.append((q0, gen))
    return FiniteLaw.from_pairs(pairs)


def oracle_prior_criterion(prior, theta0, theta1):
    mean = prior.mean()
    return prior.weight_of(theta0) * orders.expected_update_factor(mean, theta0, theta1)


def random_prior(rng: random.Random) -> pr.DiscreteAtoms:
    """1-4 atoms: sure coins at 0 and 1 often, other rationals on mixed grids."""
    thetas = set()
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            thetas.add(F(rng.choice((0, 1))))
        else:
            den = rng.choice((2, 3, 7, 20, 101))
            thetas.add(F(rng.randint(1, den - 1), den))
    raw = [rng.randint(1, 30) for _ in thetas]
    return pr.atoms(*((t, F(r, sum(raw))) for t, r in zip(sorted(thetas), raw)))


PRIORS = [random_prior(random.Random(seed)) for seed in range(60)] + [
    pr.atoms((F(0), F(1, 2)), (F(1), F(1, 2))),  # every mixed state impossible
    pr.atoms((F(1), F(1))),
    pr.atoms((F(0), F(1, 3)), (F(1, 2), F(1, 3)), (F(1), F(1, 3))),
]


def outcome(fn, *args):
    try:
        return fn(*args)
    except pr.ImpossibleObservationError:
        return "impossible"
    except DomainError:
        return "domain"


def test_priors_cover_sure_coins_and_impossible_states():
    assert any(p.is_atom(0) and p.is_atom(1) for p in PRIORS)
    assert any(outcome(oracle_posterior, p, 3, 1) == "impossible" for p in PRIORS)


def test_posterior_matches_oracle():
    for i, prior in enumerate(PRIORS):
        for n in range(0, 7):
            for k in range(n + 1):
                got = outcome(pr.posterior_given_suffstat, prior, n, k)
                want = outcome(oracle_posterior, prior, n, k)
                if want == "impossible":
                    assert got == want, (i, n, k)
                else:
                    assert got.thetas == prior.thetas
                    assert got.weights == want, (i, n, k)
                    assert all(isinstance(w, F) for w in got.weights)


def test_posterior_law_matches_oracle():
    for i, prior in enumerate(PRIORS):
        for theta0 in prior.thetas:
            for n in (1, 2, 3, 5):
                for under in (None, F(0), F(1, 2), F(1), *prior.thetas):
                    got = outcome(orders.posterior_law, prior, theta0, n, under)
                    want = outcome(oracle_posterior_law, prior, theta0, n, under)
                    assert got == want, (i, theta0, n, under)


def test_prior_criterion_matches_oracle():
    for i, prior in enumerate(PRIORS):
        for theta0 in prior.thetas:
            for theta1 in (F(0), F(1, 3), F(1), *prior.thetas):
                got = outcome(orders.check_prior_criterion, prior, theta0, theta1)
                want = outcome(oracle_prior_criterion, prior, theta0, theta1)
                assert (got if isinstance(got, str) else got[0]) == want, (i, theta0, theta1)
