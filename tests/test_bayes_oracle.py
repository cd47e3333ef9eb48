"""The exact atom-posterior kernel against the formulas it replaced.

``oracle_posterior`` and ``oracle_posterior_law`` are the earlier
implementations, kept verbatim in arithmetic: each Bernoulli mass carries
its binomial coefficient, n = 0 returns the prior untouched, and the law
divides the theta0 mass by the prior-predictive probability.  The
kernel works on the prior's integer form and drops the coefficient and the
special case, so each pair must agree as Fractions, with the same error
types, on every state: sure coins (theta 0 or 1), dyadic float atoms,
weights over unequal denominators, generating parameters outside [0, 1]
and states the prior cannot reach.
"""

import random
from fractions import Fraction as F

import pytest

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
    # dyadic float atoms, one of them a sure coin
    pr.atoms((0.25, F(1, 2)), (0.625, F(1, 3)), (1.0, F(1, 6))),
    pr.atoms((0.0, F(2, 7)), (F(3, 8), F(5, 11)), (0.75, F(1) - F(2, 7) - F(5, 11))),
    # weights over unequal denominators
    pr.atoms((F(1, 3), F(1, 2)), (F(2, 5), F(1, 3)), (F(6, 7), F(1, 6))),
    pr.atoms((F(1, 10), F(3, 13)), (F(1, 2), F(4, 9)), (F(9, 10), F(1) - F(3, 13) - F(4, 9))),
]
UNDER = (None, F(0), F(1, 2), F(1), F(-1, 4), F(3, 2), 0.5)


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


def test_priors_cover_float_atoms_and_unequal_weight_denominators():
    assert any(isinstance(t, float) for p in PRIORS for t in p.thetas)
    assert any(len({w.denominator for w in p.weights}) > 1 for p in PRIORS)


def test_posterior_matches_oracle():
    for i, prior in enumerate(PRIORS):
        for n in range(0, 11):
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
            for n in (1, 2, 3, 5, 10):
                for under in (*UNDER, *prior.thetas):
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


BAD_ATOM = pr.atoms((F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)))
COIN = pr.atoms((F(1, 2), F(1)))


@pytest.mark.parametrize("fn,oracle,args,want", [
    (pr.posterior_given_suffstat, oracle_posterior, (BAD_ATOM, 2, 1), "domain"),
    (orders.posterior_law, oracle_posterior_law, (BAD_ATOM, F(1, 2), 2, None), "domain"),
    (orders.posterior_law, oracle_posterior_law, (COIN, F(1, 2), 2, F(-1, 4)), "domain"),
    (orders.posterior_law, oracle_posterior_law, (COIN, F(1, 2), 2, F(3, 2)), "domain"),
])
def test_errors_keep_their_types(fn, oracle, args, want):
    assert outcome(fn, *args) == outcome(oracle, *args) == want


@pytest.mark.parametrize("args,want", [
    ((COIN, -1, 0), "domain"),
    ((COIN, 2, F(1, 2)), "domain"),
    ((COIN, 2, 3), "impossible"),
])
def test_posterior_refuses_states_outside_n_trials(args, want):
    """No oracle here: ``oracle_posterior`` reads n < 0 as an impossible
    observation."""
    assert outcome(pr.posterior_given_suffstat, *args) == want


def test_unparsable_generating_parameter_is_a_value_error():
    for fn in (orders.posterior_law, oracle_posterior_law):
        with pytest.raises(ValueError, match="Invalid literal"):
            fn(COIN, F(1, 2), 2, "not a number")


def test_integer_form_leaves_equality_hash_and_repr_alone():
    for prior in PRIORS:
        fresh = pr.DiscreteAtoms(prior.atoms)
        assert "integer_form" not in vars(fresh)
        outcome(pr.posterior_given_suffstat, prior, 3, 1)
        form = prior.integer_form
        assert "integer_form" in vars(prior) and prior.integer_form is form
        assert prior == fresh and fresh == prior
        assert hash(prior) == hash(fresh)
        assert repr(prior) == repr(fresh)
        assert {fresh: 1}[prior] == 1


def test_integer_form_refuses_non_bernoulli_atoms_every_time():
    for _ in range(2):
        with pytest.raises(DomainError):
            BAD_ATOM.integer_form
    assert "integer_form" not in vars(BAD_ATOM)


def test_integer_form_is_the_prior_over_integers():
    for prior in PRIORS:
        form = prior.integer_form
        for (t, w), (wi, a, b) in zip(prior.atoms, form.atoms):
            assert F(a, form.denom) == t and F(b, form.denom) == 1 - F(t)
            assert F(wi, form.wdenom) == w
