"""Likelihood-ratio dominance, update factors, one-step identities, symmetry."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posterior_dynamics import orders
from posterior_dynamics import priors as pr
from posterior_dynamics.families import DomainError
from posterior_dynamics.orders import FiniteLaw

TWO_COINS = pr.atoms((F(3, 10), F(1, 2)), (F(7, 10), F(1, 2)))


class TestFiniteLaw:
    def test_grouping_and_sorting(self):
        law = FiniteLaw.from_pairs(
            [(F(1, 2), F(1, 4)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2))]
        )
        assert law.support == (F(1, 4), F(1, 2))
        assert law.probs == (F(1, 4), F(3, 4))

    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteLaw((F(1, 2), F(1, 4)), (F(1, 2), F(1, 4)))


class TestLrDominance:
    def test_worked_example(self):
        own = orders.posterior_law(TWO_COINS, F(7, 10), 1, under=F(7, 10))
        marg = orders.posterior_law(TWO_COINS, F(7, 10), 1, under=None)
        assert own.support == (F(3, 10), F(7, 10))
        assert own.probs == (F(3, 10), F(7, 10))
        assert marg.probs == (F(1, 2), F(1, 2))
        assert orders.lr_dominates(own, marg)
        assert not orders.lr_dominates(marg, own)

    def test_identical_laws_weakly_dominate(self):
        law = FiniteLaw((F(0), F(1)), (F(1, 3), F(2, 3)))
        assert orders.lr_dominates(law, law)

    def test_disjoint_supports(self):
        low = FiniteLaw((F(0), F(1)), (F(1, 2), F(1, 2)))
        high = FiniteLaw((F(2), F(3)), (F(1, 2), F(1, 2)))
        assert orders.lr_dominates(high, low)
        assert not orders.lr_dominates(low, high)


def earlier_lr_dominates(law_hi, law_lo):
    """The Fraction form lr_dominates had before it cross-multiplied
    integers: each point's probability found by a scan of the support."""

    def prob_of(law, value):
        for v, p in zip(law.support, law.probs):
            if v == value:
                return p
        return F(0)

    union = sorted(set(law_hi.support) | set(law_lo.support))
    hi = [prob_of(law_hi, v) for v in union]
    lo = [prob_of(law_lo, v) for v in union]
    for i in range(len(union)):
        for j in range(i + 1, len(union)):
            if hi[j] * lo[i] < hi[i] * lo[j]:
                return False
    return True


def law_of(weights):
    """Support point -> weight, normalised into a FiniteLaw; a zero weight
    stays in the support as a zero probability."""
    total = sum(weights.values()) or 1
    points = sorted(weights.items())
    return FiniteLaw(tuple(v for v, _ in points), tuple(F(w) / total for _, w in points))


GRID = st.fractions(0, 1, max_denominator=12) | st.integers(0, 1)
WEIGHT = st.one_of(st.integers(0, 9), st.fractions(F(1, 10**6), 10**6))
WEIGHTS = st.dictionaries(GRID, WEIGHT, min_size=1, max_size=7).filter(
    lambda w: sum(w.values()) > 0)


@given(WEIGHTS, WEIGHTS, st.lists(st.integers(1, 5), min_size=7, max_size=7))
def test_lr_dominates_matches_the_fraction_form(a, b, steps):
    """Random pairs rarely dominate, so each law is also paired with its own
    tilt by increasing factors, which always dominates it."""
    law_a, law_b = law_of(a), law_of(b)
    factors = [sum(steps[:i + 1]) for i in range(len(a))]
    tilted = law_of({v: w * f for (v, w), f in zip(sorted(a.items()), factors)})
    for hi, lo in ((law_a, law_b), (law_b, law_a), (law_a, law_a), (tilted, law_a),
                   (law_a, tilted)):
        assert orders.lr_dominates(hi, lo) == earlier_lr_dominates(hi, lo)
    assert orders.lr_dominates(tilted, law_a)


def test_lr_dominates_ignores_a_point_with_no_mass():
    """A point where both laws put zero neither breaks nor makes the order,
    though it sits between two points that are compared."""
    hi = FiniteLaw((F(0), F(1, 2), F(1)), (F(1, 4), F(0), F(3, 4)))
    lo = FiniteLaw((F(0), F(1, 2), F(1)), (F(3, 4), F(0), F(1, 4)))
    assert orders.lr_dominates(hi, lo) and not orders.lr_dominates(lo, hi)
    assert orders.lr_dominates(hi, lo) == earlier_lr_dominates(hi, lo)
    assert orders.lr_dominates(lo, hi) == earlier_lr_dominates(lo, hi)


class TestPosteriorLaw:
    def test_impossible_state_is_named(self):
        """Two sure coins cannot produce one success in two trials, though a
        fair coin can; the error names that state, as Bayes' rule does."""
        sure = pr.atoms((F(0), F(1, 2)), (F(1), F(1, 2)))
        with pytest.raises(pr.ImpossibleObservationError, match=r"^impossible observation "
                           r"under prior support: u_2=1$"):
            orders.posterior_law(sure, F(1), 2, under=F(1, 2))
        with pytest.raises(pr.ImpossibleObservationError, match=r"u_2=1$"):
            pr.posterior_given_suffstat(sure, 2, 1)

    def test_marginal_law_skips_states_the_prior_cannot_reach(self):
        sure = pr.atoms((F(0), F(1, 2)), (F(1), F(1, 2)))
        law = orders.posterior_law(sure, F(1), 2, under=None)
        assert law.support == (F(0), F(1))
        assert law.probs == (F(1, 2), F(1, 2))


class TestUpdateFactor:
    def test_anchored_at_one(self):
        for t0, t1 in ((F(1, 5), F(3, 5)), (F(2, 7), F(2, 7)), (F(9, 10), F(1, 10))):
            if 0 < t0 < 1:
                assert orders.expected_update_factor(t0, t0, t1) == 1
            if 0 < t1 < 1:
                assert orders.expected_update_factor(t1, t0, t1) == 1

    def test_between_and_outside(self):
        t0, t1 = F(1, 5), F(3, 5)
        assert orders.expected_update_factor(F(2, 5), t0, t1) == F(5, 6)
        assert orders.expected_update_factor(F(4, 5), t0, t1) == F(7, 4)

    def test_domain(self):
        with pytest.raises(DomainError):
            orders.expected_update_factor(F(0), F(1, 5), F(3, 5))


class TestOneStep:
    def test_prior_state_example(self):
        post = pr.posterior_given_suffstat(TWO_COINS, 0, 0)
        value = orders.one_step_expected_posterior(post, F(3, 10), F(7, 10))
        assert value == F(21, 50)

    def test_matches_direct_enumeration(self):
        rng = random.Random(7)
        for _ in range(20):
            prior = orders.random_rational_scenario(rng, max_atoms=4)
            theta0 = rng.choice(prior.thetas)
            theta1 = rng.choice(prior.thetas)
            n = rng.randint(0, 6)
            k = rng.randint(0, n) if n else 0
            post = pr.posterior_given_suffstat(prior, n, k)
            predicted = orders.one_step_expected_posterior(post, theta0, theta1)
            up = pr.posterior_given_suffstat(prior, n + 1, k + 1)
            down = pr.posterior_given_suffstat(prior, n + 1, k)
            t1 = F(theta1)
            direct = t1 * up.weight_of(theta0) + (1 - t1) * down.weight_of(theta0)
            assert predicted == direct

    def test_factor_one_freezes_the_expectation(self):
        prior = pr.atoms((F(2, 5), F(1, 3)), (F(7, 10), F(2, 3)))
        post = pr.posterior_given_suffstat(prior, 2, 1)
        mean = pr.mean_parameter(post)
        # generating parameter equal to the candidate: the factor anchors at
        # one exactly when the posterior mean sits on the candidate
        assert orders.expected_update_factor(mean, mean, F(1, 2)) == 1


class TestPriorCriterion:
    def test_between_lowers(self):
        expected, direction = orders.check_prior_criterion(TWO_COINS, F(3, 10), F(7, 10))
        assert direction == "le"
        assert expected == F(21, 50)
        assert expected < TWO_COINS.weight_of(F(3, 10))

    def test_same_side_raises(self):
        prior = pr.atoms((F(1, 10), F(1, 10)), (F(2, 10), F(1, 10)), (F(9, 10), F(8, 10)))
        # prior mean 0.75 sits above both candidate parameters
        expected, direction = orders.check_prior_criterion(prior, F(1, 10), F(1, 5))
        assert direction == "ge"
        assert expected >= prior.weight_of(F(1, 10))

    def test_equality_iff_mean_hits_an_endpoint(self):
        prior = pr.atoms((F(1, 4), F(1, 2)), (F(3, 4), F(1, 2)))  # mean 1/2
        expected, _ = orders.check_prior_criterion(prior, F(1, 4), F(1, 2))
        assert expected == prior.weight_of(F(1, 4))
        expected2, _ = orders.check_prior_criterion(prior, F(1, 4), F(3, 4))
        assert expected2 < prior.weight_of(F(1, 4))


class TestSymmetry:
    def test_coin_or_sure(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
        lhs, rhs, equal = orders.symmetry_check(prior, F(1, 2), F(1), 1)
        assert equal
        assert lhs == F(1, 6)

    def test_seeded_scenarios(self):
        rng = random.Random(11)
        for _ in range(10):
            prior = orders.random_rational_scenario(rng, max_atoms=4)
            theta0 = rng.choice(prior.thetas)
            theta1 = rng.choice(prior.thetas)
            _, _, equal = orders.symmetry_check(prior, theta0, theta1, rng.randint(1, 8))
            assert equal


class TestReversalSearch:
    def test_witness_found_and_reconstructs(self):
        witness = orders.find_lr_reversal(seed=42)
        assert witness is not None
        prior = pr.DiscreteAtoms(
            tuple((F(t), F(w)) for t, w in witness["atoms"])
        )
        theta0 = F(witness["theta0"])
        middle = F(witness["generating_theta"])
        n = witness["n"]
        marg = orders.posterior_law(prior, theta0, n, under=None)
        gen = orders.posterior_law(prior, theta0, n, under=middle)
        assert not orders.lr_dominates(marg, gen)
        assert orders.lr_dominates(gen, marg)
