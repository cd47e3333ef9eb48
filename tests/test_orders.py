"""Likelihood-ratio dominance, update factors, one-step identities, symmetry."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posterior_dynamics import audit, orders
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

    def test_matches_the_search_on_built_laws(self):
        for seed in range(300):
            assert orders.find_lr_reversal(seed) == search_on_built_laws(seed)


def search_on_built_laws(seed):
    """``find_lr_reversal`` as it searched before it read one integer mass
    table per trial: four gated ``posterior_law`` builds per (theta0, n),
    compared by ``lr_dominates``."""
    rng = random.Random(seed)
    for trial in range(2000):
        prior = orders.random_rational_scenario(rng, max_atoms=3)
        if len(prior.atoms) != 3:
            continue
        thetas = prior.thetas
        middle = thetas[1]
        for theta0 in (thetas[0], thetas[2]):
            for n in (1, 2, 3):
                marginal_law = orders.posterior_law(prior, theta0, n, under=None)
                generated_law = orders.posterior_law(prior, theta0, n, under=middle)
                if not orders.lr_dominates(marginal_law, generated_law) and orders.lr_dominates(
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


# ---------------------------------------------------------------------------
# scenario_verdicts: the integer-mass verdicts against their Fraction definitions
# ---------------------------------------------------------------------------


def fraction_verdicts(prior, theta0, theta1, horizon, state, symmetry_n):
    """The scenario checks of ``orders.scenario_verdicts`` as
    ``audit.suite_orders`` decided them on Fractions: Bayes' rule by
    ``posterior_given_suffstat`` at every state, ``lr_dominates`` on
    ``posterior_law`` laws, the gated one-step entry points and
    ``symmetry_check``."""
    thetas = prior.thetas
    posts = {}
    for n in range(horizon + 1):
        for k in range(n + 1):
            try:
                posts[n, k] = pr.posterior_given_suffstat(prior, n, k)
            except pr.ImpossibleObservationError:
                pass
    martingale = submartingale = True
    for (n, k), post in posts.items():
        if n == horizon:
            continue
        succ = pr.mean_parameter(post)
        up, dn = posts.get((n + 1, k + 1)), posts.get((n + 1, k))
        for theta in thetas:
            q_now = post.weight_of(theta)
            q_up = up.weight_of(theta) if up is not None else 0
            q_dn = dn.weight_of(theta) if dn is not None else 0
            martingale &= succ * q_up + (1 - succ) * q_dn == q_now
            submartingale &= F(theta) * q_up + (1 - F(theta)) * q_dn >= q_now
    own = all(orders.lr_dominates(orders.posterior_law(prior, theta, n, under=theta),
                                  orders.posterior_law(prior, theta, n))
              for theta in thetas for n in (1, 2, 3))
    low, high = min(thetas), max(thetas)
    extreme = all(orders.lr_dominates(orders.posterior_law(prior, low, n),
                                      orders.posterior_law(prior, low, n, under=high))
                  for n in (1, 2))
    expected, direction = orders.check_prior_criterion(prior, theta0, theta1)
    pi0, mean = prior.weight_of(theta0), prior.mean()
    direction_ok = ((expected <= pi0 if direction == "le" else expected >= pi0)
                    and (expected == pi0) == (mean in (theta0, theta1)) and expected >= 0)
    own_expected, _ = orders.check_prior_criterion(prior, theta0, theta0)
    above = own_expected >= pi0 and not (mean != theta0 and own_expected == pi0)
    one_step = True
    try:
        post = pr.posterior_given_suffstat(prior, *state)
    except pr.ImpossibleObservationError:
        post = None
    if post is not None:
        n, k = state
        up = pr.posterior_given_suffstat(prior, n + 1, k + 1).weight_of(theta0)
        dn = pr.posterior_given_suffstat(prior, n + 1, k).weight_of(theta0)
        direct = F(theta1) * up + (1 - F(theta1)) * dn
        one_step = orders.one_step_expected_posterior(post, theta0, theta1) == direct
    _, _, symmetric = orders.symmetry_check(prior, theta0, theta1, symmetry_n)
    return {"martingale_exact": martingale, "submartingale_exact": submartingale,
            "own_law_dominates_marginal": own, "direction_criterion": direction_ok,
            "expected_above_prior": above, "one_step_identity": one_step,
            "two_sided_symmetry": symmetric, "extreme_atom_dominance": extreme}


@st.composite
def order_scenarios(draw):
    """2-4 atoms, often sure coins at 0 and 1, so that some states cannot be
    reached and some successors are missing; theta0 and theta1 are atoms.
    A one-step state whose posterior mean is 0 or 1, where V has a pole and
    a successor may be missing, is replaced by the prior's state (0, 0).
    The last entry is the step at which the symmetry is checked."""
    atom = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=20)
    thetas = draw(st.lists(atom, min_size=2, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(thetas), max_size=len(thetas)))
    prior = pr.atoms(*((t, F(r, sum(raw))) for t, r in zip(thetas, raw)))
    theta0, theta1 = draw(st.sampled_from(thetas)), draw(st.sampled_from(thetas))
    horizon, n = draw(st.integers(1, 8)), draw(st.integers(0, 6))
    state = (n, draw(st.integers(0, n)))
    try:
        mean = pr.mean_parameter(pr.posterior_given_suffstat(prior, *state))
    except pr.ImpossibleObservationError:
        mean = F(1, 2)
    return (prior, theta0, theta1, horizon, state if 0 < mean < 1 else (0, 0),
            draw(st.integers(1, 8)))


@settings(max_examples=150)
@given(order_scenarios())
def test_integer_verdicts_match_the_fraction_definitions(scenario):
    """Key order too: it is the order of the audit report."""
    got, want = orders.scenario_verdicts(*scenario), fraction_verdicts(*scenario)
    assert list(got.items()) == list(want.items())


def test_sure_coins_leave_states_unreachable_and_successors_missing():
    """Under two sure coins only u_n = 0 and u_n = n can happen, so every
    state after the first step has one successor the prior cannot reach;
    the martingale loop skips it as the Fraction definition does."""
    sure = pr.atoms((F(0), F(1, 2)), (F(1), F(1, 2)))
    pr.posterior_given_suffstat(sure, 1, 1)
    with pytest.raises(pr.ImpossibleObservationError):
        pr.posterior_given_suffstat(sure, 2, 1)
    for scenario in ((sure, F(1), F(0), 3, (0, 0), 2), (sure, F(0), F(0), 1, (0, 0), 5)):
        verdicts = orders.scenario_verdicts(*scenario)
        assert verdicts == fraction_verdicts(*scenario) and all(verdicts.values())


MUTATION_SCENARIO = (pr.atoms((F(1, 5), F(1, 4)), (F(1, 2), F(1, 4)), (F(4, 5), F(1, 2))),
                     F(1, 5), F(4, 5), 4, (2, 1), 3)


def test_a_perturbed_mass_flips_the_martingale(monkeypatch):
    assert all(orders.scenario_verdicts(*MUTATION_SCENARIO).values())
    masses = pr.AtomIntegerForm.masses

    def perturbed(form, n, k):
        row = masses(form, n, k)
        return [row[0] + 1, *row[1:]] if (n, k) == (2, 1) else row

    monkeypatch.setattr(pr.AtomIntegerForm, "masses", perturbed)
    assert not orders.scenario_verdicts(*MUTATION_SCENARIO)["martingale_exact"]
    assert not fraction_verdicts(*MUTATION_SCENARIO)["martingale_exact"]
    report = audit.run_suite("orders", seed=11)
    assert not {c["name"]: c["pass"] for c in report["checks"]}["martingale_exact"]


def test_swapped_laws_flip_own_law_dominance(monkeypatch):
    prior, theta = MUTATION_SCENARIO[0], F(1, 2)
    own = orders.posterior_law(prior, theta, 2, under=theta)
    marg = orders.posterior_law(prior, theta, 2)
    assert orders.lr_dominates(own, marg) and not orders.lr_dominates(marg, own)
    holds = orders._lr_holds
    monkeypatch.setattr(orders, "_lr_holds", lambda hi, lo: holds(lo, hi))
    assert not orders.scenario_verdicts(*MUTATION_SCENARIO)["own_law_dominates_marginal"]
    report = audit.run_suite("orders", seed=11)
    assert not {c["name"]: c["pass"] for c in report["checks"]}["own_law_dominates_marginal"]
