"""Priors, exact posteriors, and prior-predictive laws."""

import itertools
import math
import struct
from fractions import Fraction as F

import pytest

from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr
from posterior_dynamics import scenario as sc
from posterior_dynamics.families import DomainError


BERN = fam.bernoulli()


class TestDiscreteAtoms:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(pr.PriorError, match="sum"):
            pr.DiscreteAtoms(((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4))))

    def test_weights_must_be_fractions(self):
        with pytest.raises(pr.PriorError):
            pr.DiscreteAtoms(((F(1, 2), 0.5), (F(1, 4), 0.5)))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(pr.PriorError, match="duplicate"):
            pr.atoms((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_boundary_atoms_allowed_for_bernoulli_only(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
        prior.validate_for(BERN)
        zero_atom = pr.atoms((F(0), F(1, 2)), (F(1, 2), F(1, 2)))
        zero_atom.validate_for(BERN)
        with pytest.raises(fam.DomainError):
            zero_atom.validate_for(fam.exponential())

    def test_mean(self):
        prior = pr.atoms((F(3, 10), F(1, 2)), (F(7, 10), F(1, 2)))
        assert prior.mean() == F(1, 2)


class TestPosterior:
    def test_coin_versus_sure_thing(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
        post = pr.posterior_given_suffstat(prior, 1, 1)
        assert post.weights == (F(1, 3), F(2, 3))
        assert pr.mean_parameter(post) == F(5, 6)

    def test_zero_kills_the_sure_thing(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
        post = pr.posterior_given_suffstat(prior, 1, 0)
        assert post.weights == (F(1), F(0, 1))

    def test_single_atom_stays_at_one(self):
        prior = pr.atoms((F(2, 5), F(1)))
        for n, u in ((1, 0), (3, 2), (5, 5)):
            post = pr.posterior_given_suffstat(prior, n, u)
            assert post.weights == (F(1),)

    def test_n_zero_returns_prior(self):
        prior = pr.atoms((F(3, 10), F(1, 2)), (F(7, 10), F(1, 2)))
        post = pr.posterior_given_suffstat(prior, 0, 0)
        assert post.weights == prior.weights
        assert pr.mean_parameter(post) == F(1, 2)

    def test_impossible_observation(self):
        prior = pr.atoms((F(1), F(1, 2)), (F(0), F(1, 2)))
        with pytest.raises(pr.ImpossibleObservationError):
            pr.posterior_given_suffstat(prior, 2, 1)

    @pytest.mark.parametrize("n,k", [(2, -1), (2, 3), (0, 1)])
    def test_count_outside_trials_is_impossible(self, n, k):
        prior = pr.atoms((F(1, 2), F(1)))
        with pytest.raises(pr.ImpossibleObservationError):
            pr.posterior_given_suffstat(prior, n, k)

    @pytest.mark.parametrize("n,k", [(-1, 0), (3, 1.0), (3, F(3, 2)), (3, "1")])
    def test_bad_counts_are_domain_errors(self, n, k):
        prior = pr.atoms((F(1, 2), F(1)))
        with pytest.raises(fam.DomainError):
            pr.posterior_given_suffstat(prior, n, k)

    def test_atoms_outside_bernoulli_domain(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)))
        with pytest.raises(fam.DomainError):
            pr.posterior_given_suffstat(prior, 1, 1)


class TestMartingaleProperties:
    def test_martingale_and_submartingale_exact(self):
        prior = pr.atoms((F(1, 5), F(2, 7)), (F(1, 2), F(3, 7)), (F(4, 5), F(2, 7)))
        for n in range(0, 8):
            for k in range(n + 1):
                post = pr.posterior_given_suffstat(prior, n, k)
                up_prob = sum(F(t) * w for t, w in zip(post.thetas, post.weights))
                up = pr.posterior_given_suffstat(prior, n + 1, k + 1)
                down = pr.posterior_given_suffstat(prior, n + 1, k)
                for theta in prior.thetas:
                    now = post.weight_of(theta)
                    marginal_next = up_prob * up.weight_of(theta) + (
                        1 - up_prob
                    ) * down.weight_of(theta)
                    assert marginal_next == now
                    t = F(theta)
                    own_next = t * up.weight_of(theta) + (1 - t) * down.weight_of(theta)
                    assert own_next >= now


class TestMarginals:
    def test_uniform_prior_is_flat(self):
        for u in range(8):
            value = pr.marginal_suffstat_logpmf(BERN, pr.Uniform01(), 7, u)
            assert value == pytest.approx(math.log(1.0 / 8.0), rel=1e-15)
        assert pr.marginal_suffstat_logpmf(BERN, pr.Uniform01(), 7, 8) == float("-inf")

    def test_atom_mixture(self):
        prior = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))
        value = pr.marginal_suffstat_logpmf(BERN, prior, 1, 1)
        assert value == pytest.approx(math.log(0.75), rel=1e-14)

    def test_exponential_prior(self):
        value = pr.marginal_suffstat_logpmf(fam.exponential(), pr.ExpPrior(1), 1, 1.0)
        assert value == pytest.approx(math.log(0.25), rel=1e-14)

    def test_beta_matches_exact(self):
        for n in (1, 4, 9):
            for k in range(n + 1):
                exact = pr.beta_marginal_pmf_exact(7, 1, n, k)
                logv = pr.marginal_suffstat_logpmf(BERN, pr.Beta(7, 1), n, k)
                assert logv == pytest.approx(math.log(float(exact)), rel=1e-12)

    def test_beta_row_sums_to_one(self):
        total = sum(pr.beta_marginal_pmf_exact(3, 2, 6, k) for k in range(7))
        assert total == 1

    @pytest.mark.parametrize("a", range(1, 7))
    @pytest.mark.parametrize("b", range(1, 7))
    def test_exact_beta_marginal_matches_the_factorial_form(self, a, b):
        fact = math.factorial
        for n in range(41):
            for k in range(n + 1):
                # C(n,k) B(k+a, n-k+b) / B(a,b) with integer-factorial Beta values
                num = math.comb(n, k) * fact(k + a - 1) * fact(n - k + b - 1) * fact(a + b - 1)
                want = F(num, fact(n + a + b - 1) * fact(a - 1) * fact(b - 1))
                assert pr.beta_marginal_pmf_exact(a, b, n, k) == want

    @pytest.mark.parametrize("a,b", [(F(7, 2), 1), (7.0, 1), (7, 0.5), (0, 1)])
    def test_exact_beta_marginal_needs_integer_shapes(self, a, b):
        with pytest.raises(pr.PriorError, match="needs integer a, b >= 1"):
            pr.beta_marginal_pmf_exact(a, b, 3, 1)

    def test_normal_marginal(self):
        # variance of the summed statistic is n^2 + n sigma^2
        value = pr.marginal_suffstat_logpmf(fam.normal(2.0), pr.StdNormal(), 3, 0.0)
        var = 9.0 + 3.0 * 4.0
        assert value == pytest.approx(-0.5 * math.log(2 * math.pi * var), rel=1e-15)

    def test_unsupported_conjugacy(self):
        with pytest.raises(pr.UnsupportedConjugacyError, match="unsupported conjugacy"):
            pr.marginal_suffstat_logpmf(fam.exponential(), pr.StdNormal(), 2, 1.0)


class TestPriorDensity:
    def test_beta_density_normalizes(self):
        from posterior_dynamics.quadrature import integrate

        val, _ = integrate(
            lambda t: math.exp(pr.prior_log_density(pr.Beta(7, 1), t)), 1e-12, 1 - 1e-12,
            tol=1e-10,
        )
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_uniform_and_exp(self):
        assert pr.prior_log_density(pr.Uniform01(), 0.4) == 0.0
        assert pr.prior_log_density(pr.ExpPrior(2), 1.0) == pytest.approx(
            math.log(2) - 2.0, rel=1e-15
        )

    def test_beta_density_reads_the_cached_shape(self):
        # bit for bit the expression that recomputed a, b and log B(a, b)
        shapes = [F(1, 3), 1, F(7, 2), 7, 0.25, 30.5]
        for a, b in itertools.product(shapes, repeat=2):
            fa, fb = float(a), float(b)
            log_beta = math.lgamma(fa) + math.lgamma(fb) - math.lgamma(fa + fb)
            for t in (1e-9, 0.1, F(1, 3), 0.5, 0.75, 1 - 1e-9):
                t = float(t)
                want = (fa - 1.0) * math.log(t) + (fb - 1.0) * math.log(1.0 - t) - log_beta
                got = pr.prior_log_density(pr.Beta(a, b), t)
                assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("rate,shown", [(F(1, 10**400), "0.0"), (10**400, "inf")])
def test_a_rate_without_a_positive_finite_float_is_refused_when_built(rate, shown):
    """The exact rate is positive and finite, but the routes read its float."""
    with pytest.raises(DomainError, match=rf"^rate={shown} must be finite and > 0$"):
        pr.ExpPrior(rate)


@pytest.mark.parametrize("a,b", [(10**400, 1), (1, F(10**401, 3)), (F(10**400), 10**400),
                                 (F(1, 10**400), 1)])
def test_a_beta_shape_without_a_finite_float_is_refused_when_built(a, b):
    """The exact shape is positive and finite, but the routes read its float."""
    with pytest.raises(pr.PriorError, match=r"^Beta prior requires finite a > 0 and b > 0$"):
        pr.Beta(a, b)


def test_an_atom_log_weight_is_taken_from_the_exact_weight():
    """A weight whose float is 0.0 keeps its finite log, which
    ``prior_log_density`` reads as the atom's log pi(theta)."""
    prior = pr.atoms((F(1, 2), F(1, 10**400)), (F(3, 4), 1 - F(1, 10**400)))
    assert dict(prior.log_weights)[F(1, 2)] == pytest.approx(-400 * math.log(10), rel=1e-15)
    assert pr.prior_log_density(prior, F(1, 2)) == dict(prior.log_weights)[F(1, 2)]
    assert pr.prior_log_density(prior, 0.75) == 0.0  # the float of 1 - 10^-400 is 1.0


def test_a_non_atom_reads_the_same_error_from_both_owners():
    prior = pr.atoms((F(1, 2), F(1, 2)), (F(3, 4), F(1, 2)))
    texts = set()
    for call in (prior.weight_of, lambda t: pr.prior_log_density(prior, t)):
        with pytest.raises(pr.PriorError) as info:
            call(F(1, 3))
        texts.add(str(info.value))
    assert texts == {"theta=1/3 is not an atom of the prior"}


@pytest.mark.parametrize("theta", [F(1, 10**400), 1 - F(1, 10**400)])
def test_a_beta_density_refuses_a_theta_whose_float_leaves_the_interval(theta):
    """The exact theta lies in (0, 1), but the log density reads its float."""
    with pytest.raises(DomainError, match="as a float, outside"):
        pr.prior_log_density(pr.Beta(2, 3), theta)


def test_the_support_is_decided_on_the_exact_theta():
    for prior in (pr.Uniform01(), pr.Beta(2, 3)):
        assert pr.prior_log_density(prior, 0) == pr.prior_log_density(prior, 1) == -math.inf
    assert pr.prior_log_density(pr.Uniform01(), F(1, 10**400)) == 0.0


class TestJson:
    def test_atoms_round_trip(self):
        obj = {
            "type": "atoms",
            "atoms": [
                {"theta": "1/2", "weight": "4100/5001"},
                {"theta": "13/20", "weight": "1/5001"},
                {"theta": "17/20", "weight": "900/5001"},
            ],
        }
        prior = sc.prior_from_json(obj)
        assert isinstance(prior, pr.DiscreteAtoms)
        assert prior.weights == (F(4100, 5001), F(1, 5001), F(900, 5001))
        assert sc.prior_from_json(sc.prior_to_json(prior)) == prior

    def test_named_round_trips(self):
        for prior in (pr.Uniform01(), pr.Beta(F(7), F(1)), pr.StdNormal(), pr.ExpPrior(F(2))):
            assert sc.prior_from_json(sc.prior_to_json(prior)) == prior

    def test_bad_weight_rejected(self):
        with pytest.raises(pr.PriorError):
            sc.prior_from_json(
                {"type": "atoms", "atoms": [{"theta": "1/2", "weight": 0.5}]}
            )

    def test_unknown_type(self):
        with pytest.raises(sc.ScenarioError):
            sc.prior_from_json({"type": "cauchy"})
