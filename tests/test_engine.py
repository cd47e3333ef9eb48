"""Expected-posterior routes and their cross-route agreements."""

import math
import random
import re
from fractions import Fraction as F
from itertools import pairwise
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posterior_dynamics import cli
from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine
from posterior_dynamics import families as fam
from posterior_dynamics import figures
from posterior_dynamics import orders
from posterior_dynamics import priors as pr
from posterior_dynamics.families import DomainError
from posterior_dynamics.util import DeferredExactValue, ExactValue, tree_sum_fractions


def reduction_check_factor(family, prior, theta0, theta1):
    """(theta_mid, affinity, prior density ratio at theta0 over theta_mid):
    the off-diagonal sequence is ratio * diagonal(theta_mid) * affinity^n."""
    mid, affinity = fam.bhattacharyya_reduction(family, theta0, theta1)
    ratio = math.exp(pr.prior_log_density(prior, theta0) - pr.prior_log_density(prior, mid))
    return mid, affinity, ratio


COIN_OR_SURE = pr.atoms((F(1, 2), F(1, 2)), (F(1), F(1, 2)))

FIGURE1_PRIOR = pr.atoms(
    (F(1, 2), F(4100, 5001)), (F(13, 20), F(1, 5001)), (F(17, 20), F(900, 5001))
)


class TestDiscreteRoute:
    def test_coin_or_sure_diagonal(self):
        seq = engine.expected_posterior_discrete(COIN_OR_SURE, F(1, 2), F(1, 2), 3)
        assert [v.as_fraction() for v in seq.values] == [F(2, 3), F(4, 5), F(8, 9)]
        assert seq.method == engine.METHOD_EXACT
        assert seq.representation == engine.REPR_RATIONAL

    def test_point_mass_is_constant_one(self):
        prior = pr.atoms((F(2, 5), F(1)))
        seq = engine.expected_posterior_discrete(prior, F(2, 5), F(7, 10), 6)
        assert all(v == 1 for v in seq.values)

    def test_theta0_must_be_atom(self):
        with pytest.raises(DomainError, match="atom"):
            engine.expected_posterior_discrete(COIN_OR_SURE, F(1, 3), F(1, 2), 3)

    def test_float_mode_tracks_exact(self):
        exact = engine.expected_posterior_discrete(
            FIGURE1_PRIOR, F(1, 2), F(13, 20), 40, mode="exact"
        )
        approx = engine.expected_posterior_discrete(
            FIGURE1_PRIOR, F(1, 2), F(13, 20), 40, mode="float"
        )
        assert approx.representation == engine.REPR_FLOAT
        for v_exact, v_float in zip(exact.values, approx.values):
            assert v_float == pytest.approx(float(v_exact), rel=1e-12)

    def test_exact_mode_requires_rational(self):
        with pytest.raises(DomainError, match="rational"):
            engine.expected_posterior_discrete(COIN_OR_SURE, F(1, 2), 0.3, 5, mode="exact")

    def test_generating_parameter_off_the_atom_grid(self):
        seq = engine.expected_posterior_discrete(COIN_OR_SURE, F(1, 2), F(3, 7), 4)
        assert seq.representation == engine.REPR_RATIONAL
        brute = engine.expected_posterior_bruteforce(COIN_OR_SURE, F(1, 2), F(3, 7), 4)
        assert seq.value(4).as_fraction() == brute


def eager_pairs(prior, theta0, theta1, horizon):
    """The exact (num, den) of psi(1..horizon) as the atom route builds
    them when nothing is deferred: over the common denominators of the
    atoms and theta1 and of the weights, one tree_sum_fractions per n of
    C(n, k) (theta0 theta1)^k ((1-theta0)(1-theta1))^(n-k) over the prior
    mass of u_n = k, skipping zero masses that theta1 cannot produce."""
    denom = math.lcm(*(F(t).denominator for t in prior.thetas), F(theta1).denominator)
    wdenom = math.lcm(*(w.denominator for w in prior.weights))
    atoms = [(int(t * denom), int(w * wdenom)) for t, w in prior.atoms]
    a0, a1 = int(theta0 * denom), int(theta1 * denom)
    pairs = []
    for n in range(1, horizon + 1):
        nums, dens = [], []
        for k in range(n + 1):
            mass = sum(w * a**k * (denom - a) ** (n - k) for a, w in atoms)
            if mass:
                nums.append(math.comb(n, k) * (a0 * a1) ** k
                            * ((denom - a0) * (denom - a1)) ** (n - k))
                dens.append(mass)
            elif a1**k * (denom - a1) ** (n - k):
                raise pr.ImpossibleObservationError(
                    f"impossible observation under prior support: u_{n}={k}")
        num, den = tree_sum_fractions(nums, dens)
        pairs.append((int(prior.weight_of(theta0) * wdenom) * num, den * denom**n))
    return pairs


GRID = [F(i, 20) for i in range(21)]


@st.composite
def atom_cases(draw):
    """(prior, theta0, theta1, horizon): 2-4 atoms on the 1/20 grid with 0
    and 1, theta1 anywhere in [0, 1], a horizon long enough to defer."""
    thetas = draw(st.lists(st.sampled_from(GRID), min_size=2, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 5000), min_size=len(thetas), max_size=len(thetas)))
    prior = pr.atoms(*((t, F(w, sum(raw))) for t, w in zip(thetas, raw)))
    q = draw(st.integers(1, 40))
    theta1 = F(draw(st.integers(0, q)), q)
    return prior, draw(st.sampled_from(thetas)), theta1, draw(st.integers(60, 72))


class TestDeferredValues:
    @settings(max_examples=15)
    @given(atom_cases())
    def test_every_read_matches_the_eager_pair(self, case):
        try:
            pairs = eager_pairs(*case)
        except pr.ImpossibleObservationError as err:
            with pytest.raises(pr.ImpossibleObservationError, match=re.escape(str(err))):
                engine.expected_posterior_discrete(*case)
            return
        fractions = [F(*pair) for pair in pairs]
        with mock.patch.object(engine, "tree_sum_fractions", wraps=tree_sum_fractions) as sums:
            seq = engine.expected_posterior_discrete(*case)
            eager = sum(not isinstance(v, DeferredExactValue) for v in seq.values)
            for v, pair, log in zip(seq.values, pairs, seq.log_values):
                want = ExactValue(*pair)
                assert (float(v), v.log(), log) == (float(want), want.log(), want.log())
                assert v.canonical_str() == want.canonical_str()
            assert sums.call_count == eager  # no read so far built a pair
            for (a, b), (fa, fb) in zip(pairwise(seq.values), pairwise(fractions)):
                assert [a < b, a <= b, a > b, a >= b, a == b] == [
                    fa < fb, fa <= fb, fa > fb, fa >= fb, fa == fb]
            for v, pair, f in zip(seq.values, pairs, fractions):
                assert (v.as_fraction(), hash(v), (v.num, v.den)) == (f, hash(f), pair)
            assert sums.call_count == case[3]

    def test_figure1_defers_every_value_too_large_to_print(self):
        seq = engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), F(13, 20), 200)
        deferred = [n for n in seq.ns() if isinstance(seq.value(n), DeferredExactValue)]
        assert deferred == list(range(47, 201))
        assert seq.rational_strings()[46:] == [None] * 154
        assert seq.value(46).canonical_str() is not None
        with mock.patch.object(engine, "tree_sum_fractions") as sums:
            assert seq.value(100) > seq.value(200)  # decided on the floats
        assert sums.call_count == 0

    @pytest.mark.parametrize("name,deferred", [("figure1", range(47, 201)),
                                               ("figure2", range(46, 201))])
    def test_deferred_reads_equal_the_rebuilt_pair(self, name, deferred):
        sc = figures.bundled_scenario(name)
        seq = engine.expected_posterior_discrete(sc.prior, sc.theta0, sc.theta1, 200)
        ints = engine._AtomIntegers.of(sc.prior, sc.theta0, sc.theta1)
        assert [n for n in seq.ns() if isinstance(seq.value(n), DeferredExactValue)] == list(
            deferred)
        for n in seq.ns():
            v, eager = seq.value(n), ExactValue(*ints.rebuild(n))
            assert (float(v), v.log()) == (float(eager), eager.log())

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_impossible_observation_is_refused(self, mode):
        # atoms 0 and 1 give u_2 = 1 no prior mass, but theta1 = 1/2 can produce it
        prior = pr.atoms((F(0), F(1, 2)), (F(1), F(1, 2)))
        with pytest.raises(pr.ImpossibleObservationError, match=r"u_2=1$"):
            engine.expected_posterior_discrete(prior, F(0), F(1, 2), 60, mode=mode)

    def test_zero_psi_keeps_log_minus_infinity(self):
        # theta0 = 0 explains no success, theta1 = 1 produces only successes
        prior = pr.atoms((F(0), F(1, 3)), (F(1, 20), F(2, 3)))
        seq = engine.expected_posterior_discrete(prior, F(0), F(1), 80)
        assert seq.log_values == [-math.inf] * 80
        assert [v.as_fraction() for v in seq.values] == [0] * 80
        assert not any(isinstance(v, DeferredExactValue) for v in seq.values)


SURE_OR_RATIONAL = st.one_of(st.sampled_from([F(0), F(1)]), st.fractions(0, 1, max_denominator=30))


@st.composite
def sure_coin_cases(draw, max_horizon=40):
    """(prior, theta0, theta1, horizon): 1-4 rational atoms and a theta1,
    each often a sure coin (0 or 1)."""
    thetas = draw(st.lists(SURE_OR_RATIONAL, min_size=1, max_size=4, unique=True))
    raw = draw(st.lists(st.integers(1, 5000), min_size=len(thetas), max_size=len(thetas)))
    prior = pr.atoms(*((t, F(w, sum(raw))) for t, w in zip(thetas, raw)))
    return (prior, draw(st.sampled_from(thetas)), draw(SURE_OR_RATIONAL),
            draw(st.integers(1, max_horizon)))


def oracle_atom_integers(prior, theta0, theta1):
    """The route's integers built from Fractions: each atom and theta1 over
    their common denominator, each weight over the weights'."""
    thetas = [F(t) for t in prior.thetas]
    t1 = F(theta1)
    denom = math.lcm(*(t.denominator for t in thetas), t1.denominator)
    wdenom = math.lcm(*(w.denominator for w in prior.weights))
    atoms = tuple(
        (int(w * wdenom), int(t * denom), denom - int(t * denom))
        for t, w in zip(thetas, prior.weights)
    )
    w0, a0, b0 = atoms[thetas.index(F(theta0))]
    a1 = int(t1 * denom)
    return denom, wdenom, atoms, w0, a0 * a1, b0 * (denom - a1), a1, denom - a1


@st.composite
def theta1_cases(draw, relation):
    """(prior, theta0, theta1): 1-4 atoms, often sure coins, and a theta1
    whose reduced denominator is a multiple, a divisor or neither of the
    atoms' common denominator d; a divisor may be 1, so theta1 in {0, 1}."""
    prior, theta0, _, _ = draw(sure_coin_cases())
    d = math.lcm(*(F(t).denominator for t in prior.thetas))
    if relation == "multiple":
        q = d * draw(st.integers(1, 6))
    elif relation == "divisor":
        q = math.gcd(d, draw(st.integers(1, 60)))
    else:
        assume(d > 1)  # every denominator is a multiple of 1
        q = draw(st.integers(2, 60).filter(lambda q: q % d and d % q))
    p = draw(st.integers(0, q).filter(lambda p: math.gcd(p, q) == 1))
    return prior, theta0, F(p, q)


class TestCarriedRows:
    """The sweep advances each n's terms from n - 1; a deferred pair is
    rebuilt from powers at its own n."""

    @settings(max_examples=40)
    @given(sure_coin_cases())
    def test_sweep_matches_the_direct_terms(self, case):
        prior, theta0, theta1, horizon = case
        ints = engine._AtomIntegers.of(prior, theta0, theta1)
        try:
            pairs = eager_pairs(*case)
        except pr.ImpossibleObservationError as err:
            # refused at the same (n, k), with the same message
            for refused in (lambda: list(ints.carried_terms(horizon)),
                            lambda: engine.expected_posterior_discrete(*case)):
                with pytest.raises(pr.ImpossibleObservationError, match=re.escape(str(err)) + "$"):
                    refused()
            return
        for n, terms in enumerate(ints.carried_terms(horizon), start=1):
            assert terms == ints.direct_terms(n)
        with mock.patch.object(engine, "certified_quotient", return_value=None):
            seq = engine.expected_posterior_discrete(*case)  # every pair from the sweep
        assert [(v.num, v.den) for v in seq.values] == pairs
        assert [ints.rebuild(n) for n in seq.ns()] == pairs

    @pytest.mark.parametrize("relation", ["multiple", "divisor", "neither"])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_integers_match_the_fraction_oracle(self, relation, data):
        prior, theta0, theta1 = data.draw(theta1_cases(relation))
        ints = engine._AtomIntegers.of(prior, theta0, theta1)
        got = (ints.form.denom, ints.form.wdenom, ints.form.atoms,
               ints.w0, ints.a01, ints.b01, ints.a1, ints.b1)
        assert got == oracle_atom_integers(prior, theta0, theta1)

    @settings(max_examples=20)
    @given(sure_coin_cases(max_horizon=7))
    def test_bruteforce_matches_the_sweep(self, case):
        prior, theta0, theta1, horizon = case
        try:
            pairs = eager_pairs(*case)
        except pr.ImpossibleObservationError:
            with pytest.raises(pr.ImpossibleObservationError):
                for n in range(1, horizon + 1):
                    engine.expected_posterior_bruteforce(*case[:3], n)
            return
        for n, pair in enumerate(pairs, start=1):
            assert engine.expected_posterior_bruteforce(*case[:3], n) == F(*pair)


def test_psi_figure1_sums_only_the_printed_rationals(monkeypatch, tmp_path):
    """A CLI run of figure1 (H = 200) through analysis and emission builds
    the exact pair only where canonical_str prints it (n <= 46)."""
    calls = []
    monkeypatch.setattr(engine, "tree_sum_fractions",
                        lambda nums, dens: calls.append(len(nums)) or tree_sum_fractions(nums, dens))
    assert cli.main(["psi", "figure1", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) <= 50


class TestBruteForceOracle:
    def test_hand_enumeration(self):
        assert engine.expected_posterior_bruteforce(COIN_OR_SURE, F(1, 2), F(1, 2), 1) == F(2, 3)

    def test_point_mass(self):
        prior = pr.atoms((F(1, 3), F(1)))
        assert engine.expected_posterior_bruteforce(prior, F(1, 3), F(2, 3), 5) == 1

    def test_cap(self):
        with pytest.raises(DomainError, match="cap"):
            engine.expected_posterior_bruteforce(COIN_OR_SURE, F(1, 2), F(1, 2), 15)

    def test_oracle_equivalence_on_seeded_scenarios(self):
        rng = random.Random(20240811)
        for _ in range(6):
            prior = orders.random_rational_scenario(rng, max_atoms=4)
            theta0 = rng.choice(prior.thetas)
            theta1 = rng.choice(prior.thetas)
            horizon = rng.randint(1, 8)
            seq = engine.expected_posterior_discrete(prior, theta0, theta1, horizon)
            for n in range(1, horizon + 1):
                brute = engine.expected_posterior_bruteforce(prior, theta0, theta1, n)
                assert seq.value(n).as_fraction() == brute

    def test_three_atom_benchmark_term_by_term(self):
        seq = engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), F(13, 20), 12)
        for n in range(1, 13):
            brute = engine.expected_posterior_bruteforce(FIGURE1_PRIOR, F(1, 2), F(13, 20), n)
            assert seq.value(n).as_fraction() == brute
        assert seq.value(1).as_fraction() == F(657627700, 820424097)


class TestUniformRoute:
    def test_fair_coin_values(self):
        seq = engine.expected_posterior_uniform(F(1, 2), F(1, 2), 3)
        assert seq.values == [F(1), F(9, 8), F(5, 4)]
        assert seq.method == engine.METHOD_UNIFORM

    def test_reduction_identity_exact(self):
        # (1/5, 4/5) has midpoint 1/2 and affinity 16/25 in closed form,
        # so the off-diagonal values are the diagonal ones scaled by (16/25)^n
        off = engine.expected_posterior_uniform(F(1, 5), F(4, 5), 12)
        diag = engine.expected_posterior_uniform(F(1, 2), F(1, 2), 12)
        for n in range(1, 13):
            assert off.value(n) == diag.value(n) * F(16, 25) ** n

    def test_reduction_identity_float(self):
        family = fam.bernoulli()
        t0, t1 = 0.3, 0.55
        mid, affinity = fam.bhattacharyya_reduction(family, t0, t1)
        off = engine.expected_posterior_uniform(t0, t1, 30, mode="float")
        diag = engine.expected_posterior_uniform(mid, mid, 30, mode="float")
        for n in range(1, 31):
            assert off.value(n) == pytest.approx(
                diag.value(n) * affinity**n, rel=1e-10
            )

    def test_float_matches_exact(self):
        exact = engine.expected_posterior_uniform(F(1, 2), F(3, 4), 60, mode="exact")
        approx = engine.expected_posterior_uniform(F(1, 2), F(3, 4), 60, mode="float")
        for n in range(1, 61):
            assert approx.value(n) == pytest.approx(float(exact.value(n)), rel=1e-10)

    def test_matches_quadrature_sum(self):
        value, err = engine.expected_posterior_quadrature(
            fam.bernoulli(), pr.Uniform01(), F(1, 2), F(1, 2), 2
        )
        assert err == 0.0
        assert value == pytest.approx(9 / 8, abs=1e-12)


class TestNormalRoute:
    def test_standard_value(self):
        seq = engine.expected_posterior_normal(0.0, 0.0, 1.0, 1)
        assert seq.value(1) == pytest.approx(2.0 / math.sqrt(6 * math.pi), rel=1e-14)

    def test_diagonal_needs_no_decay_factor(self):
        direct = engine.expected_posterior_normal(0.7, 0.7, 2.0, 5)
        log_direct = engine.log_expected_posterior_normal(0.7, 0.7, 2.0, 5)
        assert direct.log_values[-1] == pytest.approx(log_direct, rel=1e-15)

    def test_matches_quadrature(self):
        for n in (1, 2, 7):
            for t0, t1 in ((0.0, 0.0), (-0.4, 0.9)):
                closed = engine.expected_posterior_normal(t0, t1, 1.0, n).value(n)
                quad, _ = engine.expected_posterior_quadrature(
                    fam.normal(1.0), pr.StdNormal(), t0, t1, n, tol=1e-11
                )
                assert closed == pytest.approx(quad, rel=1e-8)

    def test_sigma_domain(self):
        with pytest.raises(DomainError):
            engine.expected_posterior_normal(0.0, 0.0, -1.0, 3)

    def test_reduction_identity(self):
        family = fam.normal(1.5)
        t0, t1 = -0.3, 0.8
        mid, affinity, ratio = reduction_check_factor(family, pr.StdNormal(), t0, t1)
        off = engine.expected_posterior_normal(t0, t1, 1.5, 20)
        diag = engine.expected_posterior_normal(mid, mid, 1.5, 20)
        for n in range(1, 21):
            assert off.value(n) == pytest.approx(
                ratio * diag.value(n) * affinity**n, rel=1e-10
            )


NON_FINITE = [math.inf, math.nan]


class TestNonFiniteParameters:
    """Each entry point refuses an infinite or nan parameter, which would
    otherwise give an all-nan sequence."""

    @pytest.mark.parametrize("x", NON_FINITE)
    @pytest.mark.parametrize("build", [
        lambda x: pr.Beta(x, 1), lambda x: pr.Beta(2, x), lambda x: pr.ExpPrior(x),
    ], ids=["beta_a", "beta_b", "exp_rate"])
    def test_prior_parameters(self, build, x):
        with pytest.raises(pr.PriorError):
            build(x)

    @pytest.mark.parametrize("x", NON_FINITE)
    @pytest.mark.parametrize("call", [
        lambda x: fam.normal(x),
        lambda x: fam.FamilySpec(fam.NORMAL, x),
        lambda x: engine.expected_posterior_exponential(1.0, 4.0, 5, rate=x),
        lambda x: engine.log_expected_posterior_normal(0.0, 0.5, x, 3),
        lambda x: dg.normal_log_convex_prefix_end(0.25, x),
        lambda x: dg.normal_critical_points(0.0, 0.5, x),
        lambda x: engine.expected_posterior_normal(x, 0.5, 1.0, 5),
        lambda x: engine.expected_posterior_normal(0.0, -x, 1.0, 5),
    ], ids=["normal_sigma", "family_sigma", "exp_rate", "log_normal_sigma",
            "prefix_end_sigma", "critical_points_sigma", "normal_theta0", "normal_theta1"])
    def test_domain_errors(self, call, x):
        with pytest.raises(DomainError):
            call(x)


class TestExponentialRoute:
    def test_unit_value(self):
        seq = engine.expected_posterior_exponential(1.0, 1.0, 1)
        assert seq.value(1) == pytest.approx(5.0 / (4.0 * math.e), rel=1e-13)

    def test_decay_factor(self):
        _, affinity = fam.bhattacharyya_reduction(fam.exponential(), 1.0, 4.0)
        assert affinity == pytest.approx(0.64, abs=1e-15)

    def test_matches_quadrature(self):
        for theta in (0.5, 1.0, 2.0):
            seq = engine.expected_posterior_exponential(theta, theta, 20)
            for n in (1, 5, 12, 20):
                quad, _ = engine.expected_posterior_quadrature(
                    fam.exponential(), pr.ExpPrior(1), theta, theta, n, tol=1e-12
                )
                assert seq.value(n) == pytest.approx(quad, rel=1e-8)

    def test_general_rate_reduces_by_scaling(self):
        rate = 2.5
        scaled = engine.expected_posterior_exponential(0.8, 1.2, 10, rate=rate)
        base = engine.expected_posterior_exponential(0.8 * rate, 1.2 * rate, 10)
        for n in range(1, 11):
            assert scaled.value(n) == pytest.approx(rate * base.value(n), rel=1e-13)

    def test_general_rate_matches_quadrature(self):
        rate = 2.5
        seq = engine.expected_posterior_exponential(0.8, 1.2, 6, rate=rate)
        for n in (1, 3, 6):
            quad, _ = engine.expected_posterior_quadrature(
                fam.exponential(), pr.ExpPrior(rate), 0.8, 1.2, n, tol=1e-12
            )
            assert seq.value(n) == pytest.approx(quad, rel=1e-8)

    def test_reduction_identity(self):
        t0, t1 = 0.6, 2.1
        mid, affinity, ratio = reduction_check_factor(fam.exponential(), pr.ExpPrior(1), t0, t1)
        off = engine.expected_posterior_exponential(t0, t1, 25)
        diag = engine.expected_posterior_exponential(mid, mid, 25)
        for n in range(1, 26):
            assert off.value(n) == pytest.approx(
                ratio * diag.value(n) * affinity**n, rel=1e-10
            )


# the closed forms against 50-digit references derived independently: the
# normal one as a Gaussian convolution, the exponential one as a finite sum
ORACLE_DPS = 50
NORMAL_CASES = ((0.0, 0.0, 1.0), (-1 / 3, 1 / 3, 100.0), (0.5, -0.2, 2.0), (1.0, 1.2, 3.0))
EXP_CASES = ((1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (3.0, 0.7, 1.0), (0.8, 1.2, 2.5))


def _normal_reference(t0, t1, sigma, n):
    """The posterior mean is c * xbar with xbar ~ N(t1, sigma^2/n), so psi(n)
    is the N(c t1, tau^2 + c^2 sigma^2/n) density at t0."""
    t0, t1, s2 = mp.mpf(t0), mp.mpf(t1), mp.mpf(sigma) ** 2
    tau2 = 1 / (1 + n / s2)
    c = tau2 * n / s2
    var = tau2 + c * c * s2 / n
    return mp.exp(-((t0 - c * t1) ** 2) / (2 * var)) / mp.sqrt(2 * mp.pi * var)


def _exponential_reference(t0, t1, rate, n):
    """E over S ~ Gamma(n, t1) of the Gamma(n+1, S+rate) posterior density
    at t0; expanding (S+rate)^(n+1) leaves a finite sum of Gamma moments."""
    t0, t1, r = mp.mpf(t0), mp.mpf(t1), mp.mpf(rate)
    total = mp.fsum(
        math.comb(n + 1, j) * math.factorial(n + j - 1) * r ** (n + 1 - j) / (t0 + t1) ** (n + j)
        for j in range(n + 2)
    )
    return (t0 * t1) ** n * mp.exp(-r * t0) * total / (math.factorial(n - 1) * math.factorial(n))


class TestMpmathOracle:
    def test_normal_closed_form(self):
        ns = [*range(1, 50), *range(50, 10_000, 97), 10_000]
        with mp.workdps(ORACLE_DPS):
            for t0, t1, sigma in NORMAL_CASES:
                seq = engine.expected_posterior_normal(t0, t1, sigma, 10_000)
                for n in ns:
                    want = float(_normal_reference(t0, t1, sigma, n))
                    assert seq.value(n) == pytest.approx(want, rel=1e-12)

    def test_exponential_closed_form(self):
        # only n <= 100: near n = 1000 the closed form is already ~1e-11 off,
        # because its log-space terms cancel (the known log_cancellation
        # defect), so larger n would test that defect rather than the route
        with mp.workdps(ORACLE_DPS):
            for t0, t1, rate in EXP_CASES:
                seq = engine.expected_posterior_exponential(t0, t1, 100, rate=rate)
                for n in range(1, 101):
                    want = float(_exponential_reference(t0, t1, rate, n))
                    assert seq.value(n) == pytest.approx(want, rel=1e-12)

    FIGURE2 = figures.bundled_scenario("figure2")
    EXACT_ROUTES = {
        "figure1": lambda: engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), F(13, 20),
                                                              200),
        "figure2_h200": lambda: engine.expected_posterior_discrete(
            TestMpmathOracle.FIGURE2.prior, F(1, 5), F(1, 2), 200),
        "beta71": lambda: engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), F(9, 10), 120),
        "uniform": lambda: engine.expected_posterior_uniform(F(1, 2), F(3, 4), 500),
    }

    @pytest.mark.parametrize("route", sorted(EXACT_ROUTES))
    def test_exact_logs_within_log_error(self, route):
        seq = self.EXACT_ROUTES[route]()
        with mp.workdps(ORACLE_DPS):
            for n in [*range(1, 12), *range(12, seq.horizon + 1, 9), seq.horizon]:
                exact, log = seq.value(n).as_fraction(), seq.log_values[n - 1]
                want = mp.log(mp.mpf(exact.numerator)) - mp.log(mp.mpf(exact.denominator))
                assert abs(mp.mpf(log) - want) <= engine.ExactValue.log_error(log), n


def fraction_beta_sum(a, b, theta0, theta1, horizon):
    """psi(1..horizon) of the exact Beta(a, b) route as a plain Fraction
    sum: term k of psi(n) is p0(k) p1(k) / marginal(k), normalised as it is
    added, and the sum is scaled by the prior density at theta0."""
    density0 = (theta0 ** (a - 1) * (1 - theta0) ** (b - 1)
                * F(math.factorial(a + b - 1), math.factorial(a - 1) * math.factorial(b - 1)))
    values = []
    for n in range(1, horizon + 1):
        total = F(0)
        for k in range(n + 1):
            marg = F(math.comb(n, k) * math.factorial(k + a - 1) * math.factorial(n - k + b - 1)
                     * math.factorial(a + b - 1),
                     math.factorial(n + a + b - 1) * math.factorial(a - 1) * math.factorial(b - 1))
            p0 = math.comb(n, k) * theta0**k * (1 - theta0) ** (n - k)
            p1 = math.comb(n, k) * theta1**k * (1 - theta1) ** (n - k)
            total += p0 * p1 / marg
        values.append(total * density0)
    return values


OPEN_GRID = GRID[1:-1]


class TestBetaRoute:
    @settings(deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(OPEN_GRID),
           st.sampled_from(OPEN_GRID), st.integers(1, 25))
    def test_exact_matches_the_fraction_sum(self, a, b, theta0, theta1, horizon):
        seq = engine.expected_posterior_beta(pr.Beta(a, b), theta0, theta1, horizon, mode="exact")
        want = fraction_beta_sum(a, b, theta0, theta1, horizon)
        assert [v.as_fraction() for v in seq.values] == want
        assert [(v.num, v.den) for v in seq.values] == [
            (w.numerator, w.denominator) for w in want]

    def test_exact_matches_float(self):
        prior = pr.Beta(7, 1)
        exact = engine.expected_posterior_beta(prior, F(3, 4), F(9, 10), 8, mode="exact")
        approx = engine.expected_posterior_beta(prior, 0.75, 0.9, 8, mode="float")
        for n in range(1, 9):
            assert approx.value(n) == pytest.approx(float(exact.value(n)), rel=1e-11)

    def test_uniform_is_beta_one_one(self):
        via_beta = engine.expected_posterior_beta(pr.Beta(1, 1), F(1, 2), F(3, 4), 10, mode="exact")
        via_uniform = engine.expected_posterior_uniform(F(1, 2), F(3, 4), 10, mode="exact")
        for n in range(1, 11):
            assert via_beta.value(n) == via_uniform.value(n)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(DomainError, match="numeric mode"):
            engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), F(9, 10), 5, mode="sloppy")

    def test_float_route_is_labelled_a_finite_sum(self):
        for seq in (
            engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), F(9, 10), 5, mode="float"),
            engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), F(13, 20), 5, mode="float"),
        ):
            assert seq.method == engine.METHOD_FLOAT_SUM
            assert seq.representation == engine.REPR_FLOAT


SURE_COINS = pr.atoms((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(1), F(1, 4)))


class TestQuadratureOracleBernoulli:
    """The oracle's finite sum and the float sequence routes share one kernel."""

    @pytest.mark.parametrize("route,prior,theta0,theta1", [
        (engine.expected_posterior_discrete, FIGURE1_PRIOR, F(1, 2), F(13, 20)),
        (engine.expected_posterior_beta, pr.Beta(7, 1), F(3, 4), F(9, 10)),
        # sure coins are parameters of an atom prior
        (engine.expected_posterior_discrete, SURE_COINS, F(0), F(1, 2)),
        (engine.expected_posterior_discrete, SURE_COINS, F(1), F(1)),
        (engine.expected_posterior_discrete, SURE_COINS, F(1), F(0)),
        (engine.expected_posterior_discrete, SURE_COINS, F(1, 2), F(1)),
    ])
    def test_oracle_value_is_identical(self, route, prior, theta0, theta1):
        seq = route(prior, theta0, theta1, 40, mode="float")
        for n in (1, 2, 9, 40):
            value, err = engine.expected_posterior_quadrature(
                fam.bernoulli(), prior, theta0, theta1, n
            )
            assert (value, err) == (seq.value(n), 0.0)


OUTSIDE_UNIT = [F(10**20 + 1, 10**20), F(-1, 10**20), -1e-20]


class TestFloatBernoulliDomain:
    """Each float Bernoulli route checks theta exactly at its entry, before
    the kernel rounds it: 1 + 10^-20 would round to 1.0 and pass."""

    @pytest.mark.parametrize("theta1", OUTSIDE_UNIT)
    def test_discrete_float_mode(self, theta1):
        with pytest.raises(DomainError):
            engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), theta1, 5, mode="float")

    @pytest.mark.parametrize("theta1", OUTSIDE_UNIT)
    def test_beta_float_mode(self, theta1):
        with pytest.raises(DomainError):
            engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), theta1, 5, mode="float")

    @pytest.mark.parametrize("prior,theta0", [
        (FIGURE1_PRIOR, F(1, 2)), (pr.Uniform01(), F(1, 2)), (pr.Beta(7, 1), F(3, 4)),
    ])
    @pytest.mark.parametrize("theta1", OUTSIDE_UNIT)
    def test_quadrature_oracle(self, prior, theta0, theta1):
        with pytest.raises(DomainError):
            engine.expected_posterior_quadrature(fam.bernoulli(), prior, theta0, theta1, 5)

    @pytest.mark.parametrize("route,prior", [
        (lambda _, *args: engine.expected_posterior_uniform(*args), pr.Uniform01()),
        (engine.expected_posterior_beta, pr.Beta(7, 1)),
    ], ids=["uniform", "beta"])
    @pytest.mark.parametrize("theta0,theta1", [
        (F(0), F(1, 2)), (F(1), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1)),
    ])
    def test_quadrature_oracle_refuses_sure_coins_off_atom_priors(
        self, route, prior, theta0, theta1
    ):
        """A sure coin is no parameter of the uniform or Beta prior: the
        oracle refuses it as the sequence route does."""
        with pytest.raises(DomainError):
            route(prior, theta0, theta1, 5)
        with pytest.raises(DomainError):
            engine.expected_posterior_quadrature(fam.bernoulli(), prior, theta0, theta1, 5)

    def test_quadrature_oracle_theta0_must_be_an_atom(self):
        with pytest.raises(DomainError, match="atom"):
            engine.expected_posterior_quadrature(fam.bernoulli(), FIGURE1_PRIOR, F(1, 3),
                                                 F(1, 2), 5)


@st.composite
def float_mode_cases(draw):
    """(route, prior, theta0, theta1) with rational inputs: 2-4 interior
    atoms on the 1/20 grid, or an integer Beta shape."""
    interior = GRID[1:-1]
    if draw(st.booleans()):
        thetas = draw(st.lists(st.sampled_from(interior), min_size=2, max_size=4, unique=True))
        raw = draw(st.lists(st.integers(1, 50), min_size=len(thetas), max_size=len(thetas)))
        prior = pr.atoms(*((t, F(w, sum(raw))) for t, w in zip(thetas, raw)))
        theta0, theta1 = draw(st.sampled_from(thetas)), draw(st.sampled_from(GRID))
        return engine.expected_posterior_discrete, prior, theta0, theta1
    prior = pr.Beta(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    theta0 = draw(st.sampled_from(interior))
    return engine.expected_posterior_beta, prior, theta0, draw(st.sampled_from(interior))


def as_float_inputs(prior, theta0, theta1):
    if isinstance(prior, pr.DiscreteAtoms):
        prior = pr.DiscreteAtoms(tuple((float(t), w) for t, w in prior.atoms))
    return prior, float(theta0), float(theta1)


@settings(max_examples=25, deadline=None)
@given(float_mode_cases(), st.integers(1, 30))
def test_float_mode_reads_only_the_rounded_thetas(case, horizon):
    route, *inputs = case
    exact_in = route(*inputs, horizon, mode="float").log_values
    float_in = route(*as_float_inputs(*inputs), horizon, mode="float").log_values
    assert [v.hex() for v in exact_in] == [v.hex() for v in float_in]


class TestSequenceBehavior:
    def test_diagonal_sequences_increase(self):
        sequences = [
            engine.expected_posterior_discrete(FIGURE1_PRIOR, F(1, 2), F(1, 2), 40),
            engine.expected_posterior_uniform(F(2, 5), F(2, 5), 40),
            engine.expected_posterior_normal(0.4, 0.4, 3.0, 40),
            engine.expected_posterior_exponential(0.9, 0.9, 40),
        ]
        for seq in sequences:
            for i in range(seq.horizon - 1):
                assert seq.values[i + 1] >= seq.values[i]

    def test_two_sided_symmetry_exact(self):
        lhs, rhs, equal = orders.symmetry_check(FIGURE1_PRIOR, F(1, 2), F(13, 20), 25)
        assert equal
        assert lhs == rhs

    def test_quadrature_unsupported_pairing(self):
        with pytest.raises(pr.UnsupportedConjugacyError):
            engine.expected_posterior_quadrature(
                fam.exponential(), pr.StdNormal(), 1.0, 1.0, 2
            )

    def test_csv_rows_shape(self):
        seq = engine.expected_posterior_uniform(F(1, 2), F(1, 2), 3)
        assert seq.representation == "rational"
        text = "".join(figures.sequence_csv(seq, dg.analyze(seq)))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert rows[1][1] == "1.125"

    def test_exact_value_comparisons(self):
        a = ExactValue(1, 3)
        b = ExactValue(2, 6)
        c = ExactValue(1, 2)
        assert a == b
        assert a < c
        assert c > b
        assert float(a) == pytest.approx(1 / 3, rel=1e-15)
        assert a.log() == pytest.approx(math.log(1 / 3), rel=1e-14)

    def test_exact_floats_and_logs_come_from_one_division(self, monkeypatch):
        """Each eager value is divided once for its float and its log; a zero
        gives 0.0 and -inf, a deferred value its certified pair, and a value
        beyond the float range raises where float(v) does."""
        deferred = DeferredExactValue(lambda: (1, 8), (0.125, math.log(0.125)))
        values = [ExactValue(0, 5), ExactValue(1, 3), deferred, ExactValue(3 << 2000, 7)]
        calls = []
        real = engine.ExactValue.float_log
        monkeypatch.setattr(engine.ExactValue, "float_log",
                            lambda v: calls.append(v) or real(v))
        seq = engine.ExpectedPosteriorSequence(fam.bernoulli(), F(1, 2), F(1, 2), "t",
                                               values=values[:3])
        assert calls == values[:2]  # the deferred value keeps its own pair
        assert seq.float_values() == [0.0, 1 / 3, 0.125]
        assert seq.log_values == [-math.inf, ExactValue(1, 3).log(), math.log(0.125)]
        assert deferred._pair is None
        big = engine.ExpectedPosteriorSequence(fam.bernoulli(), F(1, 2), F(1, 2), "t",
                                               values=values)
        assert big.log_values[3] == values[3].log()
        with pytest.raises(OverflowError):
            float(values[3])
        with pytest.raises(OverflowError):
            big.float_values()
