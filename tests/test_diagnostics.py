"""Mode detection, log-concavity scans, decrease index, asymptotics, solver."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine
from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr
from posterior_dynamics.families import DomainError


class TestDetectModes:
    def test_strictly_decreasing_counts_left_boundary(self):
        assert dg.detect_modes([F(5), F(4), F(3), F(2)]) == [1]

    def test_plateau_collapses_to_first_index(self):
        assert dg.detect_modes([F(1), F(2), F(2), F(2), F(1)]) == [2]

    def test_left_plateau(self):
        assert dg.detect_modes([F(2), F(2), F(1)]) == [1]

    def test_right_boundary_never_counts(self):
        assert dg.detect_modes([F(1), F(2), F(3)]) == []

    def test_interior_peaks(self):
        assert dg.detect_modes([F(1), F(3), F(2), F(4), F(1)]) == [2, 4]

    def test_float_ties_do_not_sprout_phantom_modes(self):
        base = [1.0, 2.0, 2.0 * (1.0 + 5e-14), 1.0]
        assert dg.detect_modes(base) == [2]

    def test_needs_three_points(self):
        with pytest.raises(DomainError):
            dg.detect_modes([F(1), F(2)])

    @given(st.lists(st.integers(0, 3), min_size=3, max_size=30))
    def test_modes_and_minima_follow_the_convention(self, ints):
        """Brute force on small integers, plateaus included: a strict rise
        into n and a weak fall out (mirrored for minima), the left boundary
        counting on its step alone and the right one never."""
        v = [F(i + 1) for i in ints]
        last = len(v) - 1
        modes = [i + 1 for i in range(last) if (i == 0 or v[i - 1] < v[i]) and v[i + 1] <= v[i]]
        minima = [i + 1 for i in range(last) if (i == 0 or v[i - 1] > v[i]) and v[i + 1] >= v[i]]
        assert dg.detect_modes(v) == modes
        assert dg.detect_minima(v) == minima


class TestLogConcavityScan:
    def test_geometric_sequence_is_clean(self):
        geometric = [F(7, 10) * F(9, 10) ** n for n in range(1, 30)]
        assert dg.logconcavity_scan(geometric) == []
        as_floats = [0.7 * 0.9**n for n in range(1, 30)]
        assert dg.logconcavity_scan(as_floats) == []

    def test_single_violation(self):
        assert dg.logconcavity_scan([F(4), F(1), F(4)]) == [2]

    def test_exact_boundary_is_not_a_violation(self):
        assert dg.logconcavity_scan([F(1), F(2), F(4)]) == []


class TestEventualDecrease:
    def test_geometric(self):
        geometric = [F(9, 10) ** n for n in range(1, 20)]
        assert dg.eventual_decrease_index(geometric) == 1

    def test_increasing_never_reaches(self):
        assert dg.eventual_decrease_index([F(1), F(2), F(3)]) is None

    def test_rise_then_fall(self):
        assert dg.eventual_decrease_index([F(1), F(3), F(2), F(1)]) == 2

    def test_late_uptick_blocks(self):
        assert dg.eventual_decrease_index([F(3), F(2), F(1), F(2)]) is None

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=40))
    def test_backward_scan_matches_forward_definition(self, steps):
        last_rise = max((i for i, s in enumerate(steps) if s >= 0), default=None)
        if last_rise is None:
            expected = 1
        elif last_rise == len(steps) - 1:
            expected = None
        else:
            expected = last_rise + 2
        assert dg._decrease_start(steps) == expected


class TestAnalyze:
    def test_full_report_on_exact_sequence(self):
        prior = pr.atoms(
            (F(1, 2), F(4100, 5001)), (F(13, 20), F(1, 5001)), (F(17, 20), F(900, 5001))
        )
        seq = engine.expected_posterior_discrete(prior, F(1, 2), F(13, 20), 30)
        report = dg.analyze(seq)
        assert report.modes[0] == 1
        assert 11 in [
            n
            for n in range(2, 30)
            if seq.value(n) < seq.value(n - 1) and seq.value(n) <= seq.value(n + 1)
        ]

    def test_normal_report_carries_solver_results(self):
        seq = engine.expected_posterior_normal(-1 / 3, 1 / 3, 100.0, 100)
        report = dg.analyze(seq)
        kinds = [kind for _, kind in report.critical_points]
        assert kinds == ["min", "max"]
        assert report.log_convex_prefix_end == pytest.approx(1e4 / math.sqrt(2), rel=1e-4)


class TestAsymptotics:
    def test_fair_coin_constant(self):
        value = dg.asymptotic_expected_posterior(
            fam.bernoulli(), pr.Uniform01(), 0.5, 0.5, 1
        )
        assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_normal_constant(self):
        value = dg.asymptotic_expected_posterior(
            fam.normal(2.0), pr.StdNormal(), 0.0, 0.0, 9
        )
        assert value == pytest.approx(3.0 / (2.0 * 2.0 * math.sqrt(math.pi)), rel=1e-14)

    def test_stirling_ratio_at_1000(self):
        n = 1000
        exact = F(n + 1) * math.comb(2 * n, n) * F(1, 4**n)
        asym = dg.asymptotic_expected_posterior(fam.bernoulli(), pr.Uniform01(), 0.5, 0.5, n)
        ratio = float(exact) / asym
        # Stirling expansion gives 1 + 7/(8n) + O(1/n^2)
        assert ratio == pytest.approx(1.0 + 7.0 / (8.0 * n), abs=2e-6)

    def test_discrete_prior_rejected(self):
        with pytest.raises(DomainError, match="continuous"):
            dg.asymptotic_expected_posterior(
                fam.bernoulli(), pr.atoms((F(1, 2), F(1))), 0.5, 0.5, 10
            )

    def test_off_diagonal_decays(self):
        family = fam.exponential()
        prior = pr.ExpPrior(1)
        v10 = dg.asymptotic_expected_posterior(family, prior, 1.0, 4.0, 10)
        v20 = dg.asymptotic_expected_posterior(family, prior, 1.0, 4.0, 20)
        assert v20 < v10

    @pytest.mark.parametrize("route,prior", [
        (lambda h: engine.expected_posterior_uniform(F(1, 2), F(3, 4), h, mode="float"),
         pr.Uniform01()),
        (lambda h: engine.expected_posterior_exponential(1.0, 4.0, h), pr.ExpPrior(1)),
    ])
    def test_growth_law_ratios_survive_asymptote_underflow(self, route, prior):
        seq = route(12000)
        ratios = dict(dg.analyze(seq, prior=prior).asymptotic_ratios)
        underflowed = 0
        for n, ratio in ratios.items():
            asym = dg.asymptotic_expected_posterior(seq.family, prior, seq.theta0, seq.theta1, n)
            if asym > 0.0:
                assert ratio == float(seq.value(n)) / asym
            else:
                underflowed += 1
                assert math.isfinite(ratio)
        assert underflowed > 0
        assert ratios[12000] == pytest.approx(1.0, abs=1e-4)


# float routes at parameters far enough apart that psi underflows to 0.0
# from about n = 100 on, while its log values keep falling
UNDERFLOWING_ROUTES = {
    "uniform": lambda h: engine.expected_posterior_uniform(
        F(1, 10**4), F(9999, 10**4), h, mode="float"),
    "atoms": lambda h: engine.expected_posterior_discrete(
        pr.atoms((F(1, 10**6), F(1, 2)), (F(10**6 - 1, 10**6), F(1, 2))),
        F(1, 10**6), F(10**6 - 1, 10**6), h, mode="float"),
    "beta": lambda h: engine.expected_posterior_beta(
        pr.Beta(2, 2), F(1, 10**4), F(9999, 10**4), h, mode="float"),
    "normal": lambda h: engine.expected_posterior_normal(-3.0, 3.0, 1.0, h),
    "exponential": lambda h: engine.expected_posterior_exponential(0.01, 100.0, h),
}


class TestUnderflowedTails:
    """Verdicts are read off the log values, so psi = 0.0 past its
    underflow neither ties nor hides the eventual decrease."""

    @pytest.mark.parametrize("route,minima,decrease", [
        (lambda: engine.expected_posterior_exponential(1.0, 4.0, 2000), [], 1),
        (lambda: engine.expected_posterior_uniform(F(1, 2), F(3, 4), 11_000, mode="float"),
         [1], 5),
    ], ids=["exp_1_4", "uniform_half_three_quarters"])
    def test_long_horizon_verdicts(self, route, minima, decrease):
        seq = route()
        assert seq.values[-1] == 0.0
        report = dg.analyze(seq)
        assert (report.minima, report.eventual_decrease) == (minima, decrease)

    @pytest.mark.parametrize("route", UNDERFLOWING_ROUTES.values(), ids=UNDERFLOWING_ROUTES)
    def test_every_float_route_decreases_eventually(self, route):
        seq = route(150)
        assert seq.values[-2:] == [0.0, 0.0]
        assert dg.eventual_decrease_index(seq) is not None


def mp_log_slope_root(theta0: float, theta1: float, sigma: float, guess: float) -> float:
    """Root near guess of d/dn of the normal closed form, at 50 digits and
    the same binary inputs, rounded to a float.  The closed form is written
    out again here so the check does not share code with the package."""
    with mp.workdps(50):
        t0, t1, s = mp.mpf(theta0), mp.mpf(theta1), mp.mpf(sigma) ** 2
        mid = (t0 + t1) / 2

        def log_psi(n):
            return (
                mp.log(n + s) - mp.log(mp.sqrt(s)) - mp.log(2 * mp.pi * (2 * n + s)) / 2
                - mid**2 * s / (4 * n + 2 * s) + (mid**2 - t0**2) / 2 - n * (t0 - t1) ** 2 / (4 * s)
            )

        return float(mp.findroot(lambda n: mp.diff(log_psi, n), mp.mpf(guess)))


class TestNormalSolver:
    def test_wide_prior_example(self):
        # figure3: the slope equation is close to n^2 - 30000 n + 5e7 = 0
        roots = dg.normal_critical_points(-1 / 3, 1 / 3, 100.0)
        assert roots == [
            (mp_log_slope_root(-1 / 3, 1 / 3, 100.0, 1771.0), "min"),
            (mp_log_slope_root(-1 / 3, 1 / 3, 100.0, 28229.0), "max"),
        ]
        assert roots == [(1771.2434446770467, "min"), (28228.756555322958, "max")]

    def test_prefix_end_is_the_exact_turning_point(self):
        # gamma = 0 at n = sigma^2 / sqrt 2 when theta = 0
        with mp.workdps(50):
            expected = float(5000 * mp.sqrt(2))
        assert dg.normal_log_convex_prefix_end(0.0, 100.0) == expected == 7071.067811865475

    @pytest.mark.parametrize("theta0,theta1,sigma,kinds", [
        (0.25, -0.5, 10.0, ["min", "max"]),
        (0.1, -0.1, 20.0, ["min", "max"]),
        (1 / 12, -5 / 12, 90.0, ["min", "max"]),
        (0.1, 0.9, 30.0, ["max"]),
    ])
    def test_critical_points_match_mpmath(self, theta0, theta1, sigma, kinds):
        roots = dg.normal_critical_points(theta0, theta1, sigma)
        assert [kind for _, kind in roots] == kinds
        assert [n for n, _ in roots] == [
            mp_log_slope_root(theta0, theta1, sigma, n) for n, _ in roots
        ]

    def test_diagonal_has_no_critical_points(self):
        assert dg.normal_critical_points(0.3, 0.3, 10.0) == []

    def test_small_variance_is_concave_from_the_start(self):
        # the continuous turning point sits below the first integer index
        # whenever sigma^2 <= sqrt 2, and at zero when the midpoint is far out
        assert dg.normal_log_convex_prefix_end(0.0, 1.0) < 1.0
        assert dg.normal_log_convex_prefix_end(0.0, 2**0.25) <= 1.0 + 1e-6
        assert dg.normal_log_convex_prefix_end(0.7, 50.0) == 0.0

    def test_always_decreasing_when_parameters_far(self):
        roots = dg.normal_critical_points(-2.0, 2.0, 1.0)
        kinds = [kind for _, kind in roots]
        assert "min" not in kinds

    def test_discrete_extremes_near_continuous_roots(self):
        seq = engine.expected_posterior_normal(-1 / 3, 1 / 3, 100.0, 50_000)
        values = seq.log_values
        argmin = min(range(len(values)), key=values.__getitem__) + 1
        argmax = max(range(len(values)), key=values.__getitem__) + 1
        roots = dict((kind, n) for n, kind in dg.normal_critical_points(-1 / 3, 1 / 3, 100.0))
        assert abs(argmin - roots["min"]) <= 2
        assert abs(argmax - roots["max"]) <= 2
