"""Family definitions: information, reduction, densities, serialization."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posterior_dynamics import families as fam
from posterior_dynamics import scenario as sc
from posterior_dynamics.families import DomainError
from posterior_dynamics.quadrature import integrate_half_line, integrate_real_line


ALL_FAMILIES = [
    fam.bernoulli(),
    fam.normal(2.0),
    fam.exponential(),
]


def log_density(family, theta, x):
    """log p_theta(x) of a single draw."""
    return fam.suff_stat_log_density(family, theta, 1, x)


def numeric_affinity(family, theta0, theta1):
    """Squared affinity by direct summation or quadrature, independent of
    the closed forms in ``bhattacharyya_reduction``."""
    tol = 1e-12

    def root_density(x):
        return math.exp(0.5 * (log_density(family, theta0, x) + log_density(family, theta1, x)))

    if family.kind == fam.BERNOULLI:
        root = root_density(0) + root_density(1)
    elif family.kind == fam.NORMAL:
        root, _ = integrate_real_line(root_density, tol=tol)
    else:
        root, _ = integrate_half_line(root_density, tol=tol)
    return root * root


def theta_grid(family):
    if family.kind == fam.BERNOULLI:
        return [0.05, 0.2, 0.5, 0.65, 0.9]
    if family.kind == fam.NORMAL:
        return [-3.0, -0.5, 0.0, 0.7, 2.5]
    return [0.1, 0.5, 1.0, 2.0, 7.5]


class TestFisherInformation:
    def test_bernoulli_half(self):
        assert fam.fisher_information(fam.bernoulli(), 0.5) == pytest.approx(4.0, abs=0)

    def test_normal_sigma_two(self):
        for theta in (-1.0, 0.0, 3.0):
            assert fam.fisher_information(fam.normal(2.0), theta) == 0.25

    def test_exponential_two(self):
        assert fam.fisher_information(fam.exponential(), 2.0) == 0.25

    def test_positive_on_grid(self):
        for family in ALL_FAMILIES:
            for theta in theta_grid(family):
                assert fam.fisher_information(family, theta) > 0

    def test_domain_error_names_bound(self):
        with pytest.raises(DomainError, match=r"\(0.0, 1.0\)"):
            fam.fisher_information(fam.bernoulli(), 1.5)
        with pytest.raises(DomainError):
            fam.fisher_information(fam.exponential(), -1.0)

    @given(
        st.sampled_from([0, 1]),
        st.one_of(
            st.integers(-(10**6), 10**6).map(lambda m: Fraction(m, 10**36)),
            st.floats(-1e-30, 1e-30),
        ),
        st.booleans(),
    )
    def test_bernoulli_verdict_is_exact_at_the_bounds(self, bound, offset, closure):
        # within 10^-30 of 0 and 1, where a theta rounded to float before
        # the check would let 1 + 10^-36 pass as 1.0
        theta = bound + offset
        x = Fraction(theta)
        inside = 0 <= x <= 1 if closure else 0 < x < 1
        try:
            fam.bernoulli().require_theta(theta, closure=closure)
        except DomainError:
            assert not inside
        else:
            assert inside


class TestReduction:
    def test_normal_shift(self):
        mid, affinity = fam.bhattacharyya_reduction(fam.normal(1.0), 0.0, 2.0)
        assert mid == pytest.approx(1.0, abs=0)
        assert affinity == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_equal_parameters_give_unit_affinity(self):
        for family in ALL_FAMILIES:
            for theta in theta_grid(family):
                mid, affinity = fam.bhattacharyya_reduction(family, theta, theta)
                assert mid == pytest.approx(theta, rel=1e-15)
                assert affinity == 1.0

    def test_bernoulli_frozen_values(self):
        # high-precision evaluation of the closed forms at (1/2, 13/20)
        mid, affinity = fam.bhattacharyya_reduction(fam.bernoulli(), 0.5, 0.65)
        assert mid == pytest.approx(0.57676799763842392, rel=1e-14)
        assert affinity == pytest.approx(0.97696960070847282, rel=1e-14)

    def test_midpoint_between_and_symmetric(self):
        for family in ALL_FAMILIES:
            grid = theta_grid(family)
            for t0 in grid:
                for t1 in grid:
                    mid, affinity = fam.bhattacharyya_reduction(family, t0, t1)
                    assert min(t0, t1) - 1e-12 <= mid <= max(t0, t1) + 1e-12
                    assert 0.0 < affinity <= 1.0
                    mid_swap, affinity_swap = fam.bhattacharyya_reduction(family, t1, t0)
                    assert mid_swap == pytest.approx(mid, rel=1e-14)
                    assert affinity_swap == pytest.approx(affinity, rel=1e-14)
                    if t0 != t1:
                        assert affinity < 1.0

    def test_affinity_matches_numeric_integral(self):
        for family in ALL_FAMILIES:
            grid = theta_grid(family)
            pairs = [(grid[0], grid[2]), (grid[1], grid[3]), (grid[2], grid[4])]
            for t0, t1 in pairs:
                _, closed = fam.bhattacharyya_reduction(family, t0, t1)
                numeric = numeric_affinity(family, t0, t1)
                assert numeric == pytest.approx(closed, rel=1e-10)

    def test_geometric_average_identity(self):
        # p0(x) p1(x) = affinity * p_mid(x)^2 pointwise
        samples = {
            fam.BERNOULLI: [0, 1],
            fam.NORMAL: [-2.0, -0.3, 0.0, 1.1, 4.0],
            fam.EXPONENTIAL: [0.1, 0.7, 1.3, 4.2],
        }
        for family in ALL_FAMILIES:
            grid = theta_grid(family)
            t0, t1 = grid[1], grid[3]
            mid, affinity = fam.bhattacharyya_reduction(family, t0, t1)
            for x in samples[family.kind]:
                lhs = log_density(family, t0, x) + log_density(family, t1, x)
                rhs = math.log(affinity) + 2.0 * log_density(family, mid, x)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestLogDensity:
    def test_bernoulli(self):
        assert log_density(fam.bernoulli(), 0.5, 1) == pytest.approx(math.log(0.5))
        assert log_density(fam.bernoulli(), 0.5, 2) == float("-inf")

    def test_exponential_at_zero(self):
        assert log_density(fam.exponential(), 1.0, 0.0) == 0.0
        assert log_density(fam.exponential(), 1.0, -0.5) == float("-inf")

    def test_normalization(self):
        b = fam.bernoulli()
        assert math.exp(log_density(b, 0.3, 0)) + math.exp(
            log_density(b, 0.3, 1)
        ) == pytest.approx(1.0, abs=1e-15)
        val, _ = integrate_real_line(
            lambda x: math.exp(log_density(fam.normal(2.0), 0.7, x)), tol=1e-11
        )
        assert val == pytest.approx(1.0, abs=1e-9)
        val, _ = integrate_half_line(
            lambda x: math.exp(log_density(fam.exponential(), 1.7, x)), tol=1e-11
        )
        assert val == pytest.approx(1.0, abs=1e-9)


class TestSuffStatDensity:
    def test_binomial_example(self):
        value = fam.suff_stat_log_density(fam.bernoulli(), 0.5, 2, 1)
        assert value == pytest.approx(math.log(0.5), rel=1e-15)

    def test_normal_example(self):
        value = fam.suff_stat_log_density(fam.normal(1.0), 0.0, 4, 0.0)
        assert value == pytest.approx(math.log(1.0 / math.sqrt(8 * math.pi)), rel=1e-15)

    def test_gamma_example(self):
        value = fam.suff_stat_log_density(fam.exponential(), 1.0, 2, 1.0)
        assert value == pytest.approx(-1.0, rel=1e-15)

    def test_out_of_support_sentinel(self):
        assert fam.suff_stat_log_density(fam.bernoulli(), 0.5, 3, 4) == float("-inf")
        assert fam.suff_stat_log_density(fam.exponential(), 1.0, 2, -1.0) == float("-inf")

    def test_exact_binomial_pmf(self):
        pmf = fam.binomial_pmf_exact(Fraction(1, 2), 2, 1)
        assert pmf == Fraction(1, 2)
        assert fam.binomial_pmf_exact(Fraction(1), 3, 3) == 1
        assert fam.binomial_pmf_exact(Fraction(1), 3, 2) == 0
        assert fam.binomial_pmf_exact(Fraction(3, 4), 4, 2) == Fraction(27, 128)  # 6 * 9 / 256

    def test_exact_binomial_pmf_refuses_a_float_theta(self):
        with pytest.raises(DomainError, match=r"theta=0\.5 must be an int or Fraction"):
            fam.binomial_pmf_exact(0.5, 2, 1)

    @pytest.mark.parametrize("theta", [Fraction(4, 3), Fraction(-1, 3)])
    def test_exact_binomial_pmf_refuses_theta_outside_the_unit_interval(self, theta):
        with pytest.raises(DomainError, match=rf"theta={theta} outside \[0, 1\]"):
            fam.binomial_pmf_exact(theta, 2, 1)


class TestSerialization:
    def test_round_trip(self):
        for family in ALL_FAMILIES:
            assert sc.family_from_json(sc.family_to_json(family)) == family

    def test_sigma_required_iff_normal(self):
        with pytest.raises(DomainError):
            sc.family_from_json({"kind": "normal"})
        with pytest.raises(DomainError):
            sc.family_from_json({"kind": "bernoulli", "sigma": 2.0})

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            sc.family_from_json({"kind": "cauchy"})
        with pytest.raises(DomainError, match="unknown family kind 'poisson'"):
            sc.family_from_json({"kind": "poisson"})
