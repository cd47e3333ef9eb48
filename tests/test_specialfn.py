"""Legendre rows and ratios, the Turan polynomials, binomial-square sums,
half-integer Bessel K and its exact weighted integrals."""

import math
from fractions import Fraction as F

import mpmath as mp
import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from posterior_dynamics import audit, bipoly
from posterior_dynamics import specialfn as sf
from posterior_dynamics.bipoly import poly_eval
from posterior_dynamics.families import DomainError
from posterior_dynamics.quadrature import integrate_half_line
from posterior_dynamics.util import logsumexp

X = sympy.Symbol("x")


def in_x(row):
    """A row of integer coefficients in s = (x - 1)/2 as a sympy polynomial in x."""
    return sympy.expand(sum(c * ((X - 1) / 2) ** k for k, c in enumerate(row)))


def at(n, x):
    """P_n(x) exactly, from the integer row in s = (x - 1)/2."""
    return poly_eval(sf.legendre_shifted(n), (F(x) - 1) / 2)


def legendre_ratios_at(n, x):
    """P_k(x)/P_(k-1)(x) for k = 1..n: the ratio recurrence at y = (x-1)/2, z = (x+1)/2."""
    return sf.legendre_ratios(n, (x - 1) / 2, (x + 1) / 2)


def ratio_at_sqrt3(n):
    """R_n(sqrt 3) = P_{n-1} P_{n+1} / P_n^2, simplified by sympy."""
    p = [in_x(sf.legendre_shifted(k)) for k in (n - 1, n, n + 1)]
    return sympy.radsimp((p[0] * p[2] / p[1] ** 2).subs(X, sympy.sqrt(3)))


class TestLegendre:
    def test_value_at_one(self):
        for n in range(51):
            assert sf.legendre_shifted(n)[0] == 1
        assert legendre_ratios_at(50, 1.0) == [1.0] * 50

    def test_values_at_sqrt3(self):
        # (3x^2-1)/2 and (5x^3-3x)/2 at sqrt 3, exactly
        values = [sympy.radsimp(in_x(sf.legendre_shifted(n)).subs(X, sympy.sqrt(3)))
                  for n in (1, 2, 3)]
        assert values == [sympy.sqrt(3), 4, 6 * sympy.sqrt(3)]

    def test_parity(self):
        for n in (2, 3, 7):
            for x in (F(5, 2), F(1, 3), F(7)):
                assert at(n, -x) == (-1) ** n * at(n, x)

    def test_inside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            legendre_ratios_at(3, 0.5)
        with pytest.raises(DomainError):
            sf.legendre_ratios(3, 0.0, 0.0)

    def test_large_degree_large_argument_stays_finite(self):
        log_abs = math.fsum(map(math.log, legendre_ratios_at(300, 1e6)))
        assert math.isfinite(log_abs)
        assert log_abs > 4000.0  # way past float overflow in raw form

    def test_leading_coefficient(self):
        # s^n = (x - 1)^n / 2^n, so the x^n coefficient is the last one over 2^n
        assert F(sf.legendre_shifted(2)[-1], 2**2) == F(3, 2)
        assert F(sf.legendre_shifted(5)[-1], 2**5) == F(math.comb(10, 5), 32)

    def test_recurrence_against_direct_polynomials(self):
        # degree-4 closed form (35x^4 - 30x^2 + 3)/8, exactly and in ratio form
        for x in (F(3, 2), F(2), F(10)):
            direct = (35 * x**4 - 30 * x**2 + 3) / 8
            assert at(4, x) == direct
            assert math.prod(legendre_ratios_at(4, float(x))) == pytest.approx(
                float(direct), rel=1e-13
            )

    def test_coefficients_against_sympy(self):
        for n in range(13):
            assert in_x(sf.legendre_shifted(n)) == sympy.expand(sympy.legendre(n, X))

    def test_coefficients_follow_the_recurrence(self):
        # (n+1) P_{n+1} = (2n+1)(1 + 2s) P_n - n P_{n-1}, run on exact rows
        rows = [[F(1)], [F(1), F(2)]]
        for n in range(1, 30):
            step = [(2 * n + 1) * (a + 2 * b) for a, b in zip(rows[n] + [0], [0] + rows[n])]
            prev = rows[n - 1] + [0, 0]
            rows.append([(c - n * p) / (n + 1) for c, p in zip(step + [0], prev)])
        for n, row in enumerate(rows):
            assert sf.legendre_shifted(n) == row

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.legendre_shifted(-1)


class TestTuranRatio:
    def test_equality_case(self):
        assert ratio_at_sqrt3(2) == sympy.Rational(9, 8)
        assert sf.turan_bound(2) == F(9, 8)

    def test_strict_case_at_three(self):
        assert ratio_at_sqrt3(3) == sympy.Rational(19, 18)
        assert sf.turan_bound(3) == F(16, 15)
        assert F(19, 18) < sf.turan_bound(3)

    def test_limit_values(self):
        assert sf.turan_limit(2) == F(10, 9)
        for n in range(2, 120):
            assert 1 < sf.turan_limit(n) < sf.turan_bound(n)

    def test_limit_approached_for_huge_argument(self):
        x = 10**9
        for n in (2, 5, 17):
            ratio = at(n - 1, x) * at(n + 1, x) / at(n, x) ** 2
            assert abs(ratio / sf.turan_limit(n) - 1) < F(1, 10**8)

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.turan_polynomials(0)


class TestTuranPolynomials:
    def test_a2_is_a_square(self):
        a2, _ = sf.turan_polynomials(2)
        assert 4 * in_x(a2) == sympy.expand((X**2 - 3) ** 2)
        with mp.workdps(50):
            assert bipoly.positive_roots(a2) == [float((mp.sqrt(3) - 1) / 2)]

    def test_a1_negative_past_sqrt3(self):
        # why the certificate starts at n = 2
        a1, _ = sf.turan_polynomials(1)
        assert 2 * in_x(a1) == 3 - X**2

    def test_no_positive_root_of_a_n_past_the_audit(self):
        assert audit.TURAN_N < 20
        for n in range(3, 21):
            a, _ = sf.turan_polynomials(n)
            assert a[0] == 1
            assert bipoly.positive_roots(a) == []

    def test_b_n_coefficients_nonnegative(self):
        # B_n(0) = 0 and no coefficient is negative, so B_n > 0 for every s > 0
        for n in range(2, 41):
            _, b = sf.turan_polynomials(n)
            assert b[:2] == [0, 2]
            assert min(b) >= 0

    def test_polynomials_match_their_definition(self):
        for n in (2, 5, 9):
            a, b = sf.turan_polynomials(n)
            p = [in_x(sf.legendre_shifted(k)) for k in (n - 1, n, n + 1)]
            assert in_x(a) == sympy.expand((n + 1) ** 2 * p[1] ** 2 - n * (n + 2) * p[0] * p[2])
            assert in_x(b) == sympy.expand(p[0] * p[2] - p[1] ** 2)

    def test_audit_reports_exact_ratios(self):
        checks = {c["name"]: c for c in audit.suite_turan()["checks"]}
        assert checks["ratio_2_at_sqrt3"]["value"] == "9/8"
        assert checks["ratio_3_at_sqrt3"]["value"] == "19/18"
        assert all(c["pass"] for c in checks.values())
        assert len(checks) == 13


def log_binomial_square_sum(y: float, z: float, n: int) -> float:
    """log S_n(y, z) for floats y, z > 0, by direct stable summation."""
    ly, lz = math.log(y), math.log(z)
    terms = []
    lc = 0.0  # log C(n, k)
    for k in range(n + 1):
        terms.append(2.0 * lc + k * ly + (n - k) * lz)
        lc += math.log(n - k) - math.log(k + 1) if k < n else 0.0
    return math.log(n + 1) + logsumexp(terms)


SMALL_RATIONALS = st.fractions(min_value=0, max_value=3, max_denominator=12)


class TestBinomialSquareSum:
    @given(SMALL_RATIONALS, SMALL_RATIONALS, st.integers(1, 60))
    @example(F(2, 3), F(2, 3), 60)
    @example(F(0), F(5, 7), 60)
    @example(F(5, 7), F(0), 60)
    def test_matches_direct_double_sum(self, y, z, n_max):
        assume(y or z)
        values = sf.binomial_square_sum(y, z, n_max)
        assert len(values) == n_max
        for n, value in enumerate(values, start=1):
            direct = (n + 1) * sum(
                math.comb(n, k) ** 2 * y**k * z ** (n - k) for k in range(n + 1)
            )
            # stored in lowest terms
            assert (value.num, value.den) == (direct.numerator, direct.denominator)

    def test_equal_arguments(self):
        values = sf.binomial_square_sum(F(1), F(1), 3)
        assert values[1] == 18  # (n+1) C(2n,n) at n = 2
        assert values == [F(4), F(18), F(80)]

    def test_ties_to_fair_coin(self):
        assert sf.binomial_square_sum(F(1, 4), F(1, 4), 1)[0] == F(1)

    def test_symmetry_and_homogeneity(self):
        a = sf.binomial_square_sum(F(1, 3), F(1, 7), 12)
        b = sf.binomial_square_sum(F(1, 7), F(1, 3), 12)
        assert a == b
        scaled = sf.binomial_square_sum(F(2, 3), F(2, 7), 12)
        for n in range(1, 13):
            assert scaled[n - 1] == 2**n * a[n - 1]

    def test_zero_argument(self):
        values = sf.binomial_square_sum(F(0), F(1, 2), 4)
        for n in range(1, 5):
            assert values[n - 1] == (n + 1) * F(1, 2) ** n

    def test_legendre_connection(self):
        # S_n(y,z) = (n+1) q_1 ... q_n over the homogeneous Legendre ratios,
        # which is (y-z)^n (n+1) P_n((y+z)/(y-z)) for y > z
        exact = sf.binomial_square_sum(F(1, 2), F(1, 5), 30)
        ratios = sf.legendre_ratios(30, 0.5, 0.2)
        for n in range(1, 31):
            via_legendre = math.log(n + 1) + math.fsum(map(math.log, ratios[:n]))
            assert float(exact[n - 1]) == pytest.approx(math.exp(via_legendre), rel=1e-11)

    def test_float_route_matches_exact(self):
        exact = sf.binomial_square_sum(F(3, 8), F(1, 8), 40)
        for n in (1, 7, 25, 40):
            logv = log_binomial_square_sum(0.375, 0.125, n)
            assert logv == pytest.approx(
                math.log(float(exact[n - 1])), rel=1e-12, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.binomial_square_sum(F(0), F(0), 3)


# c = 4 theta (1 - theta) on the diagonal grid, and c = 2 sqrt 3 / (2 + sqrt 3) at (1/2, 3/4)
INTEGRAL_CS = [4.0 * (k / 10) * (1.0 - k / 10) for k in range(1, 10)] + [
    2.0 * math.sqrt(3.0) / (2.0 + math.sqrt(3.0))]


class TestLegendreIntegral:
    @pytest.mark.parametrize("n", [1999, 2000, 10_000])
    @pytest.mark.parametrize("c", INTEGRAL_CS)
    def test_matches_40_digit_hyp2f1(self, c, n):
        log_j, m = sf.log_legendre_integral(n, c)
        assert 1 <= m <= n + 1
        with mp.workdps(40):
            want = mp.hyp2f1(-n, mp.mpf(1) / 2, 1, mp.mpf(c))
            assert abs(mp.exp(log_j) / want - 1) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 1000, 10_000])
    def test_fair_coin_is_the_central_binomial(self, n):
        # c = 1: J_n = C(2n, n) / 4^n, and the endpoint node is the zero of the integrand
        log_j, m = sf.log_legendre_integral(n, 1.0)
        assert m <= n + 1
        assert abs(math.exp(log_j) / float(F(math.comb(2 * n, n), 4**n)) - 1) <= 1e-14

    @pytest.mark.parametrize("n", range(1, 41))
    def test_exact_binomial_square_sums(self, n):
        # S_n(y, z) = (n+1) w^n J_n(c) over rationals whose w and c are rational
        for (y, z), c in (((F(1, 4), F(1, 4)), 1.0), ((F(9, 100), F(49, 100)), 0.84),
                          ((F(1, 25), F(16, 25)), 0.64)):
            w = (F(math.isqrt(y.numerator), math.isqrt(y.denominator))
                 + F(math.isqrt(z.numerator), math.isqrt(z.denominator))) ** 2
            exact = sf.binomial_square_sum(y, z, n)[-1].as_fraction() / ((n + 1) * w**n)
            log_j, m = sf.log_legendre_integral(n, c)
            assert m <= n + 1
            assert abs(math.exp(log_j) / float(exact) - 1) <= 1e-14

    def test_small_c(self):
        assert sf.log_legendre_integral(10_000, 0.0) == (0.0, 0)
        # below n c = 2^-60 the series value; just above it, the sum agrees
        assert sf.log_legendre_integral(10, 1e-310) == (-5e-310, 0)
        log_j, m = sf.log_legendre_integral(10_000, 2.0**-60)
        assert 1 <= m <= 3 and log_j == pytest.approx(-5000 * 2.0**-60, rel=1e-12)

    def test_domain(self):
        for c in (-0.1, 1.0 + 2**-52, math.nan):
            with pytest.raises(DomainError):
                sf.log_legendre_integral(10, c)


class TestBesselHalf:
    def test_base_closed_form(self):
        seq = sf.bessel_K_half(1.0, 0)
        expected = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        assert math.exp(seq.log_k[0]) == pytest.approx(expected, rel=1e-15)

    def test_base_against_quadrature(self):
        # with order zero the polynomial integral is 1/(2 theta), an exact
        # rearrangement of the base closed form
        for theta in (0.5, 1.0, 2.0):
            seq = sf.bessel_K_half(theta, 0)
            integral, _ = integrate_half_line(
                lambda u, t=theta: math.exp(-2.0 * t * u), tol=1e-13
            )
            routed = math.exp(
                theta - 0.5 * math.log(math.pi) - 0.5 * math.log(2 * theta) + seq.log_k[0]
            )
            assert routed == pytest.approx(integral, rel=1e-11)

    def test_first_recursion_step(self):
        seq = sf.bessel_K_half(1.0, 2)
        k0 = math.exp(seq.log_k[0])
        k1 = math.exp(seq.log_k[1])
        assert k1 == pytest.approx(2.0 * k0, rel=1e-14)
        assert seq.rho[2] == pytest.approx(2.0 / 7.0, abs=1e-15)

    def test_back_ratio_range(self):
        for theta in (0.2, 1.0, 10.0):
            seq = sf.bessel_K_half(theta, 100)
            for n in range(1, 101):
                assert 0.0 < seq.rho[n] <= theta

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.bessel_K_half(0.0, 5)


class TestSeguraBracket:
    def test_example_values(self):
        lower, upper = sf.segura_bracket(2, 1.0)
        assert lower == pytest.approx(1.0 / (2.5 + math.sqrt(0.25 + 1.0)), rel=1e-15)
        assert lower == pytest.approx(0.27639, abs=5e-6)
        assert upper == 1.0
        assert lower < 2.0 / 7.0 <= 1.0

    def test_vanishes_with_theta(self):
        assert sf.segura_bracket(5, 1e-12)[0] == pytest.approx(0.0, abs=1e-12)

    def test_brackets_recursion_at_ten_five(self):
        seq = sf.bessel_K_half(5.0, 10)
        lower, upper = sf.segura_bracket(10, 5.0)
        assert lower < seq.rho[10] <= upper


class TestLogconcavityRatio:
    def test_decreasing_in_rho(self):
        for theta in (0.5, 1.0, 5.0):
            for n in (2, 5, 20):
                values = [
                    sf.logconcavity_ratio_from_bessel(n, theta, theta * i / 50)
                    for i in range(51)
                ]
                assert all(a > b for a, b in zip(values, values[1:]))

    def test_below_one_at_lower_bound(self):
        for theta in (0.1, 1.0, 10.0, 50.0):
            for n in range(2, 201):
                lower, _ = sf.segura_bracket(n, theta)
                assert sf.logconcavity_ratio_from_bessel(n, theta, lower) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.logconcavity_ratio_from_bessel(1, 1.0, 0.5)
        with pytest.raises(DomainError):
            sf.logconcavity_ratio_from_bessel(3, 1.0, 1.5)


# binary rationals, and 0.1 as the float it is
EXACT_THETAS = (F(1, 8), F(1, 2), F(1), F(2), F(0.1))


def bessel_sum(n, theta):
    """DLMF 10.49.12: k_n / (sqrt(pi / (2 theta)) e^-theta), term by term."""
    return sum(
        F(math.factorial(n + k), math.factorial(k) * math.factorial(n - k)) / (2 * theta) ** k
        for k in range(n + 1)
    )


class TestWeightedIntegral:
    @pytest.mark.parametrize("n, m, theta", [
        (0, 0, 0.5), (3, 5, 1.0), (10, 10, 2.0), (0, 7, 0.1), (6, 0, 0.125), (9, 11, 0.5),
        (20, 25, 0.1), (29, 31, 2.0),
    ])
    def test_against_40_digit_quadrature(self, n, m, theta):
        exact = sf.weighted_integral(n, m, theta)
        with mp.workdps(40):
            ref = mp.quad(lambda u: u**n * (u + 1) ** m * mp.exp(-2 * mp.mpf(theta) * u),
                          [0, mp.inf])
            assert abs(mp.mpf(exact.numerator) / exact.denominator - ref) <= 1e-35 * ref

    def test_float_theta_is_its_binary_rational(self):
        assert sf.weighted_integral(4, 6, 0.1) == sf.weighted_integral(4, 6, F(0.1))
        assert sf.weighted_integral(0, 0, F(3, 2)) == F(1, 3)

    @pytest.mark.parametrize("theta", EXACT_THETAS, ids=str)
    def test_diagonal_identity(self, theta):
        # I(n, n) = n! / (2 theta)^(n+1) y_n, y_n from the audit's K recurrence
        y = audit._k_polynomials(theta, 30)
        for n in range(31):
            assert y[n] == bessel_sum(n, theta)
            want = math.factorial(n) * y[n] / (2 * theta) ** (n + 1)
            assert sf.weighted_integral(n, n, theta) == want

    @pytest.mark.parametrize("theta", EXACT_THETAS, ids=str)
    def test_combined_recurrence(self, theta):
        diag = [sf.weighted_integral(n, n, theta) for n in range(31)]
        for n in range(1, 31):
            want = (n + theta) / n * diag[n] + diag[n - 1] / 2
            assert sf.weighted_integral(n - 1, n + 1, theta) == want

    def test_domain(self):
        for theta in (0, -0.5):
            with pytest.raises(DomainError):
                sf.weighted_integral(1, 1, theta)
