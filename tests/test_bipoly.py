"""Exact bivariate polynomial arithmetic and the positivity certificate."""

import random

import pytest

from posterior_dynamics import bipoly
from posterior_dynamics.bipoly import BiPoly, CertificationError


def substitute(poly: BiPoly, m_value, t_value):
    """Value of ``poly`` at (m, t); exact when both points are rational."""
    return sum(val * m_value**i * t_value**j for (i, j), val in poly.coeffs.items())


def random_poly(rng: random.Random) -> BiPoly:
    coeffs = {}
    for _ in range(rng.randint(1, 8)):
        coeffs[(rng.randint(0, 4), rng.randint(0, 4))] = rng.randint(-9, 9)
    return BiPoly(coeffs)


class TestArithmetic:
    def test_distributive_law_randomized(self):
        rng = random.Random(1234)
        for _ in range(60):
            a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
            assert (a + b) * c == a * c + b * c

    def test_substitution_matches_expansion(self):
        rng = random.Random(99)
        for _ in range(30):
            a, b = random_poly(rng), random_poly(rng)
            m_val, t_val = rng.randint(-3, 3), rng.randint(-3, 3)
            assert substitute(a * b, m_val, t_val) == substitute(a, m_val, t_val) * substitute(
                b, m_val, t_val
            )

    def test_zero_coefficients_dropped(self):
        poly = BiPoly({(1, 0): 2}) - BiPoly({(1, 0): 2})
        assert poly == BiPoly({})
        assert str(poly) == "0"

    def test_canonical_printing_is_order_independent(self):
        a = BiPoly({(2, 0): 1, (0, 1): 3})
        b = BiPoly({(0, 1): 3, (2, 0): 1})
        assert str(a) == str(b)


class TestSourcePolynomials:
    def test_quartic_row_of_first_poly(self):
        rows = bipoly.POLY_A.coefficients_in_m()
        assert rows[2] == [230, -16, 4]  # 4 t^2 - 16 t + 230
        assert rows[4] == [8]

    def test_top_row_of_discriminant(self):
        e_poly = bipoly.POLY_A * bipoly.POLY_A - bipoly.POLY_B * bipoly.POLY_B * bipoly.POLY_C
        rows = e_poly.coefficients_in_m()
        assert rows[7] == [128]
        assert max(rows) == 7  # the m^8 terms cancel exactly


class TestCertification:
    def test_full_certificate(self):
        report = bipoly.certify_logconcavity_polynomials()
        assert report["all_positive"]
        assert report["minima_match"]
        by_name = {(r["poly"], r["m_power"]): r for r in report["rows"]}
        a0 = by_name[("A", 0)]
        assert abs(a0["min_value"] - 108.0) <= 1.0
        assert abs(a0["min_argmin"] - 0.73) <= 0.05
        e0 = by_name[("E", 0)]
        assert abs(e0["min_value"] - 1981.0) <= 1.0
        assert abs(e0["min_argmin"] - 0.90) <= 0.05

    def test_certificate_detects_tampering(self):
        original = bipoly.EXPECTED_E_ROWS[7]
        bipoly.EXPECTED_E_ROWS[7] = [127]
        try:
            with pytest.raises(CertificationError, match="m\\^7"):
                bipoly.certify_logconcavity_polynomials()
        finally:
            bipoly.EXPECTED_E_ROWS[7] = original

    def test_quadratic_halfline_check(self):
        assert bipoly._quadratic_nonneg_on_halfline(4, -16, 16)
        assert bipoly._quadratic_nonneg_on_halfline(2000, -17000, 40000)
        assert not bipoly._quadratic_nonneg_on_halfline(1, -4, 3.9)
        assert bipoly._quadratic_nonneg_on_halfline(0, 2, 1)
        assert not bipoly._quadratic_nonneg_on_halfline(0, -1, 1)
