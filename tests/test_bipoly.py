"""Exact polynomial rows and the positivity certificate."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posterior_dynamics import bipoly, diagnostics, figures, specialfn
from posterior_dynamics.bipoly import CertificationError, poly_mul, poly_sub, positive_on_halfline


def substitute(poly, m_value, t_value):
    """Value of a row-list polynomial at (m, t); exact when both points are rational."""
    return sum(
        c * m_value**i * t_value**j for i, row in enumerate(poly) for j, c in enumerate(row)
    )


def random_poly(rng: random.Random):
    rows = [[0] * 5 for _ in range(5)]
    for _ in range(rng.randint(1, 8)):
        rows[rng.randint(0, 4)][rng.randint(0, 4)] = rng.randint(-9, 9)
    return poly_sub(rows, [])  # canonical form: trailing zeros dropped


class TestArithmetic:
    def test_distributive_law_randomized(self):
        rng = random.Random(1234)
        for _ in range(60):
            a, b, c = random_poly(rng), random_poly(rng), random_poly(rng)
            assert poly_mul(poly_sub(a, b), c) == poly_sub(poly_mul(a, c), poly_mul(b, c))

    def test_substitution_matches_expansion(self):
        rng = random.Random(99)
        for _ in range(30):
            a, b = random_poly(rng), random_poly(rng)
            m_val, t_val = rng.randint(-3, 3), rng.randint(-3, 3)
            a_val, b_val = substitute(a, m_val, t_val), substitute(b, m_val, t_val)
            assert substitute(poly_mul(a, b), m_val, t_val) == a_val * b_val
            assert substitute(poly_sub(a, b), m_val, t_val) == a_val - b_val

    def test_zero_coefficients_dropped(self):
        assert poly_sub([[0, 2]], [[0, 2]]) == []
        assert poly_sub([[1, 2], [3], [4]], [[0, 2], [3], [4]]) == [[1]]
        assert poly_sub([[1], [3], [4]], [[0], [3]]) == [[1], [], [4]]
        assert poly_mul([[1]], []) == []


class TestSourcePolynomials:
    def test_quartic_row_of_first_poly(self):
        assert bipoly.POLY_A[2] == [230, -16, 4]  # 4 t^2 - 16 t + 230
        assert bipoly.POLY_A[4] == [8]

    def test_top_row_of_discriminant(self):
        a, b, c = bipoly.POLY_A, bipoly.POLY_B, bipoly.POLY_C
        e_rows = poly_sub(poly_mul(a, a), poly_mul(poly_mul(b, b), c))
        assert e_rows[7] == [128]
        assert len(e_rows) == 8  # the m^8 terms cancel exactly


class TestCertification:
    def test_full_certificate(self):
        report = bipoly.certify_logconcavity_polynomials()
        assert report["all_positive"]
        assert report["minima_match"]
        by_name = {(r["poly"], r["m_power"]): r for r in report["rows"]}
        assert len(by_name) == 13
        a0 = by_name[("A", 0)]
        assert abs(a0["min_value"] - 108.0) <= 1.0
        assert abs(a0["min_argmin"] - 0.73) <= 0.05
        e0 = by_name[("E", 0)]
        assert abs(e0["min_value"] - 1981.0) <= 1.0
        assert abs(e0["min_argmin"] - 0.90) <= 0.05

    def test_minima_reported_only_where_the_paper_states_them(self):
        report = bipoly.certify_logconcavity_polynomials()
        scanned = {(r["poly"], r["m_power"]) for r in report["rows"] if "min_value" in r}
        assert scanned == set(bipoly.EXPECTED_MINIMA)
        assert all("method" not in r for r in report["rows"])

    def test_certificate_detects_tampering(self):
        original = bipoly.EXPECTED_E_ROWS[7]
        bipoly.EXPECTED_E_ROWS[7] = [127]
        try:
            with pytest.raises(CertificationError, match="m\\^7"):
                bipoly.certify_logconcavity_polynomials()
        finally:
            bipoly.EXPECTED_E_ROWS[7] = original

    def test_stated_minima_sit_on_the_roots_of_the_derivative(self):
        # each argmin is the float nearest a 50-digit root of row', and each
        # value is the row there, rounded once
        rows = {"A": bipoly.POLY_A, "E": bipoly.EXPECTED_E_ROWS}
        for r in bipoly.certify_logconcavity_polynomials()["rows"]:
            if "min_argmin" not in r:
                continue
            row = rows[r["poly"]][r["m_power"]]
            with mp.workdps(50):
                root = mp.findroot(lambda t: mp.polyval(row[::-1], t, derivative=True)[1],
                                   mp.mpf(r["min_argmin"]))
                assert r["min_argmin"] == float(root)
                assert r["min_value"] == float(mp.polyval(row[::-1], root))

    def test_row_negative_only_beyond_the_scan_range(self):
        # t^2 - 300 t + 22499 < 0 on about (149.9, 150.1), far past t = 100
        assert not positive_on_halfline([22499, -300, 1])


def oracle_roots(coeffs) -> list:
    """The distinct real roots in (0, inf), ascending, as 50-digit mpmath
    roots of the square-free part (sympy), so repeated roots cannot stall
    the solver; factors of t are divided out first, so t = 0 never shows."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return []
    t = sympy.Symbol("t")
    squarefree = sympy.Poly(list(reversed(coeffs)), t).sqf_part()
    if squarefree.degree() == 0:
        return []
    with mp.workdps(50):
        roots = mp.polyroots([int(c) for c in squarefree.all_coeffs()], maxsteps=200)
        return sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -30 and mp.re(r) > 0)


def oracle_positive(coeffs) -> bool:
    """p(0) > 0 and no real root in (0, inf), from the mpmath roots."""
    return bool(coeffs) and coeffs[0] > 0 and not oracle_roots(coeffs)


class TestPositiveRoots:
    @settings(max_examples=300)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
    @example([2, -3, 1])  # (t - 1)(t - 2): a root on a bisection point
    @example([-20, 24, -9, 1])  # (t - 2)^2 (t - 5): a double root
    @example([1, -6, 15, -20, 15, -6, 1])  # (t - 1)^6
    @example([0, -3, 1])  # t (t - 3): a root at t = 0 is not positive
    @example([18000, -270, 1])  # (t - 120)(t - 150): roots only beyond t = 100
    @example([1000001, -2000001, 1000000])  # (t - 1)(t - 1 - 1e-6): two close roots
    @example([-(2**53 + 3), 2**53])  # 1 + 3 * 2^-53: halfway between two floats, to even
    @example([0])
    def test_matches_mpmath_roots(self, coeffs):
        assert bipoly.positive_roots(coeffs) == [float(r) for r in oracle_roots(coeffs)]


class TestDescartesShortcut:
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=9))
    @example([0, 0, 3])  # only a root at t = 0
    def test_rows_without_sign_change(self, coeffs):
        assert bipoly.positive_roots(coeffs) == [] == oracle_roots(coeffs)
        assert bipoly.positive_roots([-c for c in coeffs]) == []

    def test_certificate_rows_unchanged(self):
        # every row the certificate isolates roots of, and its derivative
        polys = (bipoly.POLY_A, bipoly.POLY_B, bipoly.POLY_C, bipoly.EXPECTED_E_ROWS)
        for row in (r for poly in polys for r in poly):
            for f in (row, bipoly.poly_derivative(row)):
                assert bipoly.positive_roots(f) == [float(r) for r in oracle_roots(f)]


class TestPositiveOnHalfline:
    @settings(max_examples=500)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
    @example([4, -4, 1])  # (t - 2)^2: a double positive root
    @example([1, -6, 15, -20, 15, -6, 1])  # (t - 1)^6
    @example([0, 3, 1])  # a root at t = 0
    @example([5, 1, -1])  # negative leading coefficient
    @example([18000, -270, 1])  # (t - 120)(t - 150): roots only beyond t = 100
    @example([10201, -202, 1])  # (t - 101)^2
    @example([-10, 1])  # root at t = 10, row(0) < 0
    @example([10202, -202, 1])  # (t - 101)^2 + 1: positive
    @example([3])
    @example([])
    def test_matches_mpmath_roots(self, coeffs):
        assert positive_on_halfline(coeffs) == oracle_positive(coeffs)


def fraction_chain(p):
    """The Sturm chain over Fraction by Euclidean division: p, p', then the
    negated remainders, ending at gcd(p, p')."""
    chain = [[Fraction(c) for c in p], [Fraction(c) for c in bipoly.poly_derivative(p)]]
    while chain[-1]:
        a, b = list(chain[-2]), chain[-1]
        while len(a) >= len(b):
            q, shift = a[-1] / b[-1], len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        chain.append([-c for c in a])
    chain.pop()
    return chain


def is_positive_multiple(f, g) -> bool:
    """f = c g for some rational c > 0."""
    ratios = {Fraction(a) / b for a, b in zip(f, g) if b}
    zeros_match = all((a == 0) == (b == 0) for a, b in zip(f, g))
    return len(f) == len(g) and zeros_match and len(ratios) == 1 and ratios.pop() > 0


def integer_row(row):
    """A positive integer multiple of a row with rational coefficients."""
    scale = math.lcm(*(Fraction(c).denominator for c in row))
    return [int(Fraction(c) * scale) for c in row]


def turan_rows():
    return [row for n in range(2, 21) for row in specialfn.turan_polynomials(n)]


def normal_cubics(monkeypatch):
    """The slope and curvature cubics the diagnostics isolate roots of, for
    the bundled normal scenarios and a few more normal cases."""
    rows = []
    cases = [
        (float(s.theta0), float(s.theta1), s.family.sigma)
        for s in map(figures.bundled_scenario, figures.BUNDLED) if s.family.kind == "normal"
    ]
    assert cases
    cases += [(0.0, 0.0, 100.0), (-2.0, 2.0, 1.0), (0.1, 0.4, 2.0), (0.7, 0.3, 100.0)]
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "positive_roots", lambda row: rows.append(list(row)) or [])
        for theta0, theta1, sigma in cases:
            diagnostics.normal_critical_points(theta0, theta1, sigma)
            diagnostics.normal_log_convex_prefix_end(0.5 * (theta0 + theta1), sigma)
    return rows


def roots_from_fraction_chain(monkeypatch, row):
    """positive_roots with the Sturm chain built over Fraction instead."""
    with monkeypatch.context() as m:
        m.setattr(bipoly, "_sturm_chain",
                  lambda p: [integer_row(f) for f in fraction_chain(p)])
        return bipoly.positive_roots(row)


class TestIntegerSturmChain:
    def check(self, monkeypatch, row):
        p = integer_row(row)
        while p and p[-1] == 0:
            p.pop()
        if len(p) > 1:
            chain, reference = bipoly._sturm_chain(p), fraction_chain(p)
            assert len(chain) == len(reference)
            assert all(map(is_positive_multiple, chain, reference))
        assert bipoly.positive_roots(row) == roots_from_fraction_chain(monkeypatch, row)

    def test_turan_rows(self, monkeypatch):
        for row in turan_rows():
            self.check(monkeypatch, row)

    def test_normal_cubics(self, monkeypatch):
        cubics = normal_cubics(monkeypatch)
        assert len(cubics) >= 10
        for row in cubics:
            self.check(monkeypatch, row)

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=9),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4))
    @example([2, -3, 1], [-1, 1])  # (t - 1)^2 (t - 2): a repeated root
    @example([-20, 24, -9, 1], [-20, 24, -9, 1])  # every root repeated
    @example([0], [1])
    def test_drawn_integer_rows(self, monkeypatch, row, factor):
        # times a drawn factor, so repeated roots and a nontrivial gcd(p, p') occur
        self.check(monkeypatch, row)
        product = poly_mul([row], [factor])
        self.check(monkeypatch, product[0] if product else [0])
