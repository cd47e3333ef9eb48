"""Mechanical audit suites for every quantitative claim the library covers.

Each suite returns a JSON-ready report: a list of named checks with a
boolean verdict and enough numbers to debug a failure.  Suites are
deterministic for a fixed seed; the seed only feeds the randomized
order-relation scenarios and never the grids.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import diagnostics as dg
from . import engine
from . import families as fam
from . import orders
from . import priors as pr
from . import specialfn as sf
from .bipoly import certify_logconcavity_polynomials
from .bipoly import poly_eval, poly_mul, poly_sub, positive_on_halfline, positive_roots

SUITE_ALIASES = {"appendix_a4": "positivity"}


def _check(name: str, ok: bool, **detail) -> dict:
    out = {"name": name, "pass": bool(ok)}
    out.update(detail)
    return out


def _finish(name: str, checks: list[dict]) -> dict:
    return {"suite": name, "pass": all(c["pass"] for c in checks), "checks": checks}


# ---------------------------------------------------------------------------
# turan
# ---------------------------------------------------------------------------

TURAN_N = 10  # A_n and B_n are decided for 2 <= n <= TURAN_N; the tests reach further


def _at_sqrt3(row: list[int]) -> tuple[Fraction, Fraction]:
    """A row in s = (x - 1)/2 at x = sqrt 3, as (a, b) for a + b sqrt 3."""
    a = b = Fraction(0)
    for c in reversed(row):  # times s = (sqrt 3 - 1)/2, plus c
        a, b = (3 * b - a) / 2 + c, (a - b) / 2
    return a, b


def suite_turan(seed: int = 0) -> dict:
    """R_n = P_{n-1} P_{n+1} / P_n^2 between 1 and (n+1)^2/(n(n+2)), decided
    for every x >= 1 on the exact integer rows of P_n in s = (x - 1)/2."""
    n_range, every = [2, TURAN_N], "every x >= 1"
    rows = [sf.legendre_shifted(n) for n in range(TURAN_N + 2)]
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4) = at3 = [_at_sqrt3(r) for r in rows[:5]]
    # P_k(sqrt 3) is rational for even k and a rational times sqrt 3 for odd k
    parity = not (b0 or a1 or b2 or a3 or b4)
    r2, r3 = Fraction(3 * b1 * b3, a2 * a2), Fraction(a2 * a4, 3 * b3 * b3)
    checks = [
        _check("ratio_2_at_sqrt3", parity and r2 == Fraction(9, 8), value=str(r2)),
        _check("ratio_3_at_sqrt3", parity and r3 == Fraction(19, 18), value=str(r3)),
        _check("ratio_3_below_bound", r3 < sf.turan_bound(3), value=str(r3),
               bound=str(sf.turan_bound(3))),
    ]

    # A_n(0) = 1 and B_n(0) = 0, so A_n > 0 on s >= 0 and B_n > 0 on s > 0
    # unless they have a positive root.  A_2 = (2s^2 + 2s - 1)^2 = (x^2 - 3)^2 / 4
    # has one, at x = sqrt 3, where R_2 meets its bound.
    a_rows, b_rows = zip(*(sf.turan_polynomials(n) for n in range(2, TURAN_N + 1)))
    reverse_fails = [n for n, b in enumerate(b_rows, 2) if positive_roots(b) or b[-1] <= 0]
    strict_fails = [n for n, a in enumerate(a_rows[1:], 3) if not positive_on_halfline(a)]
    half = [-1, 2, 2]
    a2_square = [a_rows[0]] == poly_mul([half], [half]) and _at_sqrt3(half) == (0, 0)
    equality = a2_square and len(positive_roots(half)) == 1 and not strict_fails
    sandwich = all(1 < sf.turan_limit(n) < sf.turan_bound(n) for n in range(2, TURAN_N + 1))
    checks += [
        _check("reverse_inequality_grid", not reverse_fails, failing_n=reverse_fails,
               n_range=n_range, x="every x > 1"),
        _check("bound_grid", a2_square and not strict_fails, failing_n=strict_fails,
               n_range=n_range, x=every),
        _check("equality_only_at_2_sqrt3", equality, n_range=n_range, x=every,
               witnesses=[[2, "sqrt(3)"]] if equality else []),
        _check("limit_sandwich_exact", sandwich, n_range=n_range),
        _check("limit_at_2", sf.turan_limit(2) == Fraction(10, 9), value=str(sf.turan_limit(2))),
    ]

    # every row against (n+1) P_{n+1} = (2n+1)(1 + 2s) P_n - n P_{n-1}, then read off
    recurrence = all(
        [[(n + 1) * c for c in rows[n + 1]]]
        == poly_sub(poly_mul([[2 * n + 1, 4 * n + 2]], [rows[n]]), [[n * c for c in rows[n - 1]]])
        for n in range(1, TURAN_N + 1)
    )
    lead2 = Fraction(rows[2][-1], 4)  # s^2 = (x - 1)^2 / 4
    p_values = [[str(a), str(b)] for a, b in at3[1:4]]  # [a, b] for a + b sqrt 3
    checks += [
        _check("value_at_one", recurrence and all(r[0] == 1 for r in rows),
               n_range=[0, TURAN_N + 1]),
        _check("leading_coefficient_2", recurrence and lead2 == Fraction(3, 2), value=str(lead2)),
        _check("values_at_sqrt3", at3[1:4] == [(0, 1), (4, 0), (0, 6)], p1_p2_p3=p_values),
        _check("scaled_sequence_logconcave", a2_square and not strict_fails, failing_n=strict_fails,
               strict_from=3, n_range=n_range, x=every),
    ]

    # the classical regime inside (-1, 1): P_n^2 >= P_{n-1} P_{n+1}, exactly
    halves = (Fraction(0), Fraction(1, 2), Fraction(-1, 2))
    p = {(n, x): poly_eval(rows[n], (x - 1) / 2) for n in range(5) for x in halves}
    classical = all(p[n, x] ** 2 >= p[n - 1, x] * p[n + 1, x] for n, x in p if 1 <= n <= 3)
    checks.append(_check("classical_regime_spot", classical))
    return _finish("turan", checks)


# ---------------------------------------------------------------------------
# bessel
# ---------------------------------------------------------------------------

BESSEL_THETAS = (0.5, 1.0, 2.0)
BRACKET_THETAS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0)
BRACKET_MAX_N = 200
# the bracket thetas where the lower bound's strict gap is float-resolvable
STRICT_THETAS = (0.5, 1.0, 5.0, 20.0, 50.0)


def _k_polynomials(theta: Fraction, n_max: int) -> list[Fraction]:
    """y_n = k_n / (sqrt(pi / (2 theta)) e^(-theta)) for n = 0..n_max, exactly.

    The K recurrence k_{n+1} = ((2n+1)/theta) k_n + k_{n-1} from
    y_{-1} = y_0 = 1, carried in rationals; y_n is the sum of DLMF 10.49.12,
    the Bessel polynomial y_n(1/theta).
    """
    prev, cur, out = Fraction(1), Fraction(1), [Fraction(1)]
    for n in range(n_max):
        prev, cur = cur, (2 * n + 1) / theta * cur + prev
        out.append(cur)
    return out


def _poly_integral_from_bessel(n: int, theta: float, bess: sf.BesselHalfSeq) -> float:
    """sf.weighted_integral(n, n, theta) through the Bessel closed form, in floats."""
    return math.exp(
        theta
        - 0.5 * math.log(math.pi)
        + math.lgamma(n + 1)
        - (n + 0.5) * math.log(2.0 * theta)
        + bess.log_k[n]
    )


def suite_bessel(seed: int = 0) -> dict:
    checks = []
    # one K table per bracket theta and one diagonal psi per Bessel theta: a longer
    # recursion or sequence repeats a shorter one bit for bit
    tables = {theta: sf.bessel_K_half(theta, BRACKET_MAX_N) for theta in BRACKET_THETAS}
    diagonals = {t: engine.expected_posterior_exponential(t, t, 30) for t in BESSEL_THETAS}
    base = tables[1.0]
    k_half = math.exp(base.log_k[0])
    expected = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
    checks.append(
        _check("base_value", abs(k_half - expected) <= 1e-15, value=k_half, expected=expected)
    )
    k32 = math.exp(base.log_k[1])
    checks.append(
        _check("first_step_doubles", abs(k32 - 2.0 * k_half) <= 1e-14, value=k32)
    )
    checks.append(
        _check("back_ratio_2_at_1", abs(base.rho[2] - 2.0 / 7.0) <= 1e-15, value=base.rho[2])
    )

    # the diagonal and the combined integrals: I(n, m) is the integral of
    # u^n (u+1)^m e^(-2 theta u), an exact rational at a binary theta.  Both
    # identities are decided as Fraction equalities, I(n, n) against the K
    # recurrence and I(n-1, n+1) against its two neighbours; the float route
    # the engine takes is compared with the exact value
    ok_diag, ok_comb, worst_diag, worst_comb = True, True, 0.0, 0.0
    for theta in BESSEL_THETAS:
        t, bess = Fraction(theta), tables[theta]
        y = _k_polynomials(t, 10)
        diag, routed = [], []
        for n in range(0, 11):
            exact = sf.weighted_integral(n, n, t)
            diag.append(exact)
            routed.append(_poly_integral_from_bessel(n, theta, bess))
            rel = float(abs(Fraction(routed[n]) - exact) / exact)
            worst_diag = max(worst_diag, rel)
            if exact != math.factorial(n) * y[n] / (2 * t) ** (n + 1) or rel > 1e-8:
                ok_diag = False
        for n in range(1, 11):
            exact = sf.weighted_integral(n - 1, n + 1, t)
            float_route = (n + theta) / n * routed[n] + 0.5 * routed[n - 1]
            rel = float(abs(Fraction(float_route) - exact) / exact)
            worst_comb = max(worst_comb, rel)
            if exact != (n + t) / n * diag[n] + diag[n - 1] / 2 or rel > 1e-8:
                ok_comb = False
    checks.append(_check("diagonal_integral_identity", ok_diag, worst_rel=worst_diag))
    checks.append(_check("combined_integral_recurrence", ok_comb, worst_rel=worst_comb))

    # closed form vs the defining integral, expanded exactly: with an Exp(1)
    # prior psi(n) = e^(-theta0) (theta0 theta1)^n / ((n-1)! n!) I(n-1, n+1)
    # at theta = (theta0 + theta1)/2.  The reference is off by at most about
    # 3 ulp: one correctly rounded quotient, one libm exp and their product
    ok_psi, worst_psi = True, 0.0
    for theta in BESSEL_THETAS:
        t, seq = Fraction(theta), diagonals[theta]
        scale = math.exp(-theta)
        for n in range(1, 21):
            rational = t ** (2 * n) * sf.weighted_integral(n - 1, n + 1, t) / (
                math.factorial(n - 1) * math.factorial(n)
            )
            reference = float(rational) * scale
            rel = abs(seq.value(n) - reference) / reference
            worst_psi = max(worst_psi, rel)
            if rel > 1e-8:
                ok_psi = False
    checks.append(_check("closed_form_vs_exact_integral", ok_psi, worst_rel=worst_psi))

    # analytic bracket and the log-concavity bound on the grid; for tiny
    # theta at large n the strict lower gap is ~2e-16 relative and falls
    # below float64 resolution, so equality is tolerated at the ulp level
    ok_bracket, ok_bound, ok_range, ok_strict = True, True, True, True
    for theta, bess in tables.items():
        for n in range(2, BRACKET_MAX_N + 1):
            rho = bess.rho[n]
            lower, upper = sf.segura_bracket(n, theta)
            if rho - lower < -8.0 * math.ulp(rho) or not rho <= upper:
                ok_bracket = False
            if theta in STRICT_THETAS and not lower < rho:
                ok_strict = False
            if not sf.logconcavity_ratio_from_bessel(n, theta, rho) < 1.0:
                ok_bound = False
            if not 0.0 < rho <= theta:
                ok_range = False
    checks.append(_check("segura_bracket_grid", ok_bracket))
    checks.append(_check("segura_lower_strict_resolvable", ok_strict))
    checks.append(_check("ratio_below_one_grid", ok_bound))
    checks.append(_check("back_ratio_range", ok_range))

    # the ratio expression is strictly decreasing in rho (sampled)
    ok_dec = True
    for theta in (0.5, 1.0, 5.0):
        for n in (2, 5, 20):
            samples = [theta * i / 40.0 for i in range(41)]
            values = [sf.logconcavity_ratio_from_bessel(n, theta, r) for r in samples]
            if any(b >= a for a, b in zip(values, values[1:])):
                ok_dec = False
    checks.append(_check("ratio_decreasing_in_rho", ok_dec))

    # cross-module identity: ratio of sequence values equals the expression
    ok_ident, worst_ident = True, 0.0
    for theta, seq in diagonals.items():
        bess = tables[theta]
        for n in range(2, 30):
            lhs = seq.value(n - 1) * seq.value(n + 1) / seq.value(n) ** 2
            rhs = sf.logconcavity_ratio_from_bessel(n, theta, bess.rho[n])
            rel = abs(lhs - rhs) / rhs
            worst_ident = max(worst_ident, rel)
            if rel > 1e-10:
                ok_ident = False
    checks.append(_check("sequence_ratio_identity", ok_ident, worst_rel=worst_ident))

    # growth once the order passes theta
    ok_growth = True
    for theta in (0.5, 5.0, 20.0):
        seq = tables[theta]
        for n in range(math.ceil(theta), 60):
            if not seq.log_k[n + 1] > seq.log_k[n]:
                ok_growth = False
    checks.append(_check("order_growth", ok_growth))
    return _finish("bessel", checks)


# ---------------------------------------------------------------------------
# logconcavity
# ---------------------------------------------------------------------------


def suite_logconcavity(seed: int = 0) -> dict:
    checks = []
    F = Fraction

    # uniform prior: exact scans come back empty
    pairs = [
        (F(1, 2), F(1, 2)),
        (F(1, 2), F(3, 4)),
        (F(1, 10), F(1, 10)),
        (F(9, 10), F(1, 2)),
        (F(1, 3), F(2, 3)),
    ]
    ok_uniform = True
    for t0, t1 in pairs:
        seq = engine.expected_posterior_uniform(t0, t1, 200, mode="exact")
        if dg.logconcavity_scan(seq):
            ok_uniform = False
    checks.append(_check("uniform_prior_exact_scan_empty", ok_uniform, horizon=200))

    # Beta(7,1) counterexample, exact
    seq = engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), F(9, 10), 6, mode="exact")
    violations = dg.logconcavity_scan(seq)
    early = [n for n in violations if n in (2, 3, 4)]
    checks.append(
        _check("beta_7_1_counterexample", len(early) >= 1, violations=violations)
    )

    # exponential model: scans empty across the grid
    ok_exp = True
    for t0 in (0.3, 1.0, 3.0):
        for t1 in (0.3, 1.0, 3.0):
            seq = engine.expected_posterior_exponential(t0, t1, 200)
            if dg.logconcavity_scan(seq):
                ok_exp = False
    checks.append(_check("exponential_scan_empty", ok_exp, n_range=[2, 200]))

    # normal regimes: concave everywhere when the variance ratio is small
    # or the midpoint parameter is far from zero
    ok_normal = True
    regime_cases = [
        (0.5, 0.0, 0.0),
        (1.0, 0.2, -0.2),
        (2 ** 0.25, 0.0, 0.0),
        (5.0, 0.5, 0.5),
        (100.0, 0.7, 0.3),
        (3.0, -0.9, -0.1),
    ]
    for sigma, t0, t1 in regime_cases:
        seq = engine.expected_posterior_normal(t0, t1, sigma, 400)
        if dg.logconcavity_scan(seq):
            ok_normal = False
    checks.append(_check("normal_concave_regimes", ok_normal, cases=len(regime_cases)))

    # normal with huge variance ratio: a log-convex prefix up to the
    # predicted turning point, concave afterwards
    seq = engine.expected_posterior_normal(0.0, 0.0, 100.0, 7600)
    violations = dg.logconcavity_scan(seq)
    prefix_end = dg.normal_log_convex_prefix_end(0.0, 100.0)
    contiguous = violations == list(range(2, violations[-1] + 1)) if violations else False
    checks.append(
        _check(
            "normal_convex_prefix",
            bool(contiguous and violations)
            and abs(violations[-1] - round(prefix_end)) <= 1,
            prefix_last=violations[-1] if violations else None,
            predicted=prefix_end,
        )
    )

    # diagonal sequences increase for every family
    diag_ok = True
    diag_seqs = [
        engine.expected_posterior_uniform(F(3, 5), F(3, 5), 50, mode="exact"),
        engine.expected_posterior_normal(0.3, 0.3, 2.0, 50),
        engine.expected_posterior_exponential(1.5, 1.5, 50),
        engine.expected_posterior_discrete(
            pr.atoms((F(1, 4), F(1, 3)), (F(3, 4), F(2, 3))), F(1, 4), F(1, 4), 50
        ),
    ]
    for s in diag_seqs:
        values = s.values
        for i in range(len(values) - 1):
            if not values[i + 1] >= values[i]:
                diag_ok = False
    checks.append(_check("diagonal_increasing", diag_ok))

    # a geometric sequence sits exactly on the log-linear boundary
    geo = [0.7 * 0.9**n for n in range(1, 40)]
    checks.append(_check("geometric_boundary_empty", dg.logconcavity_scan(geo) == []))
    return _finish("logconcavity", checks)


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------


def suite_orders(seed: int = 42) -> dict:
    F = Fraction
    rng = random.Random(seed)

    n_scenarios = 20
    runs = []
    for _ in range(n_scenarios):
        prior = orders.random_rational_scenario(rng, max_atoms=4)
        horizon = rng.randint(2, 8)
        theta0, theta1 = rng.choice(prior.thetas), rng.choice(prior.thetas)
        n_state = rng.randint(0, 6)
        state = (n_state, rng.randint(0, n_state) if n_state else 0)
        runs.append(orders.scenario_verdicts(prior, theta0, theta1, horizon, state,
                                             rng.randint(1, 8)))
    checks = [_check(name, all(run[name] for run in runs), scenarios=n_scenarios)
              for name in runs[0]]

    witness = orders.find_lr_reversal(seed)
    checks.append(
        _check("interior_atom_reversal_witness", witness is not None, witness=witness)
    )

    # worked example: two fair hypotheses, one observation
    prior = pr.atoms((F(3, 10), F(1, 2)), (F(7, 10), F(1, 2)))
    own = orders.posterior_law(prior, F(7, 10), 1, under=F(7, 10))
    marg = orders.posterior_law(prior, F(7, 10), 1, under=None)
    checks.append(
        _check(
            "worked_example",
            orders.lr_dominates(own, marg) and not orders.lr_dominates(marg, own),
            own=own.to_json(),
            marginal=marg.to_json(),
        )
    )
    return _finish("orders", checks)


# ---------------------------------------------------------------------------
# positivity (exact polynomial certificates)
# ---------------------------------------------------------------------------


_MINIMUM_FIELDS = ("min_value", "min_argmin", "expected_min", "expected_argmin")


def suite_positivity(seed: int = 0) -> dict:
    checks = []
    try:
        report = certify_logconcavity_polynomials()
    except AssertionError as exc:
        checks.append(_check("coefficient_expansion", False, error=str(exc)))
        return _finish("positivity", checks)
    checks.append(_check("coefficient_expansion", True, identity=report["identity"]))
    checks.append(_check("all_rows_positive", report["all_positive"]))
    checks.append(_check("reported_minima_match", report["minima_match"]))
    for row in report["rows"]:
        name = f"{row['poly']}_m{row['m_power']}"
        detail = {key: row[key] for key in _MINIMUM_FIELDS if key in row}
        checks.append(_check(f"row_{name}", row["positive"] and row.get("min_matches", True), **detail))
    return _finish("positivity", checks)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def suite_asymptotics(seed: int = 0) -> dict:
    checks = []
    F = Fraction
    family = fam.bernoulli()
    uniform = pr.Uniform01()

    # fair coin: psi(n) = (n+1) C(2n, n) / 4^n at n = 1000 against the growth law, by
    # the proven envelope 4^n / sqrt(pi (n + 1/2)) < C(2n, n) < 4^n / sqrt(pi (n + 1/4)),
    # squared and compared exactly; math.pi is within 2^-52 of pi
    n = 1000
    central = math.comb(2 * n, n)
    pi_lo, pi_hi = F(math.pi) - F(1, 2**50), F(math.pi) + F(1, 2**50)
    envelope = central**2 * pi_lo * (n + F(1, 2)) > 16**n > central**2 * pi_hi * (n + F(1, 4))
    ratio = float(F(n + 1) * central * F(1, 4**n)) / (math.sqrt(n) / math.sqrt(math.pi))
    checks.append(_check("fair_coin_ratio_1000", envelope, ratio=ratio))
    asym1 = dg.asymptotic_expected_posterior(family, uniform, 0.5, 0.5, 1)
    fair_constant = abs(asym1 - 1.0 / math.sqrt(math.pi)) <= 1e-15
    checks.append(_check("fair_coin_constant", fair_constant, value=asym1))

    # off-diagonal: the normalized log value settles at the predicted level
    t0, t1 = 0.5, 0.75
    mid, affinity = fam.bhattacharyya_reduction(family, t0, t1)
    log_aff = math.log(affinity)

    def centered(k: int) -> float:
        return engine.log_expected_posterior_uniform(t0, t1, k) - k * log_aff - 0.5 * math.log(k)

    limit = math.log(math.sqrt(fam.fisher_information(family, mid)) / (2.0 * math.sqrt(math.pi)))
    step = abs(centered(2000) - centered(1999))
    gap = abs(centered(2000) - limit)
    checks.append(_check("off_diagonal_step", step < 1e-3, step=step))
    checks.append(_check("off_diagonal_limit", gap < 5e-3, gap=gap, limit=limit))

    # growth-law ratio within 5% at n = 10^4 across the diagonal grid, one value each
    worst = max(
        abs(math.exp(engine.log_expected_posterior_uniform(theta, theta, 10_000))
            / dg.asymptotic_expected_posterior(family, uniform, theta, theta, 10_000) - 1.0)
        for theta in (tenth / 10.0 for tenth in range(1, 10))
    )
    checks.append(_check("diagonal_grid_5pct", worst <= 0.05, worst_rel=worst))

    # normal observations: closed form against the growth law at n = 10^4
    npsi = math.exp(engine.log_expected_posterior_normal(0.0, 0.0, 1.0, 10_000))
    nasym = dg.asymptotic_expected_posterior(fam.normal(1.0), pr.StdNormal(), 0.0, 0.0, 10_000)
    nrel = abs(npsi / nasym - 1.0)
    checks.append(_check("normal_diagonal_10k", nrel < 0.05, rel=nrel))
    expected_const = math.sqrt(10_000) / (2.0 * math.sqrt(math.pi))
    normal_constant = abs(nasym - expected_const) < 1e-12
    checks.append(_check("normal_constant_form", normal_constant, value=nasym))

    # eventual strict decrease off the diagonal, and the decrease index
    useq = engine.expected_posterior_uniform(F(1, 2), F(3, 4), 300, mode="exact")
    idx = dg.eventual_decrease_index(useq)
    checks.append(_check("eventual_decrease_reached", idx is not None, index=idx))
    eseq = engine.expected_posterior_exponential(1.0, 4.0, 200)
    exp_decrease = dg.eventual_decrease_index(eseq) is not None
    checks.append(_check("exponential_eventual_decrease", exp_decrease))
    dseq = engine.expected_posterior_uniform(F(2, 5), F(2, 5), 200, mode="exact")
    checks.append(_check("diagonal_no_decrease", dg.eventual_decrease_index(dseq) is None))
    return _finish("asymptotics", checks)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "turan": suite_turan,
    "bessel": suite_bessel,
    "logconcavity": suite_logconcavity,
    "orders": suite_orders,
    "positivity": suite_positivity,
    "asymptotics": suite_asymptotics,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, seed: int = 42) -> dict:
    """Run one named suite (or "all"); returns the JSON-ready report."""
    name = SUITE_ALIASES.get(name, name)
    if name == "all":
        reports = [_SUITE_FNS[s](seed) for s in SUITES]
        return {
            "suite": "all",
            "seed": seed,
            "pass": all(r["pass"] for r in reports),
            "suites": reports,
        }
    if name not in _SUITE_FNS:
        raise KeyError(f"unknown suite {name!r}; expected one of {SUITES + ('all',)}")
    report = _SUITE_FNS[name](seed)
    report["seed"] = seed
    return report
