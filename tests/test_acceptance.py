"""Acceptance gate: every headline quantitative claim, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, and on failure)
so the gate reads as a checklist.  Tolerances are pinned here and nowhere
else; exact-arithmetic criteria compare big rationals, never floats.
"""

import math
import random
import time
from fractions import Fraction as F

from posterior_dynamics import audit
from posterior_dynamics import cli
from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine
from posterior_dynamics import families as fam
from posterior_dynamics import orders
from posterior_dynamics import priors as pr
from posterior_dynamics.bipoly import EXPECTED_MINIMA, certify_logconcavity_polynomials


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {text}")
    assert ok, f"criterion {number} failed: {text}"


FIGURE1_PRIOR = pr.atoms(
    (F(1, 2), F(4100, 5001)), (F(13, 20), F(1, 5001)), (F(17, 20), F(900, 5001))
)
FIGURE2_PRIOR = pr.atoms(
    (F(1, 5), F(2000, 3001)), (F(1, 2), F(1, 3001)), (F(17, 20), F(1000, 3001))
)


def test_criterion_01_dip_then_rebound_exact():
    started = time.perf_counter()
    seq = engine.expected_posterior_discrete(
        FIGURE1_PRIOR, F(1, 2), F(13, 20), 200, mode="exact"
    )
    minima = [
        n
        for n in range(2, 200)
        if seq.value(n) < seq.value(n - 1) and seq.value(n) <= seq.value(n + 1)
    ]
    modes = dg.detect_modes(seq)
    interior = [m for m in modes if m > 1]
    strictly_down = all(
        seq.value(n) > seq.value(n + 1) for n in range(interior[-1], 200)
    ) if interior else False
    elapsed = time.perf_counter() - started
    ok = (
        len(minima) >= 1
        and abs(minima[0] - 11) <= 1
        and len(interior) == 1
        and abs(interior[0] - 81) <= 3
        and strictly_down
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"three-atom dip at n={minima[:1]} (target 11±1), rebound peak at "
        f"n={interior} (target 81±3), strict decrease to 200, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_eight_modes_exact():
    seq = engine.expected_posterior_discrete(
        FIGURE2_PRIOR, F(1, 5), F(1, 2), 500, mode="exact"
    )
    modes = dg.detect_modes(seq)
    ok = len(modes) == 8
    report(2, ok, f"three-atom multimodal run has {len(modes)} modes (target 8): {modes}")


def test_criterion_03_normal_critical_points():
    started = time.perf_counter()
    seq = engine.expected_posterior_normal(-1 / 3, 1 / 3, 100.0, 50_000)
    logs = seq.log_values
    argmin = min(range(len(logs)), key=logs.__getitem__) + 1
    argmax = max(range(len(logs)), key=logs.__getitem__) + 1
    roots = dict((kind, n) for n, kind in dg.normal_critical_points(-1 / 3, 1 / 3, 100.0))
    elapsed = time.perf_counter() - started
    ok = (
        1600 <= argmin <= 2100
        and 26000 <= argmax <= 32000
        and abs(roots["min"] - argmin) <= 2
        and abs(roots["max"] - argmax) <= 2
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"normal wide-prior argmin={argmin} in [1600,2100], argmax={argmax} in "
        f"[26000,32000], continuous roots ({roots['min']:.1f}, {roots['max']:.1f}) "
        f"within 2, {elapsed:.2f}s < 1s",
    )


def test_criterion_04_oracle_equivalence():
    rng = random.Random(42)
    mismatches = 0
    for _ in range(20):
        prior = orders.random_rational_scenario(rng, max_atoms=4)
        theta0 = rng.choice(prior.thetas)
        theta1 = rng.choice(prior.thetas)
        horizon = rng.randint(6, 12)
        seq = engine.expected_posterior_discrete(prior, theta0, theta1, horizon, mode="exact")
        for n in range(1, horizon + 1):
            brute = engine.expected_posterior_bruteforce(prior, theta0, theta1, n)
            if seq.value(n).as_fraction() != brute:
                mismatches += 1
    report(
        4,
        mismatches == 0,
        f"summation route equals 2^n brute force exactly on 20 seeded scenarios "
        f"(n up to 12), {mismatches} mismatches",
    )


def test_criterion_05_growth_law():
    # the fair-coin part is the audit's verdict from the proven envelope of
    # C(2n, n), decided exactly; its ratio detail is only printed
    suite = audit.run_suite("asymptotics", seed=42)
    fair = next(c for c in suite["checks"] if c["name"] == "fair_coin_ratio_1000")
    part1, ratio = fair["pass"], fair["ratio"]

    t0, t1 = 0.5, 0.75
    limit, log_aff = dg.growth_law(fam.bernoulli(), pr.Uniform01(), t0, t1)
    seq = engine.expected_posterior_uniform(t0, t1, 2000, mode="float")

    def centered(k: int) -> float:
        return seq.log_values[k - 1] - k * log_aff - 0.5 * math.log(k)

    step = abs(centered(2000) - centered(1999))
    gap = abs(centered(2000) - limit)
    part2 = step < 1e-3 and gap < 5e-3
    report(
        5,
        part1 and part2,
        f"fair-coin ratio at n=1000 is {ratio:.6f}, certified by the exact envelope "
        f"of C(2n, n); off-diagonal "
        f"normalized log sequence: step {step:.2e} < 1e-3, limit gap {gap:.2e} < 5e-3",
    )


def test_criterion_06_turan_suite():
    suite = audit.run_suite("turan", seed=42)
    wanted = {
        "reverse_inequality_grid",
        "bound_grid",
        "equality_only_at_2_sqrt3",
        "ratio_2_at_sqrt3",
        "ratio_3_at_sqrt3",
    }
    by_name = {c["name"]: c["pass"] for c in suite["checks"]}
    ok = suite["pass"] and all(by_name[name] for name in wanted)
    report(
        6,
        ok,
        "scaled-ratio bound and its reverse certified on exact integer polynomials "
        f"for n in [2,{audit.TURAN_N}] and every x >= 1, with the unique equality "
        "witness at (2, sqrt 3)",
    )


def test_criterion_07_exponential_suite():
    ok_quad = True
    worst = 0.0
    for theta in (0.5, 1.0, 2.0):
        seq = engine.expected_posterior_exponential(theta, theta, 20)
        for n in range(1, 21):
            quad, _ = engine.expected_posterior_quadrature(
                fam.exponential(), pr.ExpPrior(1), theta, theta, n, tol=1e-12
            )
            rel = abs(seq.value(n) - quad) / quad
            worst = max(worst, rel)
            if rel > 1e-8:
                ok_quad = False
    ok_scan = True
    for t0 in (0.3, 1.0, 3.0):
        for t1 in (0.3, 1.0, 3.0):
            if dg.logconcavity_scan(engine.expected_posterior_exponential(t0, t1, 200)):
                ok_scan = False
    suite = audit.run_suite("bessel", seed=42)
    by_name = {c["name"]: c["pass"] for c in suite["checks"]}
    ok_bounds = by_name["segura_bracket_grid"] and by_name["ratio_below_one_grid"]
    ok = ok_quad and ok_scan and ok_bounds
    report(
        7,
        ok,
        f"closed form vs quadrature worst rel {worst:.1e} <= 1e-8; scans empty on "
        f"[2,200]; bracket and below-one bound hold on the (n, rate) grid",
    )


def test_criterion_08_normal_regimes():
    ok_concave = True
    for sigma, t0, t1 in ((0.5, 0.0, 0.0), (1.0, 0.2, -0.2), (2**0.25, 0.0, 0.0),
                          (5.0, 0.5, 0.5), (100.0, 0.7, 0.3), (3.0, -0.9, -0.1)):
        if dg.logconcavity_scan(engine.expected_posterior_normal(t0, t1, sigma, 400)):
            ok_concave = False
    seq = engine.expected_posterior_normal(0.0, 0.0, 100.0, 7600)
    violations = dg.logconcavity_scan(seq)
    root = dg.normal_log_convex_prefix_end(0.0, 100.0)
    contiguous = bool(violations) and violations == list(range(2, violations[-1] + 1))
    ok_prefix = contiguous and abs(violations[-1] - round(root)) <= 1
    report(
        8,
        ok_concave and ok_prefix,
        f"small-variance/off-center regimes have zero violations; wide-prior "
        f"violations form prefix [2,{violations[-1] if violations else '-'}] ending at "
        f"the turning point {root:.1f} (±1)",
    )


def test_criterion_09_beta_counterexample():
    seq = engine.expected_posterior_beta(pr.Beta(7, 1), F(3, 4), F(9, 10), 6, mode="exact")
    violations = dg.logconcavity_scan(seq)
    early = sorted(set(violations) & {2, 3, 4})
    report(
        9,
        len(early) >= 1,
        f"skewed conjugate prior yields exact violations at n={early} within {{2,3,4}}",
    )


def test_criterion_10_polynomial_certificates():
    try:
        cert = certify_logconcavity_polynomials()
        ok = cert["all_positive"] and cert["minima_match"]
        rows = {(r["poly"], r["m_power"]): r for r in cert["rows"]}
        for (name, degree), (want_min, want_arg) in EXPECTED_MINIMA.items():
            row = rows[(name, degree)]
            if abs(row["min_value"] - want_min) > 1.0 or abs(row["min_argmin"] - want_arg) > 0.05:
                ok = False
    except AssertionError:
        ok = False
    report(
        10,
        ok,
        "discriminant expansion matches all eight coefficient rows exactly; "
        "numeric minima within ±1 (value) and ±0.05 (argmin)",
    )


def test_criterion_11_order_relations():
    suite = audit.run_suite("orders", seed=42)
    wanted = (
        "martingale_exact",
        "submartingale_exact",
        "own_law_dominates_marginal",
        "direction_criterion",
        "two_sided_symmetry",
    )
    by_name = {c["name"]: c["pass"] for c in suite["checks"]}
    ok = all(by_name[name] for name in wanted)
    report(
        11,
        ok,
        "martingale, submartingale, dominance, direction criterion and symmetry "
        "all exact on 20 seeded rational scenarios (n up to 8)",
    )


def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli.main(["audit", "all", "--seed", "42", "--out", str(out1)])
    code2 = cli.main(["audit", "all", "--seed", "42", "--out", str(out2)])
    bytes1 = (out1 / "audit_all.json").read_bytes()
    bytes2 = (out2 / "audit_all.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and bytes1 == bytes2
    report(
        12,
        ok,
        f"audit all --seed 42 exits 0 and produces byte-identical reports "
        f"({len(bytes1)} bytes)",
    )
