"""Seeded workload definitions for the posterior-dynamics benchmark.

A workload is a fixed, ordered list of items.  Every item is one call into
the public surface of the program: ``cli.main(["psi", ...])`` on a bundled
name or on a generated scenario file, ``cli.main(["audit", "all", ...])``,
or ``engine.expected_posterior_quadrature``.  The seed only feeds the
generated items; the program sees nothing but the files and arguments made
here.  Golden verdicts for the fixed items were recorded from the program
as it stood when this benchmark was defined; the values they rest on are
checked against independent references in ``references.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact-rational", "float-sums", "long-horizon-emit", "audit-all")

OUTPUTS = ["csv", "json", "svg"]
QUADRATURE_NS = (10, 30, 100, 300, 1000)
AUDIT_SEEDS_PER_RUN = 4

# The horizons are scaled so that one pass of every workload fits several
# times into a run: the bundled figure2 (H=500, exact) alone takes longer
# than a run, so its prior is run at H=200 with the same parameters.
EXACT_ATOM_H = 200
EXACT_SEEDED_H = 120
EXACT_REGIME_H = 90
EXACT_BETA_H = 120
EXACT_UNIFORM_H = 500
FLOAT_ATOM_H = 150
FLOAT_BETA_H = 200
LONG_H = 50000

# Known defects of the program when this benchmark was defined.  They are
# counted (bad values, failed items) and never filtered out; a result that
# matches one of them is not a benchmark error, any other deviation is.
KNOWN_DEFECTS = {
    "ratio_to_float": (
        "util.ratio_to_float shifts numerator and denominator by the same "
        "amount, so it keeps 55 - log2(den/num) bits: psi is off by up to "
        "2^-55/psi relative, and 0.0 below 2^-55"
    ),
    "quadrature_early_stop": (
        "the exponential quadrature oracle stops once its absolute error "
        "estimate passes tol, so values below ~1e-10 come back far too small"
    ),
    "log_cancellation": (
        "the exponential closed form assembles log psi(n) from terms of size "
        "~n log n that cancel, so at n = 5e4 it is 3e-9 relative off"
    ),
    "asymptote_underflow": (
        "diagnostics.analyze divides by a growth-law asymptote that underflows "
        "to 0.0 and raises ZeroDivisionError, which cli.cmd_psi does not map"
    ),
}
# relative error within which values hit by log_cancellation stay; the
# ratio_to_float envelope is 2^-52 / psi, from the bits it keeps
LOG_CANCELLATION_ENVELOPE = 1e-8


@dataclass(frozen=True)
class Item:
    """One call into the program, with what is needed to check it."""

    name: str
    kind: str  # "psi", "quadrature" or "audit"
    scenario: dict | None = None  # generated scenario, written to a file
    bundled: str | None = None  # bundled scenario name, passed as is
    expect_error: str | None = None  # exception name of a known failure
    defects: tuple[str, ...] = ()  # KNOWN_DEFECTS keys that may show here
    golden: dict | None = None  # verdicts recorded at definition time
    quadrature: dict | None = None  # oracle parameters
    audit_seeds: tuple[int, ...] = field(default_factory=tuple)


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _scenario(name, family, prior, theta0, theta1, horizon, mode=None) -> dict:
    obj = {
        "schema": 1,
        "name": name,
        "family": family,
        "prior": prior,
        "theta0": theta0 if isinstance(theta0, str) else _q(theta0),
        "theta1": theta1 if isinstance(theta1, str) else _q(theta1),
        "horizon": horizon,
        "outputs": OUTPUTS,
    }
    if mode:
        obj["numeric_mode"] = mode
    return obj


BERNOULLI = {"kind": "bernoulli"}
FIGURE1_PRIOR = {"type": "atoms", "atoms": [
    {"theta": "1/2", "weight": "4100/5001"},
    {"theta": "13/20", "weight": "1/5001"},
    {"theta": "17/20", "weight": "900/5001"},
]}
FIGURE2_PRIOR = {"type": "atoms", "atoms": [
    {"theta": "1/5", "weight": "2000/3001"},
    {"theta": "1/2", "weight": "1/3001"},
    {"theta": "17/20", "weight": "1000/3001"},
]}
BETA71 = {"type": "beta", "a": 7, "b": 1}
UNIFORM = {"type": "uniform01"}
EXP1 = {"type": "exp", "lambda": 1}

# psi(H) window for seeded three-atom priors (see three_atom_scenario)
PSI_RANGE = (1e-14, 0.99)
# fixed three-atom items in the two costly comparison regimes: theta0 is the
# atom closest to theta1, so psi -> 1; and theta0 far from theta1, so psi
# falls below 2^-55 where util.ratio_to_float returns 0.0
TIES_PRIOR = {"type": "atoms", "atoms": [
    {"theta": "7/20", "weight": "3440/5001"},
    {"theta": "3/5", "weight": "461/5001"},
    {"theta": "13/20", "weight": "1100/5001"},
]}
UNDERFLOW_PRIOR = {"type": "atoms", "atoms": [
    {"theta": "3/20", "weight": "166/5001"},
    {"theta": "2/5", "weight": "3998/5001"},
    {"theta": "13/20", "weight": "279/1667"},
]}

# theta1 numerators with reduced denominator 20, so every seeded Bernoulli
# item works over the same common denominator
_THETA1_NUMERATORS = (1, 3, 7, 9, 11, 13, 17, 19)


def _log_psi(atoms: list[tuple[Fraction, Fraction]], theta0, theta1, n: int) -> float:
    """Float log psi(n) for an atom prior, used only to pick seeded priors."""
    def log_lik(t, k):  # log t^k (1-t)^(n-k); C(n,k) cancels with the marginal's
        return k * math.log(t) + (n - k) * math.log(1 - t)

    terms = []
    for k in range(n + 1):
        marg = [math.log(w) + log_lik(t, k) for t, w in atoms]
        top = max(marg)
        log_m = top + math.log(sum(math.exp(x - top) for x in marg))
        terms.append(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                     + log_lik(theta0, k) + log_lik(theta1, k) - log_m)
    top = max(terms)
    return math.log(dict(atoms)[theta0]) + top + math.log(sum(math.exp(x - top) for x in terms))


def three_atom_scenario(rng: random.Random, name: str, horizon: int, mode: str) -> dict:
    """Atoms on the 1/20 grid, weights over 5001, theta0 an atom.

    Draws are redrawn until PSI_RANGE holds psi(horizon).  Outside it the
    exact route spends most of its time in big-integer comparisons: near
    psi = 1 consecutive values tie to 1e-9, and near 0 util.ratio_to_float
    returns 0.0.  Those regimes cost up to 9x more and would make the cost
    depend on the seed, so the fixed items atoms_ties and atoms_underflow
    exercise them instead.
    """
    while True:
        nums = sorted(rng.sample(range(1, 20), 3))
        cuts = sorted(rng.sample(range(1, 5001), 2))
        atoms = [(Fraction(a, 20), Fraction(w, 5001))
                 for a, w in zip(nums, (cuts[0], cuts[1] - cuts[0], 5001 - cuts[1]))]
        theta0 = Fraction(rng.choice(nums), 20)
        theta1 = Fraction(rng.choice(_THETA1_NUMERATORS), 20)
        if PSI_RANGE[0] < math.exp(_log_psi(atoms, theta0, theta1, horizon)) < PSI_RANGE[1]:
            break
    prior = {"type": "atoms", "atoms": [{"theta": _q(t), "weight": _q(w)} for t, w in atoms]}
    return _scenario(name, BERNOULLI, prior, theta0, theta1, horizon, mode)


def normal_scenario(rng: random.Random, name: str, horizon: int) -> dict:
    """sigma in [10, 100], distinct theta0/theta1 on the 1/12 grid in [-1, 1]."""
    sigma = float(rng.randint(10, 100))
    k0, k1 = rng.sample(range(-12, 13), 2)
    return _scenario(name, {"kind": "normal", "sigma": sigma}, {"type": "stdnormal"},
                     Fraction(k0, 12), Fraction(k1, 12), horizon)


def runs(values: list[int]) -> list[list[int]]:
    """[2, 3, 4, 7] -> [[2, 4], [7, 7]]: long index lists kept short."""
    out: list[list[int]] = []
    for v in values:
        if out and out[-1][1] == v - 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return out


# Verdicts as emitted in NAME.json; index lists as runs(), critical points
# rounded to the nearest n.
_FIGURE1 = {"modes": [1, 84], "minima": [[11, 11]], "logconcavity_violations": [
    [2, 24], [26, 27], [29, 30], [33, 33], [36, 36], [39, 39], [43, 43], [46, 46], [49, 49]],
    "eventual_decrease": 84, "critical_points": []}
_FIGURE2_HEAD = {"modes": [2, 4, 6, 11, 13, 15, 17, 19], "minima": [
    [1, 1], [3, 3], [5, 5], [7, 7], [12, 12], [14, 14], [16, 16], [18, 18]],
    "eventual_decrease": 19, "critical_points": []}
_FIGURE2_LC = [[3, 3], [5, 5], [7, 7], [10, 10], [12, 12], [14, 14], [16, 16], [18, 18], [20, 20]]
_BETA71 = {"modes": [1], "minima": [], "logconcavity_violations": [[2, 4]],
           "eventual_decrease": 1, "critical_points": []}
_RISING = {"modes": [], "minima": [[1, 1]], "logconcavity_violations": [],
           "eventual_decrease": None, "critical_points": []}
GOLDEN = {
    "figure1": _FIGURE1,
    "figure2_h200": {**_FIGURE2_HEAD, "logconcavity_violations": _FIGURE2_LC + [
        [n, n] for n in range(168, 199, 3)]},
    "beta71_exact": _BETA71,
    "uniform_exact": {"modes": [5], "minima": [[1, 1]], "logconcavity_violations": [],
                      "eventual_decrease": 5, "critical_points": []},
    "atoms_ties": _RISING,
    "atoms_underflow": {"modes": [1], "minima": [], "logconcavity_violations": [[4, 89]],
                        "eventual_decrease": 1, "critical_points": []},
    "figure1_float": _FIGURE1,
    "figure2_float": {**_FIGURE2_HEAD, "logconcavity_violations": _FIGURE2_LC},
    "beta71_float": _BETA71,
    "figure3": {"modes": [1, 28229], "minima": [[1771, 1771]],
                "logconcavity_violations": [[2, 7070]], "eventual_decrease": 28229,
                "critical_points": [[1771, "min"], [28229, "max"]]},
    "exp_diagonal": _RISING,
    "uniform_diagonal": _RISING,
}


def verdicts(diagnostics: dict) -> dict:
    """The golden-comparable part of an emitted diagnostics block."""
    return {
        "modes": diagnostics["modes"],
        "minima": runs(diagnostics["minima"]),
        "logconcavity_violations": runs(diagnostics["logconcavity_violations"]),
        "eventual_decrease": diagnostics["eventual_decrease"],
        "critical_points": [[round(c["n"]), c["kind"]] for c in diagnostics["critical_points"]],
    }


RATIO = ("ratio_to_float",)
EXP_LONG = ("log_cancellation",)
# the failure comes first; once fixed, these items may show the cancellation
UNDERFLOW = ("asymptote_underflow", "log_cancellation")


def build(workload: str, seed: int) -> list[Item]:
    """The ordered items of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-rational":
        return [
            Item("figure1", "psi", bundled="figure1",
                 defects=RATIO, golden=GOLDEN["figure1"]),
            Item("figure2_h200", "psi", defects=RATIO,
                 golden=GOLDEN["figure2_h200"],
                 scenario=_scenario("figure2_h200", BERNOULLI, FIGURE2_PRIOR, "1/5", "1/2",
                                    EXACT_ATOM_H, "exact")),
            Item("beta71_exact", "psi", golden=GOLDEN["beta71_exact"],
                 scenario=_scenario("beta71_exact", BERNOULLI, BETA71, "3/4", "9/10",
                                    EXACT_BETA_H, "exact")),
            Item("uniform_exact", "psi", golden=GOLDEN["uniform_exact"],
                 scenario=_scenario("uniform_exact", BERNOULLI, UNIFORM, "1/2", "3/4",
                                    EXACT_UNIFORM_H, "exact")),
            Item("atoms_ties", "psi", defects=RATIO, golden=GOLDEN["atoms_ties"],
                 scenario=_scenario("atoms_ties", BERNOULLI, TIES_PRIOR, "7/20", "3/20",
                                    EXACT_REGIME_H, "exact")),
            Item("atoms_underflow", "psi", defects=RATIO,
                 golden=GOLDEN["atoms_underflow"],
                 scenario=_scenario("atoms_underflow", BERNOULLI, UNDERFLOW_PRIOR, "3/20",
                                    "17/20", EXACT_REGIME_H, "exact")),
        ] + [
            Item(f"atoms{i}_exact", "psi", defects=RATIO,
                 scenario=three_atom_scenario(rng, f"atoms{i}_exact", EXACT_SEEDED_H, "exact"))
            for i in (1, 2)
        ]
    if workload == "float-sums":
        return [
            Item("figure1_float", "psi", golden=GOLDEN["figure1_float"],
                 scenario=_scenario("figure1_float", BERNOULLI, FIGURE1_PRIOR, "1/2", "13/20",
                                    FLOAT_ATOM_H, "float")),
            Item("figure2_float", "psi", golden=GOLDEN["figure2_float"],
                 scenario=_scenario("figure2_float", BERNOULLI, FIGURE2_PRIOR, "1/5", "1/2",
                                    FLOAT_ATOM_H, "float")),
            Item("beta71_float", "psi", golden=GOLDEN["beta71_float"],
                 scenario=_scenario("beta71_float", BERNOULLI, BETA71, "3/4", "9/10",
                                    FLOAT_BETA_H, "float")),
        ] + [
            Item(f"atoms{i}_float", "psi",
                 scenario=three_atom_scenario(rng, f"atoms{i}_float", FLOAT_ATOM_H, "float"))
            for i in (1, 2)
        ] + [
            Item("quad_normal", "quadrature", quadrature={
                "family": "normal", "sigma": 2.0, "theta0": 0.1, "theta1": 0.4,
                "ns": QUADRATURE_NS}),
            Item("quad_exp", "quadrature", defects=("quadrature_early_stop",), quadrature={
                "family": "exponential", "rate": 1.0, "theta0": 1.0, "theta1": 2.0,
                "ns": QUADRATURE_NS}),
        ]
    if workload == "long-horizon-emit":
        return [
            Item("figure3", "psi", bundled="figure3", golden=GOLDEN["figure3"]),
            Item("exp_diagonal", "psi", defects=EXP_LONG, golden=GOLDEN["exp_diagonal"],
                 scenario=_scenario("exp_diagonal", {"kind": "exponential"}, EXP1, "3/2", "3/2",
                                    LONG_H)),
            Item("uniform_diagonal", "psi", golden=GOLDEN["uniform_diagonal"],
                 scenario=_scenario("uniform_diagonal", BERNOULLI, UNIFORM, "3/5", "3/5",
                                    LONG_H, "float")),
            Item("normal_seeded", "psi",
                 scenario=normal_scenario(rng, "normal_seeded", LONG_H)),
            Item("exp_offdiag", "psi", expect_error="ZeroDivisionError", defects=UNDERFLOW,
                 scenario=_scenario("exp_offdiag", {"kind": "exponential"}, EXP1, "1", "4",
                                    LONG_H)),
            Item("uniform_offdiag", "psi", expect_error="ZeroDivisionError",
                 defects=UNDERFLOW,
                 scenario=_scenario("uniform_offdiag", BERNOULLI, UNIFORM, "1/2", "3/4",
                                    LONG_H, "float")),
        ]
    seeds = tuple(rng.randrange(1, 10**6) for _ in range(AUDIT_SEEDS_PER_RUN))
    return [Item("audit_all", "audit", audit_seeds=seeds)]


def write_scenarios(items: list[Item], directory: str) -> dict[str, str]:
    """Write each generated scenario as JSON; returns item name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for item in items:
        if item.scenario is None:
            continue
        path = os.path.join(directory, item.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(item.scenario, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths[item.name] = path
    return paths
