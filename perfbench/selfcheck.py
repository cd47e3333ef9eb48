"""The traced run and its call-count self-checks.

Untraced passes fill the first half of the run; their median scaled pass
time against that of the traced passes is the tracing overhead.  The traced
passes then run with every binding of the traced functions patched (see
``spans.py``), recording the counter deltas of each item.
``expected_counts`` states, for each kind of item, call counts that follow
from the program's algorithms as they stood when this benchmark was
defined; each traced item must meet them exactly, and a missed binding
shows as a shortfall.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import spans as tr
from workloads import Item

SELF_S = ".self_s"
CALLS = ".calls"


def expected_counts(item: Item, scenario: dict | None) -> dict[str, int]:
    """Exact per-item call counts implied by the routes' summation loops."""
    if item.kind == "audit":
        out = {f"audit.{s}.calls": 1 for s in tr.SPANS["audit"]}
        out.update({"cli.main.calls": 1, "figures.atomic_write.calls": 1,
                    "bipoly.certify_logconcavity_polynomials.calls": 1})
        return out
    if item.kind == "quadrature":
        n_calls = len(item.quadrature["ns"])
        return {"engine.expected_posterior_quadrature.calls": n_calls,
                "quadrature.integrate.calls": n_calls}
    h = scenario["horizon"]
    terms = h * (h + 3) // 2  # (n, k) pairs with 1 <= n <= h, 0 <= k <= n
    out = {"cli.main.calls": 1, "scenario.run_scenario.calls": 1,
           "diagnostics.analyze.calls": 1,
           "scenario.load_scenario.calls": 0 if item.bundled else 1}
    if item.expect_error is None:
        out["figures.atomic_write.calls"] = len(scenario["outputs"])
    family, prior = scenario["family"]["kind"], scenario["prior"]["type"]
    exact = scenario.get("numeric_mode", "auto") != "float"
    if family == "bernoulli" and prior == "atoms":
        out["engine.expected_posterior_discrete.calls"] = 1
        if exact:
            out["util.tree_sum_fractions.calls"] = h
        else:
            atoms = len(scenario["prior"]["atoms"])
            out["families.suff_stat_log_density.calls"] = (2 + atoms) * terms
            out["util.logsumexp.calls"] = terms + h
    elif family == "bernoulli" and prior == "beta":
        out["engine.expected_posterior_beta.calls"] = 1
        if exact:
            out["priors.beta_marginal_pmf_exact.calls"] = terms
            out["families.binomial_pmf_exact.calls"] = 2 * terms
        else:
            out["priors.marginal_suffstat_logpmf.calls"] = terms
            out["families.suff_stat_log_density.calls"] = 2 * terms
            out["util.logsumexp.calls"] = h
    elif family == "bernoulli" and prior == "uniform01":
        out["engine.expected_posterior_uniform.calls"] = 1
        if exact:
            out["specialfn.binomial_square_sum.calls"] = 1
        else:
            t0, t1 = Fraction(scenario["theta0"]), Fraction(scenario["theta1"])
            # y == z takes the central-binomial closed form, else Legendre
            out["specialfn.legendre_ratios.calls"] = int(t0 * t1 != (1 - t0) * (1 - t1))
    elif family == "normal":
        out["engine.expected_posterior_normal.calls"] = 1
        out["diagnostics.normal_critical_points.calls"] = int(item.expect_error is None)
    elif family == "exponential":
        out["engine.expected_posterior_exponential.calls"] = 1
        out["specialfn.bessel_K_half.calls"] = 1
    return out


def check_counts(runner, deltas: dict[str, list[dict]]) -> list[str]:
    problems = []
    for item in runner.items:
        per_pass = deltas.get(item.name, [])
        if not per_pass:
            problems.append(f"{item.name}: no traced call recorded")
            continue
        first = per_pass[0]
        if item.kind != "audit" and any(d != first for d in per_pass[1:]):
            problems.append(f"{item.name}: call counts differ across traced passes")
        expected = expected_counts(item, runner.scenarios.get(item.name))
        if item.kind == "quadrature":
            evals = first.get(tr.INTEGRAND_EVALS, 0)
            expected["families.suff_stat_log_density.calls"] = 2 * evals
            expected["priors.marginal_suffstat_logpmf.calls"] = evals
        for name, want in expected.items():
            for d in per_pass:
                if d.get(name, 0) != want:
                    problems.append(f"{item.name}: {name} = {d.get(name, 0)}, expected {want}")
                    break
    return problems


def traced_run(runner, seconds: float):
    """(all pass records, per-layer metrics with a "problems" list)."""
    start = time.perf_counter()
    untraced = runner.timed_passes(seconds / 2, min_passes=1)
    tracer = tr.Tracer()
    deltas: dict[str, list[dict]] = {}

    def around(item, call):
        before = tracer.snapshot()
        try:
            call()
        finally:
            after = tracer.snapshot()
            deltas.setdefault(item.name, []).append(
                {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)})

    tracer.patch()
    try:
        problems = [f"unpatched binding {b}" for b in tracer.unpatched_bindings()]
        remaining = seconds - (time.perf_counter() - start)
        traced = runner.timed_passes(remaining, first_index=len(untraced), around=around,
                                     min_passes=1)
    finally:
        tracer.restore()
    problems += check_counts(runner, deltas)

    passes = len(traced)
    layer = {f"{k}{CALLS}": v / passes for k, v in tracer.calls.items()}
    layer.update({f"{k}{SELF_S}": v / passes for k, v in tracer.self_s.items()})
    layer.update({k: v / passes for k, v in tracer.counters.items()})
    layer[tr.ENGINE_MAX_BITS] = tracer.counters[tr.ENGINE_MAX_BITS]
    # scaled pass times, as in the end-to-end metrics, so that a change of
    # the host's speed between the two halves does not read as overhead
    layer["trace.overhead_s"] = (statistics.median(sum(r.scaled_s().values()) for r in traced)
                                 - statistics.median(sum(r.scaled_s().values()) for r in untraced))
    layer["problems"] = problems
    return untraced + traced, layer
