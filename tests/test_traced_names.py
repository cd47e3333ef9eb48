"""Every name the benchmark traces exists in the package.

``perfbench/spans.py`` wraps functions by module and attribute name, so a
deleted or renamed function stops a traced benchmark run.  This guard loads
that file by path, without changing it, and fails here first.
"""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine, scenario
from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr
from posterior_dynamics.figures import bundled_scenario
from posterior_dynamics.util import DeferredExactValue, ExactValue, tree_sum_fractions

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TRACED = sorted(
    (module, attr)
    for table in (SPANS.SPANS, SPANS.COUNTS)
    for module, attrs in table.items()
    for attr in attrs
)


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_function_exists(module, attr):
    namespace = importlib.import_module(f"{SPANS.PACKAGE}.{module}")
    assert callable(getattr(namespace, attr, None)), f"{module}.{attr} is traced but missing"


@pytest.mark.parametrize("dunder", SPANS.EXACT_COMPARE_DUNDERS)
def test_exact_compare_dunder_is_defined_on_exact_value(dunder):
    assert dunder in ExactValue.__dict__


def test_analyze_solves_a_normal_sequence_once(monkeypatch):
    # the benchmark pins one normal_critical_points call per normal psi run
    calls = []
    solve = dg.normal_critical_points
    monkeypatch.setattr(dg, "normal_critical_points", lambda *a: calls.append(a) or solve(*a))
    report = dg.analyze(engine.expected_posterior_normal(-1 / 3, 1 / 3, 100.0, 50))
    assert len(calls) == 1
    assert [kind for _, kind in report.critical_points] == ["min", "max"]


def test_max_bits_reads_deferred_values_like_eager_ones(monkeypatch):
    # the traced run reads engine.exact.max_bits off every value's pair,
    # building the deferred ones, and pins H tree sums per exact atom item
    figure1 = bundled_scenario("figure1")
    calls = []
    monkeypatch.setattr(engine, "tree_sum_fractions",
                        lambda nums, dens: calls.append(len(nums)) or tree_sum_fractions(nums, dens))
    seq = scenario.run_scenario(figure1)
    assert any(isinstance(v, DeferredExactValue) for v in seq.values)
    bits = SPANS._max_bits(seq.values)
    assert len(calls) == figure1.horizon
    SPANS._max_bits(seq.values)
    assert len(calls) == figure1.horizon  # each pair is built once
    monkeypatch.setattr(engine, "certified_quotient", lambda *args: None)
    eager = scenario.run_scenario(figure1)
    assert not any(isinstance(v, DeferredExactValue) for v in eager.values)
    assert bits == SPANS._max_bits(eager.values)


@pytest.fixture
def counted_calls(monkeypatch):
    """Counter of calls to the helpers perfbench's selfcheck pins per float
    or exact Beta item; a hoist out of the per-term kernel fails here
    before it fails a traced benchmark run."""
    calls = Counter()
    for module, attr in ((fam, "suff_stat_log_density"), (engine, "logsumexp"),
                         (pr, "marginal_suffstat_logpmf"), (pr, "beta_marginal_pmf_exact"),
                         (fam, "binomial_pmf_exact")):
        inner, name = getattr(module, attr), f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        monkeypatch.setattr(module, attr,
                            lambda *a, inner=inner, name=name: calls.update([name]) or inner(*a))
    return calls


H = 12
TERMS = H * (H + 3) // 2  # (n, k) pairs with 1 <= n <= H, 0 <= k <= n


def test_float_atom_route_makes_the_pinned_calls(counted_calls):
    figure1 = bundled_scenario("figure1")
    atoms = len(figure1.prior.atoms)
    assert atoms == 3
    engine.expected_posterior_discrete(figure1.prior, figure1.theta0, figure1.theta1, H,
                                       mode="float")
    assert counted_calls == {"families.suff_stat_log_density": (2 + atoms) * TERMS,
                             "engine.logsumexp": TERMS + H}


def test_float_beta_route_makes_the_pinned_calls(counted_calls):
    engine.expected_posterior_beta(pr.Beta(7, 1), Fraction(3, 4), Fraction(9, 10), H,
                                   mode="float")
    assert counted_calls == {"priors.marginal_suffstat_logpmf": TERMS,
                             "families.suff_stat_log_density": 2 * TERMS,
                             "engine.logsumexp": H}


def test_exact_beta_route_makes_the_pinned_calls(counted_calls):
    engine.expected_posterior_beta(pr.Beta(7, 1), Fraction(3, 4), Fraction(9, 10), H,
                                   mode="exact")
    assert counted_calls == {"priors.beta_marginal_pmf_exact": TERMS,
                             "families.binomial_pmf_exact": 2 * TERMS}


@pytest.mark.parametrize("family,prior,theta0,theta1", [
    (fam.normal(2.0), pr.StdNormal(), 0.1, 0.4),
    (fam.exponential(), pr.ExpPrior(1.0), 1.0, 2.0),
], ids=["normal", "exponential"])
def test_quadrature_integrand_makes_the_pinned_calls(counted_calls, family, prior, theta0,
                                                     theta1):
    # selfcheck pins two density calls and one marginal call per integrand
    # evaluation of a normal or exponential quadrature item
    engine.expected_posterior_quadrature(family, prior, theta0, theta1, 10)
    assert counted_calls["priors.marginal_suffstat_logpmf"] >= 1
    assert counted_calls == {
        "families.suff_stat_log_density": 2 * counted_calls["priors.marginal_suffstat_logpmf"],
        "priors.marginal_suffstat_logpmf": counted_calls["priors.marginal_suffstat_logpmf"]}
