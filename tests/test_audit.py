"""Structural guards on the audit suites: what they run, how many checks
they report and how often the orders suite gates its inputs.  None is a
timing test."""

from collections import Counter

import pytest

from posterior_dynamics import audit, engine, orders, quadrature, specialfn
from posterior_dynamics import families as fam
from posterior_dynamics import priors as pr

# checks per suite, in SUITES order; the benchmark's audit results count them
CHECK_COUNTS = {
    "turan": 13, "bessel": 13, "logconcavity": 7, "orders": 10, "positivity": 16,
    "asymptotics": 10,
}


def test_bessel_suite_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Bessel suite ran a quadrature")

    monkeypatch.setattr(quadrature, "integrate", refuse)
    monkeypatch.setattr(engine, "expected_posterior_quadrature", refuse)
    report = audit.run_suite("bessel", seed=42)
    assert report["pass"]
    names = [c["name"] for c in report["checks"]]
    assert "closed_form_vs_exact_integral" in names
    assert "closed_form_vs_quadrature" not in names


def test_quadrature_guard_is_live(monkeypatch):
    # the patched name is the one the exponential oracle reaches
    monkeypatch.setattr(quadrature, "integrate", lambda *a, **k: pytest.fail("reached"))
    with pytest.raises(pytest.fail.Exception, match="reached"):
        engine.expected_posterior_quadrature(fam.exponential(), pr.ExpPrior(1), 1.0, 1.0, 3)


def test_asymptotics_suite_builds_no_float_uniform_sequence(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the asymptotics suite built a float uniform sequence")

    monkeypatch.setattr(engine, "_uniform_float_logs", refuse)
    monkeypatch.setattr(specialfn, "legendre_ratios", refuse)
    report = audit.run_suite("asymptotics", seed=42)
    assert report["pass"]
    assert len(report["checks"]) == CHECK_COUNTS["asymptotics"]
    # the patched names are the ones the float uniform route reaches
    with pytest.raises(AssertionError, match="float uniform sequence"):
        engine.expected_posterior_uniform(0.5, 0.75, 5, mode="float")


def test_audit_all_check_counts():
    report = audit.run_suite("all", seed=11)
    counts = {s["suite"]: len(s["checks"]) for s in report["suites"]}
    assert counts == CHECK_COUNTS
    assert list(counts) == list(audit.SUITES)
    assert sum(counts.values()) == 69
    assert report["pass"]


@pytest.mark.parametrize("seed", [7, 11, 42])
def test_orders_suite_gates_each_scenario_once(monkeypatch, seed):
    """The scenario loop gates its inputs once per scenario and builds no
    posterior_law, and the reversal search builds none and gates nothing:
    the two laws left are the worked example's, and the other gates are
    theirs and those of the two exact routes of each symmetry check.
    Before the loop read one mass table per scenario it made about 530 gate
    calls and 450 law builds per seed."""
    calls = Counter()
    for module, attr in ((pr, "require_inputs"), (orders, "posterior_law")):
        inner = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *a, inner=inner, attr=attr, **k: calls.update([attr])
                            or inner(*a, **k))
    assert orders.find_lr_reversal(seed) is not None
    assert not calls
    report = audit.suite_orders(seed)
    scenarios = report["checks"][0]["scenarios"]
    assert calls["posterior_law"] == 2
    assert calls["require_inputs"] == 3 * scenarios + 2
