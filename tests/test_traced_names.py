"""Every name the benchmark traces exists in the package.

``perfbench/spans.py`` wraps functions by module and attribute name, so a
deleted or renamed function stops a traced benchmark run.  This guard loads
that file by path, without changing it, and fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from posterior_dynamics import diagnostics as dg
from posterior_dynamics import engine
from posterior_dynamics.util import ExactValue

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
