"""Each rule has one owner: a refusal's text is written in one module of
src/, only ``families`` defines a domain error, and only ``scenario`` reads
or writes the scenario JSON, so two copies of a rule cannot drift apart.
No module decides a comparison on an assumed tolerance (``math.isclose``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posterior_dynamics"
MODULES = sorted(SRC.glob("*.py"))

MESSAGES = (
    "unsupported conjugacy",
    "impossible observation under prior support: u_",
    "must be finite and > 0",
    "cannot parse rational",
)


@pytest.mark.parametrize("message", MESSAGES)
def test_each_refusal_text_is_written_in_one_module(message):
    owners = [path.name for path in MODULES if message in path.read_text(encoding="utf-8")]
    assert len(owners) == 1, owners


def test_only_families_defines_a_domain_error():
    owners = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name.endswith("DomainError")
    }
    assert owners == {"families.py"}


def test_only_scenario_defines_json_readers_and_writers():
    owners = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name.endswith(("_from_json", "_to_json"))
    }
    assert owners == {"scenario.py"}


def test_no_module_decides_on_an_assumed_tolerance():
    """A comparison is certified or escalated to exact arithmetic, never
    decided on an assumed tolerance, so nothing in src/ names math.isclose."""
    callers = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "isclose" in (getattr(node, "attr", None), getattr(node, "id", None))
    ]
    assert callers == []
