"""Each rule has one owner: a refusal's text is written in one module of
src/, only ``families`` defines a domain error, and only ``scenario`` reads
or writes the scenario JSON, so two copies of a rule cannot drift apart.
No module decides a comparison on an assumed tolerance (``math.isclose``),
only ``families.float_of`` turns an exact number past the float range
into the float a route reads, and only ``families`` takes the log of a
Bhattacharyya affinity or reads 1 - theta as a float."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "posterior_dynamics"
MODULES = sorted(SRC.glob("*.py"))

MESSAGES = (
    "unsupported conjugacy",
    "impossible observation under prior support: u_",
    "must be finite and > 0",
    "cannot parse rational",
    "is past the float range",
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree: ast.Module) -> list[str]:
    """``X._name`` where X names a module of the package that the module
    imported, and ``from .m import _name``; dunders are public."""
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == SRC.name):
            for alias in node.names:
                if node.module in (None, SRC.name):
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(SRC.name + ".") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_module_reads_another_modules_private_names():
    """A leading underscore keeps a name to its module, so the module that
    defines a rule is the one that decides it."""
    reads = {
        path.name: found
        for path in MODULES
        if (found := _private_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert reads == {}


def test_the_private_read_guard_sees_both_forms():
    tree = ast.parse("from . import orders as o\nfrom .util import _x, y, __all__\n"
                     "import posterior_dynamics.priors as pr\no._lr_holds(o.__doc__)\n"
                     "pr._positive_float\nself._cache\n")
    assert sorted(_private_reads(tree)) == ["o._lr_holds", "pr._positive_float", "util._x"]


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node else set()


def test_one_module_reads_a_number_past_the_float_range():
    """An ``except`` naming OverflowError sits in ``families`` (the one
    exact-to-float rule), ``util`` (the exact values' own floats) and ``cli``
    (the exit code); every other module reads a number through
    ``families.float_of``."""
    owners = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and "OverflowError" in _names(node.type)
    }
    assert owners == {"families.py", "util.py", "cli.py"}


# -x * x, -(x * x) or -x ** 2 as ``ast.unparse`` writes it, for any one expression x
NEGATED_SQUARE = re.compile(r"-\(?(?P<x>.+) \* (?P=x)\)?|-\(?.+ \*\* 2\)?")


def _log1p_of_negated_squares(tree: ast.Module) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args
        and "log1p" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and NEGATED_SQUARE.fullmatch(ast.unparse(node.args[0]))
    ]


def test_only_families_takes_the_log_of_an_affinity():
    """log w = log1p(-d^2) near the diagonal is written once, in
    ``families.log_bhattacharyya_reduction``; every route and the growth law
    read it from there."""
    owners = {
        path.name
        for path in MODULES
        if _log1p_of_negated_squares(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert owners == {"families.py"}


def test_only_families_reads_one_minus_theta_as_a_float():
    """1 - theta is read once, by ``families.complement``, as the float of the
    exact 1 - theta, so a rational theta near 1 keeps its digits on every
    path that reads it."""
    owners = {
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and node.args
        and "float_of" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        and re.fullmatch(r"1 - .+", ast.unparse(node.args[0]))
    }
    assert owners == {"families.py"}


def test_the_affinity_guard_sees_each_form():
    tree = ast.parse("log1p(-d * d)\nmath.log1p(-(gap * gap))\nlog1p(-x ** 2)\n"
                     "log1p(-a * b)\nlog1p(x * x)\nmath.log(-d * d)\n")
    assert _log1p_of_negated_squares(tree) == [1, 2, 3]
