"""Every import is used: no module in src/ or tests/ imports a name that it
never reads.  Package ``__init__.py`` files are skipped, because their
imports are the public re-exports.  Importing the package stays light: it
loads neither the audit, CLI, figure and order layers nor the heavy
third-party libraries."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


NOT_ON_IMPORT = (
    "posterior_dynamics.audit", "posterior_dynamics.cli", "posterior_dynamics.figures",
    "posterior_dynamics.orders", "mpmath", "sympy", "numpy", "scipy", "hypothesis",
)


def test_package_import_loads_no_heavy_module():
    """A fresh interpreter that runs ``import posterior_dynamics`` loads
    none of ``NOT_ON_IMPORT``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, posterior_dynamics\n"
        f"print(sorted(m for m in {NOT_ON_IMPORT!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.strip() == "[]"
