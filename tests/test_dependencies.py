"""Declared dependencies are true.

Every third-party module that `src/bsclab` imports is listed in
`pyproject.toml`'s `dependencies`, and scipy is imported in one place only:
inside `verify.chi_square_gof`, so that only a chi-square p-value loads it.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def library_imports():
    """(file name, tree, import node, top-level module) for every absolute
    import in the library's modules."""
    for path in sorted((ROOT / "src" / "bsclab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, tree, node, alias.name.partition(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, tree, node, node.module.partition(".")[0]


def declared() -> set[str]:
    """The distribution names in `dependencies`, which here are also the
    names the library imports them by."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in project["dependencies"]}


def test_third_party_imports_are_declared():
    third_party = {
        module
        for _, _, _, module in library_imports()
        if module not in sys.stdlib_module_names and module != "bsclab"
    }
    assert "numpy" in third_party
    assert third_party <= declared(), sorted(third_party - declared())


def test_scipy_is_imported_only_inside_chi_square_gof():
    sites = [
        (name, [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and node in ast.walk(f)])
        for name, tree, node, module in library_imports()
        if module == "scipy"
    ]
    assert sites == [("verify.py", ["chi_square_gof"])]
