"""Every module the package imports is the standard library's, its own, or a declared dependency.

Every private module-level name of the package is used in the package, so
dead helpers do not linger.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import meandro

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from Python 3.11")

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(meandro.__file__).parent.glob("*.py"))


def _declared() -> set[str]:
    """The distribution names of ``[project] dependencies``, lowercased."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower() for requirement in requirements}


def _imported(path: Path) -> set[str]:
    """The top-level modules that ``path`` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library_itself_and_its_dependencies():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"meandro"} | _declared()
    strays = {path.name: sorted(_imported(path) - allowed) for path in SOURCES}
    assert {name: mods for name, mods in strays.items() if mods} == {}


def test_jsonschema_is_no_run_time_dependency():
    assert "jsonschema" not in _declared()


#: Private names that only the tests use: the schema tests' acceptance check.
_TEST_HELPERS = {"_accepts"}


def _defined(stmt: ast.stmt) -> set[str]:
    """The names that a top-level statement defines: a function, a class or constants."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {target.id for target in stmt.targets if isinstance(target, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _read(node: ast.AST) -> set[str]:
    """Every name that the code under node reads: as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_name_is_used_elsewhere_in_the_package():
    private, used = set(), set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = _defined(stmt)
            private |= {name for name in names if name.startswith("_") and not name.startswith("__")}
            used |= _read(stmt) - names
    assert sorted(private - used - _TEST_HELPERS) == []
