"""Every module the package imports is the standard library's, its own, or a declared dependency."""

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
