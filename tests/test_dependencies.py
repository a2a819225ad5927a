"""Every third-party module that ``src/ilrkit`` imports is declared in
``pyproject.toml``'s ``dependencies``, so an install brings it along."""

from __future__ import annotations

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules() -> set[str]:
    """The top-level names of the modules that ``src/ilrkit`` imports,
    other than its own."""
    names = set()
    for path in sorted((ROOT / "src" / "ilrkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - {"ilrkit"}


def _normal(name: str) -> str:
    """A distribution name as PEP 503 compares them."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_third_party_imports_are_declared():
    requirements = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {_normal(re.match(r"[A-Za-z0-9._-]+", requirement).group())
                for requirement in requirements["project"]["dependencies"]}
    third_party = _imported_modules() - set(sys.stdlib_module_names)
    assert {"numpy", "orjson"} <= third_party
    distributions = packages_distributions()
    undeclared = sorted(module for module in third_party
                        if not declared & {_normal(d) for d in distributions.get(module, [module])})
    assert undeclared == []
