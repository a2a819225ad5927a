"""Every public function, class and method of ``src/ilrkit`` is used.

A definition counts as used when its name appears as a ``Name``, an
``Attribute`` or an import alias in ``src/``, ``perfbench/`` or
``benchmarks/``, outside its own definition. Docstrings and string literals
are not uses. The ``cmd_*`` functions are skipped: ``cli.main`` looks them
up by string. A definition that only the test suite or a protocol calls
sits in ``ALLOWED``, with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ilrkit"
USE_DIRS = ("src", "perfbench", "benchmarks")

ALLOWED = {
    "match_by_similarity": "the scoring primitive of acceptance test_01",
    "matching_loss_and_grads": "the per-task adapter loss of acceptance test_03",
    "from_records": "builds the test suite's fixture sets",
    "generate_state": "numpy's ISeedSequence protocol calls it from PCG64",
}


def _definitions() -> list[tuple[str, Path, str, int, int]]:
    """(module.qualified name, file, name, first line, last line) of each
    public top-level function and class, and each public method of a
    top-level class."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith(("_", "cmd_")):
                found.append((f"{path.stem}.{node.name}", path, node.name,
                              node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{path.stem}.{node.name}.{item.name}", path, item.name,
                     item.lineno, item.end_lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return found


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Every (file, line) at which each name is used."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for directory in USE_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rsplit(".", 1)[-1]
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


DEFINITIONS = _definitions()
USES = _uses()


def _used_outside(path: Path, name: str, first: int, last: int) -> bool:
    return any(
        not (where == path and first <= line <= last) for where, line in USES.get(name, [])
    )


def test_allowlist_holds_only_unused_definitions():
    allowed = [d for d in DEFINITIONS if d[2] in ALLOWED]
    assert sorted(name for _, _, name, _, _ in allowed) == sorted(ALLOWED)
    assert not [qualname for qualname, *where in allowed if _used_outside(*where)]


@pytest.mark.parametrize("path,name,first,last", [d[1:] for d in DEFINITIONS],
                         ids=[d[0] for d in DEFINITIONS])
def test_definition_is_used(path, name, first, last):
    assert _used_outside(path, name, first, last) or name in ALLOWED, \
        f"{path.name}:{first}: {name} is used nowhere"
