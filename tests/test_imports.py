"""Every name a module of the package or of its tests imports is used by that
module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "exotic4"
# Package modules by file name, test modules as tests/<name>.
MODULES = {
    **{p.name: p for p in sorted(PACKAGE.glob("*.py"))},
    **{f"tests/{p.name}": p for p in sorted(TESTS.glob("*.py"))},
}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read.  `from __future__`
    imports and the names listed in `__all__` (re-exports) do not count."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as load\n"
        "__all__ = ['dumps']\n"
        "x: int = load('1')\n"
    )
    assert unused_imports(source) == ["os (line 2)"]
