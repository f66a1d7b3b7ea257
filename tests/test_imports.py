"""Every name a module of the package or of its tests imports is used by that
module, every parameter of a package function is read by its body, every
function, method and class the package defines is referenced from the package
or the benchmark harness, and every field of a package dataclass is read
there as an attribute.  Importing the package, its report module and its CLI
loads no worker-pool machinery and no traceback printer."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "exotic4"
PERFBENCH = TESTS.parent / "perfbench"
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


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body never reads (nested
    functions included).  `self`, `cls` and the parameters of dunder methods
    do not count."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
        elif isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        else:
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [
            f"{name}: {p.arg} (line {node.lineno})" for p in params
            if p and p.arg not in ("self", "cls") and p.arg not in read
        ]
    return unused


@pytest.mark.parametrize("module", [m for m in MODULES if not m.startswith("tests/")])
def test_no_unused_parameters(module):
    assert unused_parameters(MODULES[module].read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_parameter():
    source = (
        "class A:\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "    def f(self, x, *args, y=1, **kw):\n"
        "        def g():\n"
        "            return x + len(kw)\n"
        "        y = 2\n"
        "        return g\n"
        "key = lambda w, n: w\n"
    )
    assert unused_parameters(source) == [
        "f: args (line 4)", "f: y (line 4)", "lambda: n (line 9)",
    ]


def unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """Functions, methods and classes (dunders excepted) defined in the
    `package` sources, by module name, that no package or `others` source
    references.  A reference is a name, an attribute, an imported name, or a
    string constant that is a dotted path of identifiers naming it, as in
    `"Word.substitute"`.  A definition itself is not a reference."""
    referenced: set[str] = set()
    for source in [*package.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    referenced.update(parts)
    return [
        f"{module}: {node.name} (line {node.lineno})"
        for module, source in package.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]


# Definitions the pipeline does not call.  build_Zk builds the intermediate
# model Z_k, whose invariants only the acceptance suite (criterion 5) checks.
RUN_ONLY_BY_TESTS = ["manifolds.py: build_Zk"]


def test_every_package_definition_is_referenced():
    """Tests do not count as references: what only a test calls is dead
    weight, unless RUN_ONLY_BY_TESTS names it."""
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    unreferenced = unreferenced_definitions(package, others)
    assert [entry.partition(" (line")[0] for entry in unreferenced] == RUN_ONLY_BY_TESTS


def test_scan_finds_an_unreferenced_definition():
    package = {
        "a.py": (
            "class A:\n"
            "    def __repr__(self):\n"
            "        return 'A'\n"
            "    def used(self):\n"
            "        def helper():\n"
            "            return 1\n"
            "        return helper()\n"
            "    def wrapped(self):\n"
            "        pass\n"
            "    def unused(self):\n"
            "        pass\n"
            "def orphan():\n"
            "    return A().used()\n"
        ),
    }
    others = ["from a import A\nWRAPS = [('a', 'A.wrapped', 'group')]\nprint('not unused')\n"]
    assert unreferenced_definitions(package, others) == [
        "a.py: orphan (line 12)", "a.py: unused (line 10)",
    ]


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def unread_fields(package: dict[str, str], others: list[str]) -> list[str]:
    """Fields of the dataclasses defined in the `package` sources, by module
    name, that no package or `others` source reads as an attribute."""
    read = {
        node.attr
        for source in [*package.values(), *others]
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{module}: {cls.name}.{stmt.target.id} (line {stmt.lineno})"
        for module, source in package.items()
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    ]


# Fields the pipeline does not read.  U and V make the Smith normal form a
# checkable certificate D = U*M*V, which the acceptance suite (criterion 3)
# checks.
UNREAD_BY_THE_PIPELINE = ["intlinalg.py: SmithNormalForm.u", "intlinalg.py: SmithNormalForm.v"]


def test_every_dataclass_field_is_read():
    """Tests do not count as readers: a field only a test reads is a fact
    nothing derives from, unless UNREAD_BY_THE_PIPELINE names it."""
    package = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    others = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    unread = unread_fields(package, others)
    assert [entry.partition(" (line")[0] for entry in unread] == UNREAD_BY_THE_PIPELINE


def test_scan_finds_an_unread_field():
    package = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class A:\n"
            "    kept: int\n"
            "    written: int\n"
            "    unread: int = 0\n"
            "@dataclass\n"
            "class B:\n"
            "    other: int\n"
            "class Plain:\n"
            "    ignored: int\n"
            "def f(a, b):\n"
            "    b.written = a.kept\n"
        ),
    }
    others = ["def g(b):\n    return b.other\n"]
    assert unread_fields(package, others) == [
        "a.py: A.written (line 5)", "a.py: A.unread (line 6)",
    ]


# Modules only a run that starts worker processes needs.
POOL_MODULES = ["multiprocessing", "concurrent.futures.process"]


def loaded_by_importing_the_package(modules: list[str]) -> list[str]:
    """Those of `modules` that a fresh interpreter has loaded after it
    imports the package, the report module and the CLI."""
    probe = (
        "import sys\n"
        "import exotic4, exotic4.report, exotic4.cli\n"
        f"print([m for m in {modules!r} if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    return ast.literal_eval(out.strip())


def test_importing_the_package_loads_no_worker_pool():
    """Single-process runs do not pay for the pool."""
    assert loaded_by_importing_the_package(POOL_MODULES) == []


def test_importing_the_package_loads_no_traceback_printer():
    """`traceback` (which loads `textwrap`) is imported only by the branches
    that print a failure, so a run that fails nothing does not pay for it."""
    assert loaded_by_importing_the_package(["traceback"]) == []
