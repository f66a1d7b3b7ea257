"""The bench tracer's hooks still name functions of the package, and the
program still calls each of them."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
# The sources whose calls a traced run goes through.
CALLERS = [*sorted((ROOT / "src" / "exotic4").glob("*.py")), ROOT / "perfbench" / "child.py"]
# Wrapped names nothing in the program calls.  Tietze works on letter strings,
# so only tests call Word.substitute; its span reads 0 until its wrap goes.
UNCALLED = ["Word.substitute"]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    # perfbench/spans.py replaces each (module, attribute path) by a timing
    # wrapper; a rename in the package would break traced runs only.
    wraps = load_spans().WRAPS
    assert wraps
    missing = []
    for module, path, _group in wraps:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


def called_names(source: str) -> set[str]:
    """The names called in `source`, as `name(...)` or `x.name(...)`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_wrapped_name_is_called():
    # A wrapped function that nothing calls reads 0 in every traced run.
    called = set().union(*(called_names(p.read_text(encoding="utf-8")) for p in CALLERS))
    uncalled = sorted(
        {path for _module, path, _group in load_spans().WRAPS
         if path.rpartition(".")[2] not in called}
    )
    assert uncalled == UNCALLED


def test_scan_finds_called_names():
    source = "import a\nf(1)\na.b.g()\nh = a.k\nlambda: m()\n"
    assert called_names(source) == {"f", "g", "m"}
