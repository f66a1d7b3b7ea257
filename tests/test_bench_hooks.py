"""The bench tracer's hooks still name functions of the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
