"""README.md's python examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path):
    # Each block runs in a fresh interpreter on the source tree, as a reader
    # would run it after `pip install -e .`, and prints what the comments on
    # its `print(...)` lines say.
    block = BLOCKS[index]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    expected = re.findall(r"^print\(.*?\s#\s(.*)$", block, flags=re.MULTILINE)
    assert proc.stdout.splitlines() == expected
