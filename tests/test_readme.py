"""The Python blocks of README.md run as written."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_its_python_blocks():
    # The library quick start and the GR(1) example.
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    # Each block stands alone, in a namespace of its own.
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
