"""The README's Python examples run as written, so the documented API cannot drift."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")

#: (first line of the code in README.md, code) of each ```python block
BLOCKS = [(TEXT.count("\n", 0, match.start()) + 2, match.group(1))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)]


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(tmp_path, monkeypatch, line, source):
    # each block runs on its own, in an empty directory for the files it writes;
    # a traceback points at the README line
    monkeypatch.chdir(tmp_path)
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})
