"""The README's examples run as written, so the documented API and CLI cannot drift."""

import json
import re
import shlex
from pathlib import Path

import pytest

from conftest import BENCH, BENCH_BEAM
from flexmove import MotionSpec, save_trace, tip_trace
from flexmove.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")

#: (first line of the code in README.md, code) of each ```python block
BLOCKS = [(TEXT.count("\n", 0, match.start()) + 2, match.group(1))
          for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)]

#: every `flexmove ...` line of the plain ``` blocks (the CLI and experiment examples)
COMMANDS = [line for match in re.finditer(r"^```\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
            for line in match.group(1).splitlines() if line.startswith("flexmove ")]


#: the arguments of README's `printf '%s\n' ... > move.args` line, one a line of the file
ARGS_FILE = next(shlex.split(line)[2:-2] for line in TEXT.splitlines()
                 if line.startswith("printf ") and line.endswith(" > move.args"))


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(tmp_path, monkeypatch, line, source):
    # each block runs on its own, in an empty directory for the files it writes;
    # a traceback points at the README line
    monkeypatch.chdir(tmp_path)
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})


def test_the_readme_has_cli_examples():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_command_runs(tmp_path, monkeypatch, capsys, command):
    # the files the examples read: the bench beam, the bench move's tip trace and
    # the argument file that README writes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "beam.json").write_text(json.dumps(BENCH_BEAM))
    (tmp_path / "move.args").write_text("".join(arg + "\n" for arg in ARGS_FILE))
    save_trace("tip.csv", tip_trace(MotionSpec(**BENCH), 1500.0))
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
