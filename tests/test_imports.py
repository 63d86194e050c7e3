import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmove
from conftest import BENCH_BEAM

SRC = str(Path(flexmove.__file__).resolve().parents[1])


def imported_modules(*argv, cwd=None):
    """Names of every module a fresh `python -X importtime *argv` imports."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
                          check=True, cwd=cwd)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [("-c", "import flexmove"), ("-m", "flexmove", "--help")])
def test_scipy_stays_off_the_import_path(argv):
    modules = imported_modules(*argv)
    assert "flexmove.analysis" in modules
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []


MOVE = ("--L", "0.41", "--k", "5.78", "--mass", "0.09")


@pytest.mark.parametrize("argv,loads_numpy", [
    (("-c", "import flexmove"), False),
    (("-m", "flexmove", "--help"), False),
    (("-m", "flexmove", "sweep", *MOVE, "--n-from", "1.5", "--n-to", "4", "--step", "0.25",
      "--out", "sweep.csv"), False),
    (("-m", "flexmove", "report", "--beam", "beam.json", "--masses", "0.02,0.09",
      "--L", "0.41", "--out", "table.csv"), False),
    (("-m", "flexmove", "plan", *MOVE, "--n", "2", "--out", "setpoints.csv"), False),
    (("-m", "flexmove", "plan", "--L", "0.41", "--beam", "beam.json", "--n", "2",
      "--out", "setpoints.csv"), False),
    (("-m", "flexmove", "simulate", *MOVE, "--n", "2"), False),
    (("-m", "flexmove", "simulate", *MOVE, "--n", "2", "--trace-out", "rk4.csv"), False),
    (("-m", "flexmove", "simulate", *MOVE, "--n", "2.5", "--exploratory"), False),
    # positive control: the check sees numpy where a job does array work
    (("-m", "flexmove", "filter", "--in", "tip.csv", "--out", "filtered.csv"), True),
], ids=["import", "help", "sweep", "report", "plan", "plan-beam", "simulate",
        "simulate-trace", "simulate-exploratory", "filter"])
def test_numpy_loads_only_for_array_work(tmp_path, argv, loads_numpy):
    (tmp_path / "beam.json").write_text(json.dumps(BENCH_BEAM))
    (tmp_path / "tip.csv").write_text("t,a_tip\n" + "".join(f"{i / 1500!r},{i % 7}\n"
                                                            for i in range(100)))
    modules = imported_modules(*argv, cwd=tmp_path)
    assert "flexmove.analysis" in modules
    numpy_modules = sorted(m for m in modules if m == "numpy" or m.startswith("numpy."))
    assert bool(numpy_modules) == loads_numpy, numpy_modules[:5]


def fresh_python(code, **env):
    """Standard output words of a fresh `python -c code` with no OPENBLAS_NUM_THREADS
    of its own unless given in env."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(inherited, PYTHONPATH=path, **env), timeout=60, check=True)
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_loads_without_a_blas_thread_pool():
    code = "import os, flexmove, numpy; print(len(os.listdir('/proc/self/task')))"
    assert fresh_python(code) == ["1"]


def test_an_explicit_blas_thread_count_wins():
    code = "import os, flexmove, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2"]
