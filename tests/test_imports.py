import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmove

SRC = str(Path(flexmove.__file__).resolve().parents[1])


def imported_modules(*argv):
    """Names of every module a fresh `python -X importtime *argv` imports."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
                          check=True)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [("-c", "import flexmove"), ("-m", "flexmove", "--help")])
def test_scipy_stays_off_the_import_path(argv):
    modules = imported_modules(*argv)
    assert "flexmove.analysis" in modules
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []


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
    code = "import os, flexmove; print(len(os.listdir('/proc/self/task')))"
    assert fresh_python(code) == ["1"]


def test_an_explicit_blas_thread_count_wins():
    code = "import os, flexmove; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2"]
