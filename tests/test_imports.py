import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BENCH_BEAM, child_env

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flexmove"


def imported_modules(*argv, cwd=None):
    """Names of every module a fresh `python -X importtime *argv` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], capture_output=True,
                          text=True, env=child_env(), timeout=60, check=True, cwd=cwd)
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.fixture(scope="module")
def job_modules(tmp_path_factory):
    """Modules a job imports, run in a directory next to a beam document and a trace.

    Each job runs once: the tests of its properties share the one child process.
    """
    runs = {}

    def modules(argv):
        if argv not in runs:
            workdir = tmp_path_factory.mktemp("job")
            (workdir / "beam.json").write_text(json.dumps(BENCH_BEAM))
            (workdir / "tip.csv").write_text("t,a_tip\n" + "".join(
                f"{i / 1500!r},{i % 7}\n" for i in range(100)))
            runs[argv] = imported_modules(*argv, cwd=workdir)
        assert "flexmove.analysis" in runs[argv]
        return runs[argv]

    return modules


@pytest.mark.parametrize("argv", [("-c", "import flexmove"), ("-m", "flexmove", "--help")])
def test_scipy_stays_off_the_import_path(job_modules, argv):
    modules = job_modules(argv)
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []


MOVE = ("--L", "0.41", "--k", "5.78", "--mass", "0.09")


JOBS = [
    pytest.param(("-c", "import flexmove"), False, id="import"),
    pytest.param(("-m", "flexmove", "--help"), False, id="help"),
    pytest.param(("-m", "flexmove", "sweep", *MOVE, "--n-from", "1.5", "--n-to", "4", "--step",
                  "0.25", "--out", "sweep.csv"), False, id="sweep"),
    pytest.param(("-m", "flexmove", "report", "--beam", "beam.json", "--masses", "0.02,0.09",
                  "--L", "0.41", "--out", "table.csv"), False, id="report"),
    pytest.param(("-m", "flexmove", "plan", *MOVE, "--n", "2", "--out", "setpoints.csv"), False,
                 id="plan"),
    pytest.param(("-m", "flexmove", "plan", "--L", "0.41", "--beam", "beam.json", "--n", "2",
                  "--out", "setpoints.csv"), False, id="plan-beam"),
    pytest.param(("-m", "flexmove", "simulate", *MOVE, "--n", "2"), False, id="simulate"),
    pytest.param(("-m", "flexmove", "simulate", *MOVE, "--n", "2", "--trace-out", "rk4.csv"),
                 False, id="simulate-trace"),
    pytest.param(("-m", "flexmove", "simulate", *MOVE, "--n", "2.5", "--exploratory"), False,
                 id="simulate-exploratory"),
    pytest.param(("-c", "import flexmove; flexmove.integrate(lambda t: 0.0, 5.78, 1.0, 1e-3)"),
                 False, id="integrate"),
    # positive control: the check sees numpy where a job does array work
    pytest.param(("-m", "flexmove", "filter", "--in", "tip.csv", "--out", "filtered.csv"), True,
                 id="filter"),
]


@pytest.mark.parametrize("argv,loads_numpy", JOBS)
def test_numpy_loads_only_for_array_work(job_modules, argv, loads_numpy):
    modules = job_modules(argv)
    numpy_modules = sorted(m for m in modules if m == "numpy" or m.startswith("numpy."))
    assert bool(numpy_modules) == loads_numpy, numpy_modules[:5]


def test_the_filter_job_loads_no_numpy_ma(job_modules):
    # np.median imports numpy.ma on its first call, 11-17 ms of every filter job;
    # TimeSeries takes its median step without it.  The run is the one the numpy
    # test above made, so this starts no child process of its own
    (filter_job,) = [param.values[0] for param in JOBS if param.id == "filter"]
    modules = job_modules(filter_job)
    assert "numpy" in modules and "numpy.ma" not in modules


@pytest.mark.parametrize("argv,loads_numpy", JOBS)
def test_no_job_loads_dataclasses_or_inspect(job_modules, argv, loads_numpy):
    # `import dataclasses` pulls in inspect, ast, dis and tokenize; with the records
    # it decorates, that costs every short job ~25 ms
    modules = job_modules(argv)
    assert "dataclasses" not in modules
    # numpy imports inspect itself (numpy._core.overrides), so only the array job may
    assert "inspect" not in modules or loads_numpy


#: the argv of each job in JOBS, by its id
JOB_ARGV = {param.id: param.values[0] for param in JOBS}


@pytest.mark.parametrize("job", ["sweep", "plan", "plan-beam", "simulate", "report", "filter"])
def test_a_job_reads_its_flags_without_argparse(job_modules, job):
    # argparse, with the gettext and locale it loads, and the parser it builds cost
    # a job ~5 ms; the runs are the ones the tests above made
    modules = job_modules(JOB_ARGV[job])
    assert sorted({"argparse", "gettext", "locale"} & modules) == []


def test_help_still_loads_argparse(job_modules):
    # positive control: help and argument errors are argparse's own
    assert "argparse" in job_modules(JOB_ARGV["help"])


@pytest.mark.parametrize("job,unused", [("sweep", {"json", "numbers"}),
                                        ("plan", {"json", "numbers"}), ("filter", {"json"})])
def test_a_job_loads_no_stdlib_module_it_does_not_use(job_modules, job, unused):
    # json only reads beam documents and prints simulate's report; numbers only
    # checks what is not a plain float, and a filter order
    assert sorted(unused & job_modules(JOB_ARGV[job])) == []


@pytest.mark.parametrize("job", list(JOB_ARGV))
def test_only_the_filter_job_loads_csv(job_modules, job):
    assert ("csv" in job_modules(JOB_ARGV[job])) == (job == "filter")


def test_every_shipped_module_is_on_a_job_path(job_modules):
    # what no job imports is test code and lives in tests/reference.py; the runs are
    # the ones the tests above made, so this starts no child process of its own
    argvs = [param.values[0] for param in JOBS]
    loaded = set().union(*map(job_modules, argvs))
    if any(argv[:2] == ("-m", "flexmove") for argv in argvs):
        loaded.add("flexmove.__main__")  # run as the script, which no import records
    shipped = {"flexmove" if path.stem == "__init__" else f"flexmove.{path.stem}"
               for path in PACKAGE.glob("*.py")}
    assert "flexmove.motion" in shipped
    assert sorted(shipped - loaded) == []


@pytest.mark.parametrize("job", ["plan", "sweep", "report", "simulate"])
def test_no_job_loads_typing(tmp_path, job):
    # the records are collections.namedtuples and plain classes: typing (with re) would
    # cost a job several ms, and so would tempfile, with the random and shutil it
    # loads, for write_csv's temporary file.  The jobs run under -S, since a site hook
    # may load these before flexmove; none of them needs numpy or anything else from
    # site-packages
    (tmp_path / "beam.json").write_text(json.dumps(BENCH_BEAM))
    modules = imported_modules("-S", *JOB_ARGV[job], cwd=tmp_path)
    assert "flexmove.analysis" in modules and "site" not in modules
    assert sorted({"typing", "tempfile", "random", "shutil"} & modules) == []


def fresh_python(code, **env):
    """Standard output words of a fresh `python -c code` with no OPENBLAS_NUM_THREADS
    of its own unless given in env."""
    inherited = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(inherited, **env), timeout=60, check=True)
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_loads_without_a_blas_thread_pool():
    code = "import os, flexmove, numpy; print(len(os.listdir('/proc/self/task')))"
    assert fresh_python(code) == ["1"]


def test_an_explicit_blas_thread_count_wins():
    code = "import os, flexmove, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == ["2"]
