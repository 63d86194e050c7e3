import math
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import strategies as st

import flexmove
from flexmove import BeamSpec, MotionSpec

# When a @given test fails, hypothesis's pytest plugin imports this module to
# write a patch file.  It imports libcst, whose import raises a
# DeprecationWarning; under filterwarnings = ["error"] that aborts the session
# with INTERNALERROR, before the falsifying example is printed.  Imported here
# once with the warning ignored, the module is already loaded when the plugin
# asks for it, and no warning filter changes.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a private module; a hypothesis without it does not patch
        pass

# Bench configuration used throughout: 0.41 m move of a 0.09 kg tip mass on a
# steel strip whose natural frequency is 5.78 rad/s, completed in two periods.
BENCH = dict(L=0.41, k=5.78, n=2.0, m=0.09)

BENCH_BEAM = dict(l=0.305, b=0.013, h=0.5e-3, E=2.1e11, m_tip=0.09)

TWO_PI = 2.0 * math.pi

_L, _K, _N = st.floats(0.1, 2.0), st.floats(1.0, 50.0), st.integers(2, 10)

#: (L, k, n) of a strict move in C2's domain
spec_params = st.tuples(_L, _K, _N)

#: (L, k, n, m): the same with a mass
spec_params_with_mass = st.tuples(_L, _K, _N, st.floats(0.01, 1.0))


def child_env() -> dict:
    """The environment for a child process that imports this flexmove."""
    src = str(Path(flexmove.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture
def bench_spec() -> MotionSpec:
    return MotionSpec(**BENCH)


@pytest.fixture
def bench_beam() -> BeamSpec:
    return BeamSpec(**BENCH_BEAM)


ACCEPTANCE_FILE = "test_acceptance.py"

CRITERIA = {
    "test_c1": "C1 quiescence of the bench move",
    "test_c2": "C2 integrator agrees with closed form",
    "test_c3": "C3 beam chain reproduces the bench frequency",
    "test_c4": "C4 boundary and moment conditions",
    "test_c5": "C5 mistimed moves leave residuals",
    "test_c6": "C6 action is stationary at the motion law",
    "test_c7": "C7 zero-phase filter properties",
    "test_c8": "C8 energy figure: positive, stable, scaling law",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if ACCEPTANCE_FILE not in report.nodeid:
                continue
            name = report.nodeid.split("::")[-1]
            key = name.split("_", 2)
            key = "_".join(key[:2])
            if key in CRITERIA:
                # A criterion may span several test functions; any failure flips it.
                results[key] = "FAIL" if results.get(key) == "FAIL" or outcome != "passed" else "PASS"
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for key in sorted(results):
            terminalreporter.write_line(f"{CRITERIA[key]}: {results[key]}")
