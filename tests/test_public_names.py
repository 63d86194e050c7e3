"""The package's public names are the ones its callers read, and no more."""

import ast
import importlib
import importlib.util
from pathlib import Path

import flexmove
from flexmove import MotionSpec, OscillatorTrace, ResidualReport, timeseries
from test_readme import BLOCKS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

PUBLIC = [
    "AmplitudeTable", "BeamSpec", "Biquad", "FilterDesign", "MotionSpec", "OscillatorTrace",
    "ResidualReport", "SetpointTable", "SweepResult", "SweepRow", "TimeSeries",
    "amplitude_table", "design_butterworth", "filtfilt", "final_relative_state", "integrate",
    "load_beam", "load_trace", "relative_motion", "residual_report", "save_trace",
    "simulate_relative", "suppression_ratio", "sweep_n", "tip_trace", "write_relative_trace",
]

#: names that only the tests and the benchmark's traced replay read: they live on
#: their modules, not in the package namespace
MODULE_ONLY = {"action_value": "oscillator", "energy_figure": "analysis",
               "simpson_grid": "motion", "timing_residual": "motion"}

#: (module, name) pairs that the benchmark's traced replay wraps by attribute; they
#: stay on their modules although no job calls the first two
BENCH_WRAPPED = [("oscillator", "action_value"), ("analysis", "energy_figure"),
                 ("oscillator", "simpson_grid"), ("analysis", "simpson_grid"),
                 ("analysis", "final_relative_state")]


def imported_from_flexmove(source: str) -> set[str]:
    """Names that `from flexmove import ...` statements in the source import."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "flexmove" and not node.level
            for alias in node.names}


def test_the_public_surface_is_what_callers_read():
    assert len(PUBLIC) == 26
    assert sorted(flexmove.__all__) == PUBLIC
    sources = [source for _, source in BLOCKS] + [
        path.read_text(encoding="utf-8") for path in sorted(SCRIPTS.glob("*.py"))]
    imported = set().union(*map(imported_from_flexmove, sources))
    assert "MotionSpec" in imported  # the reader finds the examples' imports
    assert sorted(imported - set(PUBLIC)) == []
    for name, module in MODULE_ONLY.items():
        assert not hasattr(flexmove, name), name
        assert callable(getattr(importlib.import_module(f"flexmove.{module}"), name)), name


def test_no_forwarder_repeats_a_reachable_value():
    # report.spec.action, trace.x[-1] and TimeSeries(t, values).rate say the same
    assert not hasattr(ResidualReport, "action")
    assert not hasattr(OscillatorTrace, "final_state")
    assert not hasattr(timeseries, "uniform_rate")


def test_no_route_ships_that_only_the_tests_call():
    # the Simpson moments, the stationarity residual, the cascade gain and the
    # array laws live in tests/reference.py
    assert importlib.util.find_spec("flexmove.oracles") is None
    for name in ("position", "velocity", "acceleration"):
        assert not hasattr(MotionSpec, name), name
    for module, name in BENCH_WRAPPED:
        assert callable(getattr(importlib.import_module(f"flexmove.{module}"), name))
