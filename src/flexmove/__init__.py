"""Motion laws that carry flexible payloads to rest without residual oscillation.

A move of displacement L is driven by the skew-symmetric acceleration
u(t) = L*p**2/(2*pi) * sin(p*t), where the forcing rate p divides the
payload's natural frequency k by an integer number of oscillation periods
n = t1/t_c.  Completing the move in a whole number of natural periods leaves
the payload with zero relative displacement and velocity: absolute quiescence
at the final point.  The package plans such moves, simulates the induced
relative oscillation (closed form and RK4), post-processes accelerometer-style
traces with zero-phase Butterworth filtering, and tabulates how mistimed moves
compare.
"""

import os
import sys

# No flexmove routine calls BLAS, so OpenBLAS's worker threads would only spin
# for a while after numpy loads, taking a second core from a short CLI job.
# The pool size is read when numpy loads; an explicit setting wins, and a
# process that loaded numpy first keeps its pool and its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (AmplitudeTable, SweepResult, SweepRow, amplitude_table,
                       energy_figure, suppression_ratio, sweep_n)
from .beam import BeamSpec, load_beam
from .filters import Biquad, FilterDesign, design_butterworth, filtfilt, magnitude_response
from .motion import MomentIntegrals, MotionSpec, SetpointTable, simpson_grid, timing_residual
from .oscillator import (OscillatorTrace, ResidualReport, action_value,
                         euler_lagrange_residual, final_relative_state, integrate,
                         relative_motion, residual_report, simulate_relative,
                         tip_trace, write_relative_trace)
from .timeseries import TimeSeries, load_trace, save_trace

__all__ = [
    "AmplitudeTable", "BeamSpec", "Biquad", "FilterDesign", "MomentIntegrals",
    "MotionSpec", "OscillatorTrace", "ResidualReport", "SetpointTable",
    "SweepResult", "SweepRow", "TimeSeries",
    "action_value", "amplitude_table", "design_butterworth",
    "energy_figure", "euler_lagrange_residual", "filtfilt", "final_relative_state",
    "integrate", "load_beam", "load_trace", "magnitude_response",
    "relative_motion", "residual_report",
    "save_trace", "simpson_grid", "simulate_relative",
    "suppression_ratio", "sweep_n", "timing_residual",
    "tip_trace", "write_relative_trace",
]

__version__ = "0.1.0"
