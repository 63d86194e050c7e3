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
                       suppression_ratio, sweep_n)
from .beam import BeamSpec, load_beam
from .filters import Biquad, FilterDesign, design_butterworth, filtfilt
from .motion import MotionSpec, SetpointTable
from .oscillator import (OscillatorTrace, ResidualReport, final_relative_state, integrate,
                         relative_motion, residual_report, simulate_relative, tip_trace,
                         write_relative_trace)
from .timeseries import TimeSeries, load_trace, save_trace

__all__ = [
    "AmplitudeTable", "BeamSpec", "Biquad", "FilterDesign", "MotionSpec",
    "OscillatorTrace", "ResidualReport", "SetpointTable",
    "SweepResult", "SweepRow", "TimeSeries",
    "amplitude_table", "design_butterworth", "filtfilt",
    "final_relative_state", "integrate", "load_beam", "load_trace",
    "relative_motion", "residual_report", "save_trace",
    "simulate_relative", "suppression_ratio", "sweep_n",
    "tip_trace", "write_relative_trace",
]

__version__ = "0.1.0"
