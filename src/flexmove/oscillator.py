"""Relative motion of the payload while the carrier executes a motion law.

In the carrier frame the payload is an undamped oscillator driven by the
negative of the carrier acceleration:

    x_r'' + k**2 * x_r = -u(t),    x_r(0) = 0,  x_r'(0) = 0.

Both routes to the solution live here: the closed form, and a fixed-step
classical RK4 integrator that serves as an independent numerical check.  The
end-of-move state condenses into a ResidualReport whose phasor amplitude
sqrt(x**2 + (v/k)**2) is the size of the oscillation left behind.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import namedtuple
from itertools import islice

from ._numpy import np
from ._record import Record
from .beam import _real_float, positive_finite
from .motion import (DEFAULT_QUAD_INTERVALS, TWO_PI, MotionSpec, check_grid_size, simpson,
                     simpson_grid, timing_residual)
from .timeseries import TimeSeries, write_csv

#: default number of RK4 steps across one move
DEFAULT_RK4_STEPS = 20_000

#: coarsest admissible RK4 step, as a fraction of the oscillation period
MIN_STEPS_PER_PERIOD = 50

#: residual amplitudes below this fraction of the displacement count as quiescent
QUIESCENCE_TOL_FACTOR = 1e-6


def _times(spec: MotionSpec, t) -> np.ndarray:
    arr, slack = np.asarray(t, dtype=float), 1e-12 * spec.t1
    if np.any(arr < -slack) or np.any(arr > spec.t1 + slack):
        raise ValueError(f"time outside the motion interval [0, {spec.t1:.12g}] s")
    return arr


def _like(t, values) -> float | np.ndarray:
    """Return a scalar for scalar input, an array otherwise."""
    return float(values) if np.ndim(t) == 0 else np.asarray(values)


def relative_motion(spec: MotionSpec, t):
    """Closed-form relative displacement, velocity and acceleration at time t.

    All three share the gain L / (2*pi*(n - 1)*(n + 1)) and the differences
    sin(k*t) - sin(p*t) or cos(k*t) - cos(p*t).  Written as products with
    sin((k - p)*t/2), where k - p = p*(n - 1), the factor n - 1 cancels against
    the gain's in closed form instead of in rounding as n approaches 1.
    """
    arr = _times(spec, t)
    k, p, n = spec.k, spec.p, spec.n
    scale = spec.L / (TWO_PI * (n + 1.0))
    half_sum = 0.5 * (k + p) * arr
    beat = np.sin(0.5 * p * (n - 1.0) * arr) / (n - 1.0)  # tends to p*t/2 as n -> 1
    cross = 2.0 * np.cos(half_sum) * beat  # (sin(k*t) - sin(p*t)) / (n - 1)
    x = scale / n * (cross - np.sin(p * arr))
    v = -2.0 * scale * p * np.sin(half_sum) * beat
    a = -scale * p * p * (cross + np.sin(k * arr))
    return _like(t, x), _like(t, v), _like(t, a)


def final_relative_state(spec: MotionSpec) -> tuple[float, float]:
    """Relative displacement and velocity at t1, via angle-reduced evaluation.

    k*t1 = 2*pi*n and p*t1 = 2*pi, so the endpoint needs only the reduced
    residuals of the timing equations; integer n gives exact zeros.  The gain
    L*p**2 / (2*pi*(k**2 - p**2)) is formed as L / (2*pi*(n - 1)*(n + 1)), which
    keeps the digits that k**2 - p**2 cancels as n approaches 1 from above.
    """
    cos_term, sin_term = timing_residual(spec.n)
    gain = spec.L / (TWO_PI * (spec.n - 1.0) * (spec.n + 1.0))
    return gain * (spec.p / spec.k) * sin_term, gain * spec.p * cos_term


class OscillatorTrace(Record):
    """Oscillator states on a uniform time grid, in ``array('d')``; ``a`` as integrate forms it."""

    _fields = ("t", "x", "v", "a")
    __eq__, __hash__ = object.__eq__, object.__hash__  # holds arrays: equal only to itself

    def __init__(self, t: array, x: array, v: array, a: array) -> None:
        self._set(t=t, x=x, v=v, a=a)

    def __len__(self) -> int:
        return len(self.t)


def integrate(forcing, k: float, t_end: float, step: float,
              initial_state: tuple[float, float] = (0.0, 0.0)) -> OscillatorTrace:
    """Fixed-step classical RK4 trajectory of the driven oscillator.

    The requested step is shrunk, if needed, so that a whole number of steps
    lands exactly on t_end.  Steps coarser than a fiftieth of the oscillation
    period are rejected.  ``forcing`` maps one time to one forcing value; it is
    called on the Python-float grid nodes and step midpoints in time order, and
    nothing holds the forcing of a whole run.  A run whose state leaves the
    float range (a non-finite initial state or forcing, or k*k overflowing)
    raises ValueError.
    """
    k, t_end, step = map(positive_finite, ("k", "t_end", "integration step"), (k, t_end, step))
    coarsest = TWO_PI / k / MIN_STEPS_PER_PERIOD
    if step > coarsest * (1.0 + 1e-12):  # t1 / (50 * n) may round an ulp above coarsest
        raise ValueError(
            f"integration step too coarse: need 0 < step <= {coarsest:.6g} s "
            f"({MIN_STEPS_PER_PERIOD} steps per oscillation period)")
    check_grid_size(t_end / step + 1.0, f"RK4 trajectory with step {step:g} s")
    n_steps = max(1, math.ceil(t_end / step - 1e-9))
    times = array("d", (t_end * i / n_steps for i in range(n_steps + 1)))
    h = t_end / n_steps
    # -ksq * x and 0.5 * h * k1v multiply left to right, so their first factors
    # can be formed once without changing a bit
    nksq, half = -k * k, 0.5 * h
    try:
        x, v = map(_real_float, initial_state)
    except (TypeError, ValueError):  # not iterable, or not a pair
        x = v = None
    if x is None or v is None:
        raise ValueError(f"initial_state must be two numbers (x, v), got {initial_state!r}")
    xs, vs, accs = array("d", [x]), array("d", [v]), array("d")
    u0 = forcing(times[0])
    for a, b in zip(times, islice(times, 1, None)):
        um = forcing(0.5 * (a + b))
        u1 = forcing(b)
        k1x = v
        k1v = nksq * x - u0
        accs.append(k1v)
        k2x = v + half * k1v
        k2v = nksq * (x + half * k1x) - um
        k3x = v + half * k2v
        k3v = nksq * (x + half * k2x) - um
        k4x = v + h * k3v
        k4v = nksq * (x + h * k3x) - u1
        x += h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        xs.append(x)
        vs.append(v)
        u0 = u1
    if not (math.isfinite(x) and math.isfinite(v)):  # no step turns inf or nan finite again
        raise ValueError("RK4 state leaves the float range: check k, the initial state "
                         "and the forcing")
    accs.append(nksq * x - u0)
    return OscillatorTrace(t=times, x=xs, v=vs, a=accs)


def simulate_relative(spec: MotionSpec, step: float | None = None) -> OscillatorTrace:
    """RK4 trace of the relative motion over the full move of a spec, default
    DEFAULT_RK4_STEPS steps, with the forcing evaluated by math.sin on floats."""
    p, law = spec.p, spec._laws(math)[2]
    return integrate(lambda t: law(p * t), spec.k, spec.t1,
                     spec.t1 / DEFAULT_RK4_STEPS if step is None else step)


class ResidualReport(namedtuple("ResidualReport", "spec x_end v_end")):
    """End-of-move quiescence summary: the relative displacement x_end [m] and velocity
    v_end [m/s] at t1, with the verdict derived from them."""

    __slots__ = ()

    @property
    def amplitude(self) -> float:
        """Free-oscillation phasor sqrt(x_end**2 + (v_end/k)**2) [m]."""
        return math.hypot(self.x_end, self.v_end / self.spec.k)

    @property
    def tolerance(self) -> float:
        """Quiescence threshold on the amplitude, QUIESCENCE_TOL_FACTOR * L [m]."""
        return QUIESCENCE_TOL_FACTOR * self.spec.L

    @property
    def quiescent(self) -> bool:
        """The spec guarantees quiescence (integer n) and the amplitude is within tolerance."""
        return self.spec.guarantees_quiescence and self.amplitude <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "L": self.spec.L, "k": self.spec.k, "n": self.spec.n, "m": self.spec.m,
            "p": self.spec.p, "t1": self.spec.t1,
            "x_end": self.x_end, "v_end": self.v_end, "amplitude": self.amplitude,
            "quiescent": self.quiescent, "action": self.spec.action,
            "tolerance": self.tolerance,
        }


def _nearest(grid, t: float) -> int:
    """Index of the first point of a sorted grid nearest to t, as np.argmin(np.abs(grid - t))
    picks it."""
    i = bisect_left(grid, t)
    if i == len(grid) or i > 0 and t - grid[i - 1] <= grid[i] - t:
        return bisect_left(grid, grid[i - 1])  # the first of equal points
    return i


def residual_report(spec: MotionSpec, trace: OscillatorTrace | None = None) -> ResidualReport:
    """Quiescence summary of the state at the end of the move.

    With a trace, the endpoint state is the integrator's row nearest t1;
    otherwise it comes from the closed form.
    """
    if trace is None:
        return ResidualReport(spec, *final_relative_state(spec))
    if trace.t[-1] < spec.t1 * (1.0 - 1e-9):
        raise ValueError("trace does not cover the whole move [0, t1]")
    idx = _nearest(trace.t, spec.t1)
    return ResidualReport(spec, float(trace.x[idx]), float(trace.v[idx]))


def tip_trace(spec: MotionSpec, rate: float) -> TimeSeries:
    """Absolute tip acceleration (carrier plus relative component), noise free:
    what an accelerometer riding on the payload tip records."""
    table = spec.sample_uniform(rate)
    _, _, a = relative_motion(spec, np.asarray(table.t))
    return TimeSeries(table.t, np.asarray(table.a) + a, "a_tip")


def action_value(spec: MotionSpec, position_fn=None, velocity_fn=None,
                 step: float | None = None) -> float:
    """Action of a trajectory under the move's mass, stiffness and drive work.

    The integrand is m*v**2/2 - m*p**2*s**2/2 + (m*L*p**3/(2*pi)) * t * s,
    with the effective stiffness recovered as m*k**2 so the softened term
    becomes m*p**2.  Defaults to the executed motion law, whose action has
    the closed form ``spec.action``, m*L**2*p*(pi/3 + 1/(4*pi)), that
    :func:`residual_report` reports; this composite-Simpson route is its
    oracle.  Pass array-aware callables to evaluate perturbed trajectories.
    """
    if step is None:
        step = spec.t1 / DEFAULT_QUAD_INTERVALS
    grid = simpson_grid(spec.t1, step)
    s_law, v_law, _ = spec._laws(np)
    s = s_law(spec.p * grid) if position_fn is None else np.asarray(position_fn(grid), dtype=float)
    v = v_law(spec.p * grid) if velocity_fn is None else np.asarray(velocity_fn(grid), dtype=float)
    drive = spec.m * spec.peak_acceleration * spec.p  # m*L*p**3/(2*pi), where p**3 may overflow
    integrand = 0.5 * spec.m * v * v - 0.5 * spec.m * spec.p**2 * s * s + drive * grid * s
    return simpson(integrand, grid)


def write_relative_trace(path, spec: MotionSpec, trace: OscillatorTrace) -> None:
    """CSV of an integrated relative motion of the spec's move, headed t,x_r,v_r,a_r."""
    if trace.t[0] < -1e-12 * spec.t1 or trace.t[-1] > spec.t1 + 1e-12 * spec.t1:
        raise ValueError(f"time outside the motion interval [0, {spec.t1:.12g}] s")
    write_csv(path, ("t", "x_r", "v_r", "a_r"), (trace.t, trace.x, trace.v, trace.a))
