"""Sweeps and comparisons: residual amplitude versus move timing, drive cost,
and the matched-versus-mistimed amplitude table across carried masses."""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np
from ._record import Record
from .beam import BeamSpec, positive_finite
from .motion import (DEFAULT_QUAD_INTERVALS, MotionSpec, check_grid_size, simpson,
                     simpson_grid)
from .oscillator import ResidualReport, final_relative_state
from .timeseries import write_csv

#: how close a swept multiple must sit to an integer to count as matched
INTEGER_N_TOL = 1e-9


def _spec_for(L: float, k: float, m: float, n: float) -> MotionSpec:
    """Strict spec at integer multiples, exploratory spec elsewhere."""
    spec = MotionSpec(L=L, k=k, n=n, m=m, exploratory=True)
    rounded = round(spec.n)
    if abs(spec.n - rounded) <= INTEGER_N_TOL * spec.n and rounded >= 2:
        return MotionSpec(L=L, k=k, n=float(rounded), m=m)
    return spec


def _amplitude(spec: MotionSpec) -> float:
    return ResidualReport(spec, *final_relative_state(spec)).amplitude


class SweepRow(NamedTuple):
    n: float
    t1: float
    residual: float
    energy: float
    quiescent: bool


class SweepResult(Record):
    """Residual amplitude and drive cost over a grid of period multiples."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[SweepRow, ...]) -> None:
        self._set(rows=rows)

    def __len__(self) -> int:
        return len(self.rows)

    def write_csv(self, path) -> None:
        write_csv(
            path, ("n", "t1", "residual", "energy", "quiescent"),
            ([r.n for r in self.rows], [r.t1 for r in self.rows],
             [r.residual for r in self.rows], [r.energy for r in self.rows],
             [int(r.quiescent) for r in self.rows]))


def sweep_n(L: float, k: float, m: float, n_from: float, n_to: float,
            step: float) -> SweepResult:
    """Closed-form residual and energy figure on a uniform grid of multiples.

    Each row's energy is the spec's ``drive_energy``, the closed form
    m * L**2 * p**2 / pi**2 of :func:`energy_figure`.  Rows at integer n >= 2
    are flagged quiescent; all grid points must stay above the resonant
    multiple n = 1.
    """
    for name, value in (("n_from", n_from), ("n_to", n_to), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"sweep {name} must be finite, got {value!r}")
    if n_from <= 1.0:
        raise ValueError("sweep range must stay above n = 1 (resonant multiple)")
    if n_to < n_from:
        raise ValueError("need n_to >= n_from")
    check_grid_size((n_to - n_from) / positive_finite("sweep step", step) + 1.0,
                    f"sweep grid with step {step:g}")
    count = int(math.floor((n_to - n_from) / step + 1e-9)) + 1
    rows = []
    for i in range(count):
        n = n_from + i * step
        spec = _spec_for(L, k, m, n)
        rows.append(SweepRow(n=n, t1=spec.t1, residual=_amplitude(spec),
                             energy=spec.drive_energy,
                             quiescent=spec.guarantees_quiescence))
    return SweepResult(tuple(rows))


def energy_figure(spec: MotionSpec, step: float | None = None) -> float:
    """Drive-cost figure by quadrature: integral of m * |u(t) * v(t)| over the move [J].

    The integral has the closed form m * L**2 * p**2 / pi**2, which
    :func:`sweep_n` uses; this composite-Simpson route is its independent
    oracle.  On the default grid of 100 000 intervals, t1/2 (where u*v changes
    sign) is a panel boundary and the two agree to rounding.
    """
    if step is None:
        step = spec.t1 / DEFAULT_QUAD_INTERVALS
    grid = simpson_grid(spec.t1, step)
    power = np.abs(spec.acceleration(grid) * spec.velocity(grid))
    return spec.m * simpson(power, grid)


def suppression_ratio(matched: ResidualReport, unmatched: ResidualReport) -> float:
    """How much larger the mistimed residual is, floored at the matched tolerance."""
    for attr in ("L", "k", "m"):
        a, b = getattr(matched.spec, attr), getattr(unmatched.spec, attr)
        if not math.isclose(a, b, rel_tol=1e-12):
            raise ValueError(f"reports describe different moves: {attr} differs ({a} vs {b})")
    return unmatched.amplitude / max(matched.amplitude, matched.tolerance)


class AmplitudeTable(NamedTuple):
    """Matched versus mistimed residual amplitudes across carried masses."""

    masses: tuple[float, ...]
    frequencies: tuple[float, ...]
    matched_n: float
    unmatched_n: float
    matched: tuple[float, ...]
    unmatched: tuple[float, ...]

    caption = ("noise-free simulation; matched moves end quiescent by construction. "
               "Bench measurements (sensor noise, drive ripple) are not reproduced here.")

    def to_text(self) -> str:
        width = 12
        label_width = 24

        def line(label, values, fmt="{:>{w}.4g}"):
            cells = "".join(fmt.format(v, w=width) for v in values)
            return f"{label:<{label_width}}{cells}"

        rows = [
            "residual tip oscillation amplitude [m] per carried mass",
            line("mass [kg]", self.masses),
            line("k [rad/s]", self.frequencies),
            line(f"n={self.unmatched_n:g} (mistimed)", self.unmatched, "{:>{w}.3e}"),
            line(f"n={self.matched_n:g} (matched)", self.matched, "{:>{w}.3e}"),
            f"note: {self.caption}",
        ]
        return "\n".join(rows)

    def write_csv(self, path) -> None:
        write_csv(path, ("mass", "k", "matched_amplitude", "unmatched_amplitude"),
                  (self.masses, self.frequencies, self.matched, self.unmatched))


def _carried_masses(masses) -> tuple[float, ...]:
    """The masses as floats; rejects an empty list and a mass that is not positive and finite."""
    masses = tuple(positive_finite("carried mass", m) for m in masses)
    if not masses:
        raise ValueError("at least one carried mass is required")
    return masses


def amplitude_table(masses, beam: BeamSpec, L: float, n: float = 2.0,
                    unmatched_n: float = 2.5) -> AmplitudeTable:
    """Residual amplitude per carried mass, matched timing versus mistimed.

    Each mass gets its own natural frequency from the beam geometry; the
    matched column uses the integer multiple n >= 2, the mistimed column the
    multiple unmatched_n with the same control shape, which must not count as
    matched (within INTEGER_N_TOL of an integer >= 2).
    """
    masses = _carried_masses(masses)
    freqs, matched_amps, unmatched_amps = [], [], []
    for m in masses:
        k = BeamSpec(l=beam.l, b=beam.b, h=beam.h, E=beam.E, m_tip=m).frequency
        matched = MotionSpec(L=L, k=k, n=n, m=m)
        mistimed = _spec_for(L, k, m, unmatched_n)
        if mistimed.guarantees_quiescence:
            raise ValueError(f"unmatched n = {unmatched_n} is a matched multiple; "
                             "the mistimed column needs a non-integer n")
        freqs.append(k)
        matched_amps.append(_amplitude(matched))
        unmatched_amps.append(_amplitude(mistimed))
    return AmplitudeTable(masses=masses, frequencies=tuple(freqs),
                          matched_n=float(n), unmatched_n=float(unmatched_n),
                          matched=tuple(matched_amps), unmatched=tuple(unmatched_amps))
