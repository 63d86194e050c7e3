"""Zero-phase Butterworth low-pass filtering for tip-motion traces.

Designs are cascades of second-order sections obtained from the analog
Butterworth prototype through the bilinear transform with frequency
prewarping.  Filtering runs the cascade forward and then backward over the
signal, so the combined pass squares the magnitude response and leaves no
phase shift: waveform features stay where they happened.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from ._numpy import np
from ._record import Record
from .beam import positive_finite
from .timeseries import TimeSeries

ALLOWED_ORDERS = (2, 4, 6, 8)

#: odd-reflection pad length per end, in multiples of the filter order
PAD_FACTOR = 3


class Biquad(NamedTuple):
    """One second-order section, denominator normalised to a0 = 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def is_stable(self) -> bool:
        # Schur triangle: both poles strictly inside the unit circle.
        return abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2


class FilterDesign(Record):
    """Butterworth low-pass as cascaded biquads, tied to one sample rate.

    ``sections`` follow from the three fields and are never passed: each analog
    pole pair with damping sin((2i+1)*pi/(2*order)) maps to one biquad of unit
    DC gain (bilinear, prewarped), so the cascade has unit DC gain too.
    """

    _fields = ("order", "cutoff_hz", "rate_hz")

    def __init__(self, order: int, cutoff_hz: float, rate_hz: float) -> None:
        if not isinstance(order, numbers.Integral) or order not in ALLOWED_ORDERS:
            raise ValueError(f"filter order must be one of {ALLOWED_ORDERS}, got {order}")
        if not 0.0 < cutoff_hz < 0.5 * positive_finite("sample rate", rate_hz):
            raise ValueError(
                f"cutoff must lie strictly between 0 and the Nyquist frequency "
                f"{0.5 * rate_hz:g} Hz, got {cutoff_hz:g} Hz")
        warp = math.tan(math.pi * cutoff_hz / rate_hz)
        w2 = warp * warp
        sections = []
        for i in range(order // 2):
            damp = math.sin(math.pi * (2 * i + 1) / (2 * order))
            norm = w2 + 2.0 * warp * damp + 1.0
            sections.append(Biquad(
                b0=w2 / norm, b1=2.0 * w2 / norm, b2=w2 / norm,
                a1=2.0 * (w2 - 1.0) / norm, a2=(w2 - 2.0 * warp * damp + 1.0) / norm))
        if not all(sec.is_stable() for sec in sections):  # rounding, at a cutoff near 0 or Nyquist
            raise ValueError(
                f"unstable section: cutoff {float(cutoff_hz)!r} Hz at rate {float(rate_hz)!r} Hz "
                f"puts a pole on or outside the unit circle")
        self._set(order=order, cutoff_hz=cutoff_hz, rate_hz=rate_hz, sections=tuple(sections))


#: the name the CLI and the scripts design by: the constructor itself, not a second route
design_butterworth = FilterDesign


def magnitude_response(design: FilterDesign, freq_hz):
    """Single-pass gain |H(f)| of the cascade; the forward-backward pass applies its square."""
    f = np.asarray(freq_hz, dtype=float)
    z1 = np.exp(-2j * np.pi * f / design.rate_hz)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=complex)
    for sec in design.sections:
        h = h * (sec.b0 + sec.b1 * z1 + sec.b2 * z2) / (1.0 + sec.a1 * z1 + sec.a2 * z2)
    return abs(complex(h)) if np.ndim(freq_hz) == 0 else np.abs(h)


def _cascade(sections: tuple[Biquad, ...], y: np.ndarray) -> None:
    # Filter y in place, each section in transposed direct form II with zero
    # initial state.  The deviation from the first sample is filtered: with unit
    # DC gain the zero state is then the exact steady state for the leading
    # value, so constant signals pass through bit exact and start-up transients
    # stay small.  The memoryview reads and writes Python floats, the same IEEE
    # arithmetic without numpy scalars; xi is read before yi overwrites it.
    offset = y[0]
    y -= offset
    buf = memoryview(y)
    for sec in sections:
        b0, b1, b2, a1, a2 = sec.b0, sec.b1, sec.b2, sec.a1, sec.a2
        z1 = z2 = 0.0
        for i, xi in enumerate(buf):
            yi = b0 * xi + z1
            z1 = b1 * xi + z2 - a1 * yi
            z2 = b2 * xi - a2 * yi
            buf[i] = yi
    y += offset


def filtfilt(design: FilterDesign, series: TimeSeries) -> TimeSeries:
    """Forward-backward pass of the cascade: squared magnitude, zero phase.

    Both ends are extended with odd reflections (PAD_FACTOR * order samples
    each) before filtering and trimmed afterwards, which keeps boundary
    transients out of the returned signal.  A finite signal that overflows on
    the way, in the padding or in the cascade, raises ValueError.
    """
    if not math.isclose(series.rate, design.rate_hz, rel_tol=1e-6):
        raise ValueError(
            f"series rate {series.rate:g} Hz does not match the design rate "
            f"{design.rate_hz:g} Hz")
    x = series.values
    pad = PAD_FACTOR * design.order
    if len(x) <= pad:
        raise ValueError(f"series too short to filter: need more than {pad} samples, got {len(x)}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        y = np.concatenate((2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1]))
        _cascade(design.sections, y)
        _cascade(design.sections, y[::-1])
    values = y[pad:-pad]
    if not np.isfinite(values).all() and np.isfinite(x).all():
        raise ValueError(f"filtering overflows the float range: the values reach "
                         f"{float(np.max(np.abs(x))):.6g}; scale them down")
    return TimeSeries(series.t, values, series.label)
