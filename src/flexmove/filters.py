"""Zero-phase Butterworth low-pass filtering for tip-motion traces.

Designs are cascades of second-order sections obtained from the analog
Butterworth prototype through the bilinear transform with frequency
prewarping.  Filtering runs the cascade forward and then backward over the
signal, so the combined pass squares the magnitude response and leaves no
phase shift: waveform features stay where they happened.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from ._record import Record
from .beam import positive_finite
from .timeseries import TimeSeries

ALLOWED_ORDERS = (2, 4, 6, 8)

#: odd-reflection pad length per end, in multiples of the filter order
PAD_FACTOR = 3

#: the largest error of filtfilt over the signal's swing (max - min), against the
#: same cascade run sample by sample in extended precision, for any admissible design
ERROR_BOUND = 1e-10

#: the lowest cutoff-to-rate ratio a design accepts: below it the block pass can
#: miss ERROR_BOUND (measured at most 2.3e-11 at 4e-4, 1.5e-10 at 2.5e-4; README)
MIN_CUTOFF_RATIO = 4e-4


class Biquad(namedtuple("Biquad", "b0 b1 b2 a1 a2")):
    """One second-order section, denominator normalised to a0 = 1."""

    __slots__ = ()

    def is_stable(self) -> bool:
        # Schur triangle: both poles strictly inside the unit circle.
        return abs(self.a2) < 1.0 and abs(self.a1) < 1.0 + self.a2


class FilterDesign(Record):
    """Butterworth low-pass as cascaded biquads, tied to one sample rate.

    ``sections`` follow from the three fields and are never passed: each analog
    pole pair with damping sin((2i+1)*pi/(2*order)) maps to one biquad of unit
    DC gain (bilinear, prewarped), so the cascade has unit DC gain too.  A cutoff
    below MIN_CUTOFF_RATIO * rate_hz is rejected, after the sections' stability:
    there filtfilt's block pass no longer keeps within ERROR_BOUND.
    """

    _fields = ("order", "cutoff_hz", "rate_hz")

    def __init__(self, order: int, cutoff_hz: float, rate_hz: float) -> None:
        import numbers  # only filter jobs design a filter

        if not isinstance(order, numbers.Integral) or order not in ALLOWED_ORDERS:
            raise ValueError(f"filter order must be one of {ALLOWED_ORDERS}, got {order}")
        nyquist = 0.5 * positive_finite("sample rate", rate_hz)
        real = isinstance(cutoff_hz, numbers.Real) and not isinstance(cutoff_hz, bool)
        if not (real and 0.0 < cutoff_hz < nyquist):  # nan, a bool or a non-number too
            raise ValueError(
                f"cutoff must lie strictly between 0 and the Nyquist frequency "
                f"{nyquist!r} Hz, got "
                f"{float(cutoff_hz) if isinstance(cutoff_hz, float) else cutoff_hz!r} Hz")
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
        if cutoff_hz < MIN_CUTOFF_RATIO * rate_hz:
            raise ValueError(
                f"cutoff {float(cutoff_hz)!r} Hz is below the lowest admissible cutoff "
                f"{MIN_CUTOFF_RATIO * rate_hz!r} Hz at rate {float(rate_hz)!r} Hz: below a "
                f"cutoff-to-rate ratio of {MIN_CUTOFF_RATIO:g} the filter's error can exceed "
                f"{ERROR_BOUND:g} of the signal's swing")
        self._set(order=order, cutoff_hz=cutoff_hz, rate_hz=rate_hz, sections=tuple(sections))


#: the name the CLI and the scripts design by: the constructor itself, not a second route
design_butterworth = FilterDesign


#: samples per block of filtfilt's block pass
BLOCK = 64


def _cascade_run(sections: tuple[Biquad, ...], u: list, state: list):
    """The cascade, each section in transposed direct form II, over the Python
    floats u from ``state`` (z1, z2 of each section in turn): its outputs and its
    state after each sample."""
    state, out, states = list(state), [], []
    indexed = [(2 * k, *sec) for k, sec in enumerate(sections)]  # z1 of section k at 2k
    for x in u:
        for k, b0, b1, b2, a1, a2 in indexed:
            y = b0 * x + state[k]
            state[k] = b1 * x + state[k + 1] - a1 * y
            state[k + 1] = b2 * x - a2 * y
            x = y
        out.append(x)
        states.append(state[:])
    return out, states


def _block_model(sections: tuple[Biquad, ...]):
    """The cascade as one state-space model x' = A x + B u, y = C x + D u with two
    states per section, folded into the three matrices of a pass by blocks of
    n = BLOCK samples:

    - ``matrix`` (n rows): in column i < n, h[i - j] in row j <= i, the zero-state
      response to the block; in the columns after, row j holds A**(n-1-j) B, so
      these give the state the block ends in from a zero start;
    - ``step``: (A**n).T, which carries a state across one block;
    - ``free``: C A**i in column i, the response to the state a block starts from.

    All three are read off runs of the cascade's own recurrence in Python floats:
    the unit impulse from the zero state gives h and the states A**m B, and n zero
    inputs from each unit state give a row of ``free`` and, by the last state, of
    ``step``.  No power of A is formed by a matrix product.
    """
    n, zeros = BLOCK, [0.0] * (2 * len(sections))
    h, to_state = _cascade_run(sections, [1.0] + [0.0] * (n - 1), zeros)
    h = np.array([0.0] * n + h)
    lag = np.arange(n)
    toeplitz = h[n + lag[None, :] - lag[:, None]]
    free, step = [], []
    for i in range(len(zeros)):
        out, states = _cascade_run(sections, [0.0] * n, zeros[:i] + [1.0] + zeros[i + 1:])
        free.append(out)
        step.append(states[-1])
    return np.concatenate((toeplitz, to_state[::-1]), axis=1), np.array(step), np.array(free)


def _cascade(model, blocks: np.ndarray, size: int) -> None:
    # Filter the first size cells of blocks, rows of n samples, in place (Burrus
    # 1972); the slack cells after them are zeroed, so every block is full.  The
    # deviation from the first sample is filtered: with unit DC gain the zero state
    # is then the exact steady state for the leading value, so constant signals
    # pass through bit exact and start-up transients stay small.  A block's output
    # is its zero-state response plus the free response to the state it starts
    # from; that state is carried on one step per block, in order.  Every product
    # is an einsum without path optimisation, numpy's own loop and never BLAS,
    # whose kernels round differently from one CPU to the next.  A nan or inf
    # reaches the earlier samples of its block too (0 * inf), and the rest of the
    # signal through the state, so the caller sees it.
    matrix, step, free = model
    n = len(matrix)
    y = blocks.reshape(-1)  # a view: blocks is contiguous
    offset = y[0]
    y[:size] -= offset
    y[size:] = 0.0
    product = np.einsum("bj,ji->bi", blocks, matrix, optimize=False)
    zero_state, ends = product[:, :n], product[:, n:]
    for prev, end in zip(ends, ends[1:]):
        end += np.einsum("s,sr->r", prev, step, optimize=False)
    np.einsum("bs,si->bi", ends[:-1], free, out=blocks[1:], optimize=False)
    blocks[1:] += zero_state[1:]
    blocks[:1] = zero_state[:1]
    y[:size] += offset


def filtfilt(design: FilterDesign, series: TimeSeries) -> TimeSeries:
    """Forward-backward pass of the cascade: squared magnitude, zero phase.

    Both ends are extended with odd reflections (PAD_FACTOR * order samples
    each) before filtering and trimmed afterwards, which keeps boundary
    transients out of the returned signal.  Both passes run by blocks and stay
    within ERROR_BOUND of the signal's swing of the same cascade run sample by
    sample in extended precision.  A signal that overflows on the way, in the
    padding or in the cascade, raises ValueError.
    """
    if not math.isclose(series.rate, design.rate_hz, rel_tol=1e-6):
        raise ValueError(
            f"series rate {series.rate:g} Hz does not match the design rate "
            f"{design.rate_hz:g} Hz")
    x = series.values
    pad = PAD_FACTOR * design.order
    if len(x) <= pad:
        raise ValueError(f"series too short to filter: need more than {pad} samples, got {len(x)}")
    size = len(x) + 2 * pad
    blocks = np.empty((-(-size // BLOCK), BLOCK))
    y = blocks.reshape(-1)[:size]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        np.concatenate((2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1]), out=y)
        model = _block_model(design.sections)
        _cascade(model, blocks, size)
        y[:] = y[::-1]  # the backward pass runs forward over the reversed signal
        _cascade(model, blocks, size)
    values = y[::-1][pad:-pad]
    if not np.isfinite(values).all():  # a TimeSeries is finite, so this is an overflow
        raise ValueError(f"filtering overflows the float range: the values reach "
                         f"{float(np.max(np.abs(x))):.6g}; scale them down")
    return series._with_values(values)
