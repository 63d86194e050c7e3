"""Independent routes the tests check flexmove against, each written once.

- ``rk4``: the RK4 loop of ``integrate`` on numpy operands.  With scalar k and
  t_end it runs on numpy scalars; with arrays it steps one oscillator per
  element in lockstep, as ``lockstep`` does for a list of specs.
- ``numpy_scalar_biquad_pass`` and ``numpy_scalar_cascade``: the filter
  cascade as a loop over numpy scalars.  ``precise_cascade`` and
  ``precise_filtfilt`` run that loop in more than double precision, the
  reference that filtfilt's ERROR_BOUND is stated against.
- ``relative_motion``, ``end_state`` and ``figures``: the paper's closed forms
  in mpmath at DPS digits, from the spec's float inputs taken as exact.
- ``position``, ``velocity`` and ``acceleration``: the motion law of a spec on
  numpy arrays, the operations that ``sample_uniform`` runs on floats.
- ``moment_integrals``, ``euler_lagrange_residual`` and ``magnitude_response``:
  the Simpson moments of the control (C4), the stationarity residual of a
  trajectory (C6) and the cascade's gain (C7).
- ``near_tie`` and ``adversarial_cells``: float64 values that a ``%.12g``
  formatter must round as the correctly rounded template does.

The package does not ship this module; it is test code only.
"""

import math
from typing import NamedTuple

import mpmath
import numpy as np

from flexmove.filters import PAD_FACTOR
from flexmove.motion import DEFAULT_QUAD_INTERVALS, simpson, simpson_grid
from flexmove.oscillator import _like, _times

#: decimal digits of the mpmath closed forms
DPS = 50

#: RK4 steps per evaluation of the forcing
BLOCK_STEPS = 500


def rk4(forcing, k, t_end, n_steps, x0=0.0, v0=0.0, stride=1):
    """Classical RK4 of x'' + k**2 * x = -forcing(t) on the grid t_end*i/n_steps.

    The grid, the step midpoints and the stage formulas are those of
    ``integrate``, so a scalar run equals ``integrate`` bit for bit.  With arrays
    k and t_end (and x0, v0 broadcast to them) each element is one oscillator,
    and ``forcing`` maps an array of times, one column per oscillator, to the
    forcing there.  The forcing is evaluated once per block of BLOCK_STEPS
    steps.  Returns the times, x and v at every ``stride``-th node, node 0 and
    the last node included.
    """
    if n_steps % stride:
        raise ValueError("stride must divide n_steps")
    k, t_end = np.asarray(k, dtype=float)[()], np.asarray(t_end, dtype=float)[()]
    shape = np.broadcast_shapes(np.shape(k), np.shape(t_end))
    x = np.full(shape, x0, dtype=float)[()]  # a numpy scalar for one oscillator
    v = np.full(shape, v0, dtype=float)[()]
    h = t_end / n_steps
    # -ksq * x and 0.5 * h * k1v multiply left to right, so their first factors
    # are formed once, as integrate forms them
    nksq, half = -k * k, 0.5 * h
    block = stride * -(-BLOCK_STEPS // stride)  # blocks end on kept nodes
    xs = np.empty((n_steps // stride + 1,) + shape)
    vs = np.empty_like(xs)
    xs[0], vs[0] = x, v
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        times = np.multiply.outer(np.arange(start, stop + 1), t_end) / n_steps
        mids = 0.5 * (times[:-1] + times[1:])
        u_nodes = np.broadcast_to(np.asarray(forcing(times), dtype=float), times.shape)
        u_mids = np.broadcast_to(np.asarray(forcing(mids), dtype=float), mids.shape)
        xb, vb = np.empty(times.shape), np.empty(times.shape)
        for j in range(stop - start):
            u0, um, u1 = u_nodes[j], u_mids[j], u_nodes[j + 1]
            k1x = v
            k1v = nksq * x - u0
            k2x = v + half * k1v
            k2v = nksq * (x + half * k1x) - um
            k3x = v + half * k2v
            k3v = nksq * (x + half * k2x) - um
            k4x = v + h * k3v
            k4v = nksq * (x + h * k3x) - u1
            x = x + h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
            v = v + h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
            xb[j + 1] = x
            vb[j + 1] = v
        kept = slice(start // stride + 1, stop // stride + 1)
        xs[kept], vs[kept] = xb[stride::stride], vb[stride::stride]
    times = np.multiply.outer(np.arange(0, n_steps + 1, stride), t_end) / n_steps
    return times, xs, vs


def lockstep(specs, n_steps, stride=1):
    """``rk4`` of the relative motion of every spec in lockstep, one column per spec,
    with the forcing peak_acceleration * sin(p*t) formed as ``simulate_relative``
    forms it."""
    peak, p, k, t1 = (np.array([getattr(spec, name) for spec in specs])
                      for name in ("peak_acceleration", "p", "k", "t1"))
    return rk4(lambda t: peak * np.sin(p * t), k, t1, n_steps, stride=stride)


def numpy_scalar_biquad_pass(sec, x):
    """The section loop as it ran on numpy scalars into a preallocated array."""
    b0, b1, b2, a1, a2 = sec.b0, sec.b1, sec.b2, sec.a1, sec.a2
    y = np.empty_like(x)
    z1 = 0.0
    z2 = 0.0
    for i, xi in enumerate(x):
        yi = b0 * xi + z1
        z1 = b1 * xi + z2 - a1 * yi
        z2 = b2 * xi - a2 * yi
        y[i] = yi
    return y


def numpy_scalar_cascade(sections, x):
    """The cascade on numpy scalars into fresh arrays: the deviation from the
    first sample through each section's loop, then the offset back."""
    offset = x[0]
    y = x - offset
    for sec in sections:
        y = numpy_scalar_biquad_pass(sec, y)
    return y + offset


#: np.longdouble carries more mantissa bits than float64 (x87 extended or quad);
#: where it does not, the precise routes run on mpmath numbers, slowly
LONGDOUBLE = np.finfo(np.longdouble).nmant > 52


def _precise_cascade(sections, x):
    """numpy_scalar_cascade on the float64 values x taken as exact, in np.longdouble
    where LONGDOUBLE holds, else on mpmath numbers at DPS digits (call inside
    mpmath.workdps).  The result stays in that type."""
    if LONGDOUBLE:
        return numpy_scalar_cascade(sections, x.astype(np.longdouble))
    return numpy_scalar_cascade(sections, np.array([mpmath.mpf(v) for v in x], dtype=object))


def precise_cascade(sections, x):
    """One pass of the cascade in extended precision, rounded once to float64."""
    with mpmath.workdps(DPS):
        return _precise_cascade(sections, x).astype(float)


def precise_filtfilt(design, x):
    """filtfilt's odd-reflection padding in float64, as filtfilt pads, then both
    passes of the cascade in extended precision, rounded once to float64."""
    pad = PAD_FACTOR * design.order
    y = np.concatenate((2.0 * x[0] - x[pad:0:-1], x, 2.0 * x[-1] - x[-2:-pad - 2:-1]))
    with mpmath.workdps(DPS):
        y = _precise_cascade(design.sections, y)
        y = numpy_scalar_cascade(design.sections, y[::-1])[::-1]
        return y[pad:-pad].astype(float)


def _inputs(spec):
    """L, k, n, m and p = k/n as mpf; call inside mpmath.workdps."""
    L, k, n, m = map(mpmath.mpf, (spec.L, spec.k, spec.n, spec.m))
    return L, k, n, m, k / n


def _gain(L, k, p):
    """The common gain L*p**2 / (2*pi*(k**2 - p**2)) of the relative motion."""
    return L * p**2 / (2 * mpmath.pi * (k**2 - p**2))


def relative_motion(spec, times):
    """Rows x, v and a of the relative motion at each float time, as floats."""
    with mpmath.workdps(DPS):
        L, k, _, _, p = _inputs(spec)
        gain = _gain(L, k, p)
        return np.array([[float(gain * (p / k * mpmath.sin(k * t) - mpmath.sin(p * t))),
                          float(gain * p * (mpmath.cos(k * t) - mpmath.cos(p * t))),
                          float(gain * p * (p * mpmath.sin(p * t) - k * mpmath.sin(k * t)))]
                         for t in map(mpmath.mpf, times)]).T


def end_state(spec):
    """x and v at t1 = 2*pi*n/k and the amplitude sqrt(x**2 + (v/k)**2), as floats."""
    with mpmath.workdps(DPS):
        L, k, n, _, p = _inputs(spec)
        gain = _gain(L, k, p)
        x = gain * (p / k) * mpmath.sin(2 * mpmath.pi * n)
        v = gain * p * (mpmath.cos(2 * mpmath.pi * n) - 1)
        return float(x), float(v), float(mpmath.hypot(x, v / k))


def figures(spec):
    """t1, peak_acceleration, action and drive_energy of a spec, each rounded once
    to a float, keyed by the MotionSpec attribute that holds it."""
    with mpmath.workdps(DPS):
        L, _, _, m, p = _inputs(spec)
        pi = mpmath.pi
        values = {"t1": 2 * pi / p,
                  "peak_acceleration": L * p**2 / (2 * pi),
                  "action": m * L**2 * p * (pi / 3 + 1 / (4 * pi)),
                  "drive_energy": m * (L * p / pi) ** 2}
        return {name: float(value) for name, value in values.items()}


def position(spec, t):
    """Carrier position s(t) = L/(2*pi) * (p*t - sin(p*t)) for t in [0, t1]."""
    return _like(t, spec._laws(np)[0](spec.p * _times(spec, t)))


def velocity(spec, t):
    """Carrier velocity v(t) = L*p/(2*pi) * (1 - cos(p*t)); non-negative."""
    return _like(t, spec._laws(np)[1](spec.p * _times(spec, t)))


def acceleration(spec, t):
    """Carrier acceleration u(t) = L*p**2/(2*pi) * sin(p*t); skew symmetric."""
    return _like(t, spec._laws(np)[2](spec.p * _times(spec, t)))


class MomentIntegrals(NamedTuple):
    """Quadrature moments of one move, taken over [0, t1]."""

    impulse: float      # integral of a(t) dt; zero for any whole control period
    distance: float     # integral of v(t) dt; equals the displacement L
    cos_moment: float   # integral of a(t) cos(k t) dt; vanishes iff n is an integer
    sin_moment: float   # integral of a(t) sin(k t) dt; vanishes iff n is an integer


def moment_integrals(spec, step=None):
    """Composite-Simpson moments of the control and velocity over the move."""
    if step is None:
        step = spec.t1 / DEFAULT_QUAD_INTERVALS
    if step > spec.t_c / 10.0:
        raise ValueError(
            "quadrature step must resolve the natural period (step <= t_c/10)")
    grid = simpson_grid(spec.t1, step)
    u = acceleration(spec, grid)
    v = velocity(spec, grid)
    return MomentIntegrals(
        impulse=simpson(u, grid),
        distance=simpson(v, grid),
        cos_moment=simpson(u * np.cos(spec.k * grid), grid),
        sin_moment=simpson(u * np.sin(spec.k * grid), grid),
    )


def euler_lagrange_residual(spec, t, position_fn=None, accel_fn=None):
    """Residual s'' + p**2 * s - (L*p**3/(2*pi)) * t of the stationarity condition.

    Identically zero for the executed motion law; nonzero for any other
    trajectory, e.g. a constant-acceleration ramp.
    """
    s_fn = position_fn if position_fn is not None else lambda t: position(spec, t)
    a_fn = accel_fn if accel_fn is not None else lambda t: acceleration(spec, t)
    arr = np.asarray(t, dtype=float)
    res = (np.asarray(a_fn(arr), dtype=float)
           + spec.p**2 * np.asarray(s_fn(arr), dtype=float)
           - spec.peak_acceleration * spec.p * arr)
    return _like(t, res)


def magnitude_response(design, freq_hz):
    """Single-pass gain |H(f)| of the cascade; the forward-backward pass applies its square."""
    f = np.asarray(freq_hz, dtype=float)
    z1 = np.exp(-2j * np.pi * f / design.rate_hz)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=complex)
    for sec in design.sections:
        h = h * (sec.b0 + sec.b1 * z1 + sec.b2 * z2) / (1.0 + sec.a1 * z1 + sec.a2 * z2)
    return abs(complex(h)) if np.ndim(freq_hz) == 0 else np.abs(h)


#: values where a 12-digit formatter meets an edge: zeros, subnormals, the float
#: range, and cells whose 12-digit rounding changes the notation or the exponent
EDGE_CELLS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 9.9999999999995e-05, 99999999999.95, 999999999999.5,
              999999999999.4999, 1e12 - 0.5, -123456789012.5)


def near_tie(k: int, e: int, ulps: int = 0) -> float:
    """The float64 nearest the 13-digit decimal k5 * 10**(e - 12), a tie of its
    12-digit rounding at exponent e, moved by `ulps` units in the last place."""
    x = float(f"{k}5e{e - 12}")
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def adversarial_cells(n: int = 40_000, seed: int = 0) -> np.ndarray:
    """About n finite float64 cells, shuffled: random bit patterns, 12-digit
    integers and their halves, near ties at every exponent from -5 to 12, powers
    of ten and their neighbours, EDGE_CELLS, values below 1e-4, and for the rest
    normal values spread over the fixed-notation range."""
    rng = np.random.default_rng(seed)
    part = n // 10
    bits = rng.integers(0, 2**64, part, dtype=np.uint64).view(np.float64)
    integers = rng.integers(10**11, 10**12, part).astype(float)
    ties = [near_tie(int(k), int(e), int(u)) for k, e, u in zip(
        rng.integers(10**11, 10**12, 2 * part), rng.integers(-5, 13, 2 * part),
        rng.integers(-2, 3, 2 * part))]
    powers = np.array([10.0 ** j for j in range(-6, 14)])
    spread = rng.standard_normal(n - 6 * part) * 10.0 ** rng.uniform(-4, 12, n - 6 * part)
    cells = np.concatenate([
        integers, integers + 0.5, ties, powers, np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf)])
    cells = np.concatenate([
        cells * rng.choice([-1.0, 1.0], len(cells)), bits[np.isfinite(bits)], EDGE_CELLS,
        rng.uniform(-1e-4, 1e-4, part), spread])
    rng.shuffle(cells)
    return cells
