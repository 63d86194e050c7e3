"""Independent numerical routes that the closed forms are checked against.

No job runs these.  The tests hold the package to them: the Simpson moments
of the control vanish for an integer period multiple (C4), the motion law
satisfies the Euler-Lagrange equation of the action (C6), and the cascade's
gain matches the Butterworth prototype (C7).  ``import flexmove`` does not
load this module, so none of it sits on a job's import path; import it as
``flexmove.oracles``.
"""

from __future__ import annotations

from typing import NamedTuple

from ._numpy import np
from .filters import FilterDesign
from .motion import DEFAULT_QUAD_INTERVALS, MotionSpec, _like, simpson, simpson_grid


class MomentIntegrals(NamedTuple):
    """Quadrature moments of one move, taken over [0, t1]."""

    impulse: float      # integral of a(t) dt; zero for any whole control period
    distance: float     # integral of v(t) dt; equals the displacement L
    cos_moment: float   # integral of a(t) cos(k t) dt; vanishes iff n is an integer
    sin_moment: float   # integral of a(t) sin(k t) dt; vanishes iff n is an integer


def moment_integrals(spec: MotionSpec, step: float | None = None) -> MomentIntegrals:
    """Composite-Simpson moments of the control and velocity over the move."""
    if step is None:
        step = spec.t1 / DEFAULT_QUAD_INTERVALS
    if step > spec.t_c / 10.0:
        raise ValueError(
            "quadrature step must resolve the natural period (step <= t_c/10)")
    grid = simpson_grid(spec.t1, step)
    u = spec.acceleration(grid)
    v = spec.velocity(grid)
    return MomentIntegrals(
        impulse=simpson(u, grid),
        distance=simpson(v, grid),
        cos_moment=simpson(u * np.cos(spec.k * grid), grid),
        sin_moment=simpson(u * np.sin(spec.k * grid), grid),
    )


def euler_lagrange_residual(spec: MotionSpec, t, position_fn=None, accel_fn=None):
    """Residual s'' + p**2 * s - (L*p**3/(2*pi)) * t of the stationarity condition.

    Identically zero for the executed motion law; nonzero for any other
    trajectory, e.g. a constant-acceleration ramp.
    """
    s_fn = position_fn if position_fn is not None else spec.position
    a_fn = accel_fn if accel_fn is not None else spec.acceleration
    arr = np.asarray(t, dtype=float)
    res = (np.asarray(a_fn(arr), dtype=float)
           + spec.p**2 * np.asarray(s_fn(arr), dtype=float)
           - spec.peak_acceleration * spec.p * arr)
    return _like(t, res)


def magnitude_response(design: FilterDesign, freq_hz):
    """Single-pass gain |H(f)| of the cascade; the forward-backward pass applies its square."""
    f = np.asarray(freq_hz, dtype=float)
    z1 = np.exp(-2j * np.pi * f / design.rate_hz)
    z2 = z1 * z1
    h = np.ones_like(z1, dtype=complex)
    for sec in design.sections:
        h = h * (sec.b0 + sec.b1 * z1 + sec.b2 * z2) / (1.0 + sec.a1 * z1 + sec.a2 * z2)
    return abs(complex(h)) if np.ndim(freq_hz) == 0 else np.abs(h)
