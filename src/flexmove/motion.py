"""Frequency-matched translational motion law for carrying flexible payloads.

The carrier accelerates with a single-period sine control u(t) = a*sin(p*t)
whose rate p is the payload's natural angular frequency k divided by the
period multiple n = t1/t_c.  When n is an integer >= 2 the move spans a whole
number of natural oscillation periods and the payload arrives with zero
relative displacement and velocity; any other timing leaves a residual
oscillation at the end of the move.
"""

from __future__ import annotations

import math
from array import array

from ._numpy import np
from ._record import Record
from .beam import positive_finite
from .timeseries import write_csv

TWO_PI = 2.0 * math.pi

#: default quadrature resolution: intervals per move
DEFAULT_QUAD_INTERVALS = 100_000

#: most points a grid sized from user input may hold, far above the largest
#: default grid (the 20 001-point RK4 trajectory)
MAX_GRID_POINTS = 10_000_000

#: setpoint rows sampled per block of Python floats
_BLOCK_ROWS = 1 << 16


def check_grid_size(points: float, what: str) -> None:
    """Reject a grid of more than MAX_GRID_POINTS points before it is allocated."""
    if not points <= MAX_GRID_POINTS:
        raise ValueError(
            f"{what} would hold {points:.4g} points, more than the limit of {MAX_GRID_POINTS}")


def simpson_grid(t_end: float, step: float) -> np.ndarray:
    """Uniform quadrature grid on [0, t_end] with an even number of intervals.

    A step of t_end/N counts N intervals even when the division rounds up;
    an odd count is raised by one.
    """
    n = max(2, math.ceil(t_end / positive_finite("quadrature step", step) - 1e-9))
    if n % 2:
        n += 1
    check_grid_size(n + 1.0, f"quadrature grid with step {step:g} s")
    return np.linspace(0.0, t_end, n + 1)


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples y on a grid x with an even number
    of intervals, such as :func:`simpson_grid` returns.

    The operations follow scipy.integrate.simpson's path for such grids, so
    the two agree bit for bit.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, r = h0 + h1, h0 * h1, h0 / h1
    y0, y1, y2 = y[0:-2:2], y[1:-1:2], y[2::2]
    return float(np.sum(hsum / 6.0 * (y0 * (2.0 - 1.0 / r) + y1 * (hsum * (hsum / hprod))
                                      + y2 * (2.0 - r))))


def timing_residual(n: float) -> tuple[float, float]:
    """Residual pair (cos(2*pi*n) - 1, sin(2*pi*n)) of the quiescence timing equations.

    Both terms vanish exactly when the period multiple n is an integer.  The
    angle is reduced by the nearest integer, so integer n yields machine zeros,
    and the first term is -2*sin(theta/2)**2, which keeps the digits that
    cos(theta) - 1 cancels as n nears an integer (or 1).
    """
    if n <= 1.0:
        raise ValueError("period multiple n must exceed 1")
    theta = TWO_PI * (n - round(n))
    return -2.0 * math.sin(0.5 * theta) ** 2, math.sin(theta)


def _in_float_range(what: str, compute) -> float:
    """compute(), rejected unless finite: a move whose figure overflows has no answer."""
    try:
        value = compute()
    except ArithmeticError:  # ** raises where * rounds to inf, / raises on a zero p
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"L, k, n and m put {what} outside the float range")
    return value


class SetpointTable(Record):
    """Uniform motion setpoints (time, position, velocity, acceleration) in ``array('d')``."""

    _fields = ("t", "s", "v", "a")
    __eq__, __hash__ = object.__eq__, object.__hash__  # holds arrays: equal only to itself

    def __init__(self, t: array, s: array, v: array, a: array) -> None:
        self._set(t=t, s=s, v=v, a=a)

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        write_csv(path, ("t", "s", "v", "a"), (self.t, self.s, self.v, self.a))


class MotionSpec(Record):
    """One point-to-point move of a flexible payload.

    Parameters
    ----------
    L : float
        Total displacement of the carried object [m].
    k : float
        Natural angular frequency of the payload's relative oscillation [rad/s].
    n : float
        Period multiple t1/t_c.  Must be an integer >= 2 unless
        ``exploratory=True``, which admits any real n > 1 for studying
        mistimed moves.  Exploratory specs are never labelled quiescent.
    m : float
        Carried mass [kg].  The motion law itself is mass independent; the
        mass enters the action and energy figures.

    Derived attributes: ``p`` (forcing angular frequency k/n), ``t1`` (total
    motion time 2*pi/p), ``t_c`` (natural period 2*pi/k), and the closed-form
    figures ``peak_acceleration`` (control amplitude L*p**2/(2*pi) [m/s^2]),
    ``action`` (m*L**2*p*(pi/3 + 1/(4*pi)) [J*s]) and ``drive_energy``
    (m*(L*p/pi)**2 [J]).  A spec whose t1, figures or k*k leave the float range
    is rejected.
    """

    _fields = ("L", "k", "n", "m", "exploratory")

    def __init__(self, L: float, k: float, n: float, m: float, exploratory: bool = False) -> None:
        L, k, n, m = map(positive_finite, ("L", "k", "n", "m"), (L, k, n, m))
        if exploratory:
            if n <= 1.0:
                raise ValueError(
                    "period multiple n must exceed 1 (n = 1 forces the payload at "
                    "resonance, n < 1 above it)")
        else:
            if not n.is_integer():
                raise ValueError(
                    f"period multiple n = {n} is not an integer; pass "
                    "exploratory=True to study mistimed moves")
            if n < 2.0:
                raise ValueError(
                    "period multiple n must be at least 2; n = 1 is the resonant multiple")
        p = k / n
        self._set(
            L=L, k=k, n=n, m=m, exploratory=exploratory, p=p,
            t1=_in_float_range("the motion time t1", lambda: TWO_PI / p),
            t_c=TWO_PI / k,
            peak_acceleration=_in_float_range("the peak acceleration",
                                              lambda: L * p**2 / TWO_PI),
            action=_in_float_range(
                "the action", lambda: m * L**2 * p * (math.pi / 3.0 + 1.0 / (4.0 * math.pi))),
            drive_energy=_in_float_range("the drive energy",
                                         lambda: m * (L * p / math.pi) ** 2))
        _in_float_range("k*k", lambda: k * k)  # the stiffness term of the RK4 loop

    @classmethod
    def from_beam(cls, beam, L: float, n: float, exploratory: bool = False) -> "MotionSpec":
        """Build a spec whose frequency and mass come from a cantilever payload."""
        return cls(L=L, k=beam.frequency, n=n, m=beam.m_tip, exploratory=exploratory)

    @property
    def guarantees_quiescence(self) -> bool:
        """True for strict specs (integer n >= 2); exploratory moves never qualify."""
        return not self.exploratory

    def _laws(self, lib) -> tuple:
        """s, v and u as functions of the phase p*t.  With ``lib`` numpy they map
        arrays, with ``lib`` math they map floats, by the same operations in the
        same order."""
        sin, cos = lib.sin, lib.cos
        gain_s, gain_v, gain_u = self.L / TWO_PI, self.L * self.p / TWO_PI, self.peak_acceleration
        return (lambda pt: gain_s * (pt - sin(pt)),
                lambda pt: gain_v * (1.0 - cos(pt)),
                lambda pt: gain_u * sin(pt))

    def sample_uniform(self, rate: float) -> SetpointTable:
        """Sample the motion law on the grid i/rate, i = 0 .. floor(rate*t1), on Python
        floats that equal ``_laws(np)`` at ``p * (np.arange(count) / rate)`` bit for bit."""
        rate = positive_finite("sample rate", rate)
        check_grid_size(rate * self.t1 + 1.0, f"setpoint grid at {rate:g} Hz")
        if rate * self.t1 < 1.0:
            lowest = 1.0 / self.t1
            while lowest * self.t1 < 1.0:
                lowest = math.nextafter(lowest, math.inf)
            raise ValueError(f"sample rate {rate:g} Hz gives a single setpoint over the "
                             f"{self.t1:.6g} s move; the lowest admissible rate is {lowest!r} Hz")
        count = math.floor(rate * self.t1) + 1
        t, s, v, a = [array("d") for _ in range(4)]
        p, laws = self.p, self._laws(math)
        for start in range(0, count, _BLOCK_ROWS):  # bounded memory for Python floats
            times = [i / rate for i in range(start, min(start + _BLOCK_ROWS, count))]
            phases = [p * x for x in times]
            t.fromlist(times)
            for column, law in zip((s, v, a), laws):
                column.fromlist(list(map(law, phases)))
        return SetpointTable(t, s, v, a)
