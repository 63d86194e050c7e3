"""Lumped model of the bench payload: a thin cantilever strip with a tip mass.

The strip's own mass is neglected against the tip mass, so the payload acts as
a single-degree-of-freedom oscillator with tip stiffness c = 3*E*I/l**3 and
natural angular frequency sqrt(c/m).
"""

from __future__ import annotations

import math
import sys

from ._record import Record


def _real_float(value) -> float | None:
    """value as a float if it is a real number, bools excluded, else None."""
    if type(value) is float:  # the common case, without the ABC check
        return value
    import numbers

    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None  # np.True_, a str, None, a complex, a Decimal
    try:  # a numpy scalar is compared as a float, not the float's maximum cast to its type
        return float(value)
    except OverflowError:  # an int or a Fraction beyond the float range reads as +-inf
        return math.inf if value > 0 else -math.inf


def _shown(value) -> str:
    """repr(value) for a rejection message, or the size of an int too long for repr."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"<int of {value.bit_length()} bits>"


def positive_finite(name: str, value) -> float:
    """Return value as _real_float reads it if that is a float in (0, largest float]."""
    number = _real_float(value)
    if number is not None and 0.0 < number <= sys.float_info.max:
        return number
    raise ValueError(f"{name} must be a positive finite number, got {_shown(value)}")


class BeamSpec(Record):
    """Cantilever geometry, material and tip load, all SI: free length l [m],
    width b [m], thickness h [m] (bending happens about this thin axis), Young's
    modulus E [Pa] and the point mass m_tip at the free end [kg]."""

    _fields = ("l", "b", "h", "E", "m_tip")

    def __init__(self, l: float, b: float, h: float, E: float, m_tip: float) -> None:
        l, b, h, E, m_tip = map(positive_finite, self._fields, (l, b, h, E, m_tip))
        if h > b:
            raise ValueError("thickness h must not exceed width b for a thin strip")
        self._set(l=l, b=b, h=h, E=E, m_tip=m_tip)
        try:
            stiffness = self.stiffness
        except ArithmeticError:  # l**3 or h**3 overflows, or l**3 underflows to zero
            stiffness = math.inf
        if not 0.0 < stiffness < math.inf:  # float * and / overflow to inf where ** raises
            raise ValueError("beam dimensions put the stiffness outside the float range")
        frequency = self.frequency
        if not 0.0 < frequency <= sys.float_info.max:  # stiffness / m_tip over- or underflows
            raise ValueError(f"the beam with tip mass m_tip = {m_tip!r} kg has a natural "
                             f"frequency outside the float range: {frequency!r} rad/s")

    @property
    def second_moment(self) -> float:
        """Second moment of area b*h**3/12 of the section about its thin axis [m^4]."""
        return self.b * self.h**3 / 12.0

    @property
    def stiffness(self) -> float:
        """Lateral stiffness 3*E*I/l**3 felt at the free end of the clamped strip [N/m]."""
        return 3.0 * self.E * self.second_moment / self.l**3

    @property
    def frequency(self) -> float:
        """Natural angular frequency sqrt(c/m_tip) of the tip mass on the strip [rad/s]."""
        return math.sqrt(self.stiffness / self.m_tip)


def load_beam(path, tip_mass: float | None = None) -> BeamSpec:
    """Read a beam description from a JSON object whose keys l, b, h, E, m_tip hold numbers.

    BeamSpec rejects a string or a bool; ``tip_mass`` overrides the document's
    m_tip and must be given when the document omits that key.
    """
    import json  # only jobs that read a beam document load it

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: beam document is not valid JSON: {exc}") from None
        except ValueError as exc:  # int() of a literal past sys.get_int_max_str_digits()
            raise ValueError(
                f"{path}: beam document holds an integer longer than this Python converts: {exc}"
            ) from None
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError(f"{path}: beam document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: beam document must be a JSON object")
    missing = [key for key in ("l", "b", "h", "E") if key not in doc]
    if missing:
        raise ValueError(f"{path}: beam document is missing keys: {', '.join(missing)}")
    m_tip = tip_mass if tip_mass is not None else doc.get("m_tip")
    if m_tip is None:
        raise ValueError(f"{path}: beam document has no m_tip and no tip mass was given")
    return BeamSpec(l=doc["l"], b=doc["b"], h=doc["h"], E=doc["E"], m_tip=m_tip)
