import json
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_BEAM
from flexmove import BeamSpec, FilterDesign, MotionSpec, integrate, load_beam, sweep_n
from flexmove.beam import positive_finite

# Frozen chain values for the bench strip (l=0.305, b=0.013, h=5e-4, E=2.1e11).
BENCH_I = 1.3541666666666668e-13
BENCH_C = 3.0068596049889647
BENCH_K = 5.780099581023156


def beam(**fields) -> BeamSpec:
    """The bench strip with some fields replaced."""
    return BeamSpec(**dict(BENCH_BEAM, **fields))


def test_area_moment_bench(bench_beam):
    assert bench_beam.second_moment == pytest.approx(BENCH_I, rel=1e-12)
    assert bench_beam.second_moment == pytest.approx(1.3542e-13, rel=1e-4)


def test_area_moment_unit_section():
    assert beam(b=1.0, h=1.0).second_moment == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_area_moment_cubic_in_thickness():
    assert beam(b=0.01, h=2e-3).second_moment == pytest.approx(
        8.0 * beam(b=0.01, h=1e-3).second_moment, rel=1e-12)


def test_tip_stiffness_bench(bench_beam):
    assert bench_beam.stiffness == pytest.approx(BENCH_C, rel=1e-12)
    assert bench_beam.stiffness == pytest.approx(3.007, rel=1e-3)


def test_tip_stiffness_unit():
    # b = 12, h = 1 gives I = 1 exactly
    assert BeamSpec(l=1.0, b=12.0, h=1.0, E=1.0, m_tip=1.0).stiffness == 3.0


def test_tip_stiffness_cubic_in_length():
    assert beam(l=0.4).stiffness == pytest.approx(beam(l=0.2).stiffness / 8.0, rel=1e-12)


def test_natural_frequency_bench(bench_beam):
    assert bench_beam.frequency == pytest.approx(BENCH_K, rel=1e-12)
    assert bench_beam.frequency == pytest.approx(5.78, rel=5e-3)
    assert beam(m_tip=0.06).frequency == pytest.approx(7.079147317990782, rel=1e-12)
    # b = 4, h = 1 gives I = 1/3 and a unit stiffness
    assert BeamSpec(l=1.0, b=4.0, h=1.0, E=1.0, m_tip=1.0).frequency == 1.0


def test_quadruple_mass_halves_frequency_exactly(bench_beam):
    assert beam(m_tip=4 * 0.09).frequency == bench_beam.frequency / 2.0


@settings(max_examples=50, deadline=None)
@given(E=st.floats(1e3, 1e12), m=st.floats(1e-3, 1e3))
def test_frequency_scaling_property(E, m):
    assert beam(E=E, m_tip=4.0 * m).frequency == beam(E=E, m_tip=m).frequency / 2.0


# Each link of the beam chain, reached through the BeamSpec fields it reads.
def area_moment(b, h):
    return beam(b=b, h=h).second_moment


def tip_stiffness(E, l):
    return beam(E=E, l=l).stiffness


def natural_frequency(E, m_tip):
    return beam(E=E, m_tip=m_tip).frequency


@pytest.mark.parametrize("fn,args", [
    (area_moment, (0.0, 5e-4)), (area_moment, (0.013, -5e-4)),
    (tip_stiffness, (0.0, 0.305)), (tip_stiffness, (2.1e11, 0.0)),
    (natural_frequency, (0.0, 0.09)), (natural_frequency, (2.1e11, 0.0)),
])
def test_non_positive_inputs_rejected(fn, args):
    with pytest.raises(ValueError, match="must be a positive finite number"):
        fn(*args)


class TestBeamSpec:
    def test_bench_chain(self, bench_beam):
        assert bench_beam.second_moment == pytest.approx(BENCH_I, rel=1e-12)
        assert bench_beam.stiffness == pytest.approx(BENCH_C, rel=1e-12)
        assert bench_beam.frequency == pytest.approx(5.78, rel=5e-3)

    def test_period_consistency_with_motion_spec(self, bench_beam):
        spec = MotionSpec.from_beam(bench_beam, L=0.41, n=2.0)
        assert spec.k == bench_beam.frequency
        assert spec.m == bench_beam.m_tip
        assert spec.t_c == pytest.approx(2.0 * math.pi / bench_beam.frequency, rel=1e-15)

    def test_thick_strip_rejected(self):
        with pytest.raises(ValueError, match="thickness"):
            BeamSpec(l=0.3, b=0.001, h=0.002, E=2.1e11, m_tip=0.09)

    @pytest.mark.parametrize("field", ["l", "b", "h", "E", "m_tip"])
    def test_non_positive_fields_rejected(self, field):
        params = dict(BENCH_BEAM)
        params[field] = 0.0
        with pytest.raises(ValueError, match=field):
            BeamSpec(**params)

    def test_numpy_integers_accepted(self, bench_beam):
        beam = BeamSpec(**dict(BENCH_BEAM, E=np.int64(210_000_000_000)))
        assert beam == bench_beam
        assert type(beam.E) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scalar", [np.float16, np.float32, np.float64, np.longdouble,
                                        np.int64])
    def test_numpy_scalars_compare_without_warnings(self, scalar):
        # compared in their own type, float max overflows float16 and float32 with a warning
        assert positive_finite("k", scalar(5)) == 5.0
        with pytest.raises(ValueError, match="^k must be a positive finite number"):
            positive_finite("k", -scalar(5))

    @pytest.mark.filterwarnings("error")
    def test_extended_float_beyond_the_float_range_rejected(self):
        with pytest.raises(ValueError, match="^k must be a positive finite number"):
            positive_finite("k", np.longdouble("1e400"))

    @pytest.mark.parametrize("fields", [dict(l=1e-200), dict(l=1e200), dict(E=1e308),
                                        dict(b=1.0, h=1e-110)],
                             ids=["l**3-underflow", "l**3-overflow", "3*E-overflow", "h**3-underflow"])
    def test_a_stiffness_outside_the_float_range_rejected(self, fields):
        # ** raises on overflow, float * and / return inf, and h**3 underflows to 0.0
        # quietly: each is the beam's dimensions, whatever the tip mass
        with pytest.raises(ValueError, match="^beam dimensions put the stiffness outside "
                                             "the float range$"):
            BeamSpec(**dict(BENCH_BEAM, **fields))

    @pytest.mark.parametrize("fields,frequency", [
        (dict(m_tip=1e-320), "inf"), (dict(l=1e100, m_tip=1e300), "0.0")])
    def test_a_frequency_outside_the_float_range_rejected(self, fields, frequency):
        # each field is a positive finite float, but stiffness / m_tip is not
        params = dict(BENCH_BEAM, **fields)
        with pytest.raises(ValueError, match=re.escape(
                f"the beam with tip mass m_tip = {params['m_tip']!r} kg has a natural "
                f"frequency outside the float range: {frequency} rad/s")):
            BeamSpec(**params)

    @pytest.mark.parametrize("field", ["l", "b", "E", "m_tip"])
    def test_bools_rejected(self, field):
        params = dict(BENCH_BEAM)
        params[field] = True
        with pytest.raises(ValueError, match=f"^{field} must be a positive finite number"):
            BeamSpec(**params)


class _Float(float):
    pass


#: 5000 digits: past the 4300 that int's repr converts, so a message shows its size
LONG_INT = 10**4999

#: (value, what positive_finite("x", value) returns: a float, or None for the
#: ValueError that quotes the value)
POSITIVE_FINITE = [
    (_Float(2.5), 2.5), (np.float64(2.5), 2.5), (np.float32(0.1), 0.10000000149011612),
    (-0.0, None), (5e-324, 5e-324), (sys.float_info.max, sys.float_info.max),
    (math.inf, None), (math.nan, None), (True, None), (np.True_, None), (10**400, None),
    (-10**400, None), (LONG_INT, None), (Fraction(1, 3), 1 / 3), (Decimal("1"), None),
    ("1", None), (None, None), (1 + 0j, None),
]

KINDS = ["float-subclass", "float64", "float32", "minus-zero", "subnormal", "float-max", "inf",
         "nan", "bool", "numpy-bool", "int-past-float", "minus-int-past-float",
         "int-past-repr", "fraction", "decimal", "str", "none", "complex"]


def quoted(value) -> str:
    """value as a rejection message quotes it."""
    return "<int of 16607 bits>" if value is LONG_INT else repr(value)


@pytest.mark.parametrize("value,number", POSITIVE_FINITE, ids=KINDS)
def test_positive_finite_on_every_kind_of_value(value, number):
    # a plain float skips the numbers.Real check; every other kind still takes it
    if number is None:
        with pytest.raises(ValueError) as info:
            positive_finite("x", value)
        assert str(info.value) == f"x must be a positive finite number, got {quoted(value)}"
    else:
        result = positive_finite("x", value)
        assert type(result) is float and result == number
        assert result is value or type(value) is not float


#: the other scalars read as positive_finite reads them, each with a range of its own:
#: (the starts of the site's rejection messages, the site run on one value, returning the
#: float it read).  The sweep from 2 by 0.5 ends at n_to when n_to is 2.5, the one kind
#: in its range
SCALAR_SITES = {
    "sweep-n_from": (("sweep ", "need n_to"),
                     lambda x: sweep_n(0.41, 5.78, 0.09, x, 3.0, 0.5).rows[0].n),
    "sweep-n_to": (("sweep ", "need n_to"),
                   lambda x: sweep_n(0.41, 5.78, 0.09, 2.0, x, 0.5).rows[-1].n),
    "initial-x": (("initial_state ", "RK4 state "),
                  lambda x: integrate(lambda t: 0.0, 5.0, 0.1, 1e-3, (x, 0.0)).x[0]),
    "initial-v": (("initial_state ", "RK4 state "),
                  lambda v: integrate(lambda t: 0.0, 5.0, 0.1, 1e-3, (0.0, v)).v[0]),
    "cutoff": (("cutoff ", "unstable section: cutoff "),
               lambda x: FilterDesign(4, x, 1500.0).cutoff_hz),
}


@pytest.mark.parametrize("site", list(SCALAR_SITES))
@pytest.mark.parametrize("value,number", POSITIVE_FINITE, ids=KINDS)
def test_every_scalar_site_reads_a_value_as_positive_finite_does(site, value, number):
    # a site converts what positive_finite converts, or rejects it with a ValueError of
    # its own wording: never an OverflowError, a TypeError or repr's digit-limit error
    starts, read = SCALAR_SITES[site]
    try:
        result = read(value)
    except ValueError as exc:
        assert str(exc).startswith(starts), exc
        return
    assert type(result) is float
    if number is None:  # of the numbers positive_finite rejects, a state takes only -0.0
        assert site.startswith("initial-") and value == 0.0 and type(value) is float
    assert result == (value if number is None else number)


def test_a_value_too_long_for_repr_is_shown_by_its_size():
    with pytest.raises(ValueError, match=r"^L must be a positive finite number, "
                                         r"got <int of 16610 bits>$"):
        MotionSpec(L=10**5000, k=5.0, n=2, m=0.1)
    with pytest.raises(ValueError, match=r"^cutoff must lie strictly between 0 and the Nyquist "
                                         r"frequency 750\.0 Hz, got <int of 16610 bits> Hz$"):
        FilterDesign(4, 10**5000, 1500.0)


class TestLoadBeam:
    DOC = BENCH_BEAM

    def write(self, tmp_path, doc):
        path = tmp_path / "beam.json"
        path.write_text(json.dumps(doc))
        return path

    def test_round_trip(self, tmp_path, bench_beam):
        assert load_beam(self.write(tmp_path, self.DOC)) == bench_beam

    def test_tip_mass_override(self, tmp_path):
        beam = load_beam(self.write(tmp_path, self.DOC), tip_mass=0.06)
        assert beam.m_tip == 0.06

    def test_missing_geometry_key(self, tmp_path):
        doc = {key: val for key, val in self.DOC.items() if key != "E"}
        with pytest.raises(ValueError, match="missing keys: E"):
            load_beam(self.write(tmp_path, doc))

    def test_missing_tip_mass(self, tmp_path):
        doc = {key: val for key, val in self.DOC.items() if key != "m_tip"}
        with pytest.raises(ValueError, match="m_tip"):
            load_beam(self.write(tmp_path, doc))
        assert load_beam(self.write(tmp_path, doc), tip_mass=0.02).m_tip == 0.02
