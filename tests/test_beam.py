import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_BEAM
from flexmove import (BeamSpec, MotionSpec, area_moment, load_beam,
                      natural_frequency, tip_stiffness)

# Frozen chain values for the bench strip (l=0.305, b=0.013, h=5e-4, E=2.1e11).
BENCH_I = 1.3541666666666668e-13
BENCH_C = 3.0068596049889647
BENCH_K = 5.780099581023156


def test_area_moment_bench():
    assert area_moment(0.013, 0.5e-3) == pytest.approx(BENCH_I, rel=1e-12)
    assert area_moment(0.013, 0.5e-3) == pytest.approx(1.3542e-13, rel=1e-4)


def test_area_moment_unit_section():
    assert area_moment(1.0, 1.0) == pytest.approx(1.0 / 12.0, rel=1e-15)


def test_area_moment_cubic_in_thickness():
    assert area_moment(0.01, 2e-3) == pytest.approx(8.0 * area_moment(0.01, 1e-3), rel=1e-12)


def test_tip_stiffness_bench():
    assert tip_stiffness(2.1e11, BENCH_I, 0.305) == pytest.approx(BENCH_C, rel=1e-12)
    assert tip_stiffness(2.1e11, BENCH_I, 0.305) == pytest.approx(3.007, rel=1e-3)


def test_tip_stiffness_unit():
    assert tip_stiffness(1.0, 1.0, 1.0) == 3.0


def test_tip_stiffness_cubic_in_length():
    assert tip_stiffness(1e9, 1e-12, 0.4) == pytest.approx(tip_stiffness(1e9, 1e-12, 0.2) / 8.0, rel=1e-12)


def test_natural_frequency_bench():
    assert natural_frequency(BENCH_C, 0.09) == pytest.approx(BENCH_K, rel=1e-12)
    assert natural_frequency(BENCH_C, 0.09) == pytest.approx(5.78, rel=5e-3)
    assert natural_frequency(BENCH_C, 0.06) == pytest.approx(7.079147317990782, rel=1e-12)
    assert natural_frequency(1.0, 1.0) == 1.0


def test_quadruple_mass_halves_frequency_exactly():
    assert natural_frequency(BENCH_C, 4 * 0.09) == natural_frequency(BENCH_C, 0.09) / 2.0


@settings(max_examples=50, deadline=None)
@given(c=st.floats(1e-3, 1e6), m=st.floats(1e-3, 1e3))
def test_frequency_scaling_property(c, m):
    assert natural_frequency(c, 4.0 * m) == natural_frequency(c, m) / 2.0


@pytest.mark.parametrize("fn,args", [
    (area_moment, (0.0, 1.0)), (area_moment, (1.0, -1.0)),
    (tip_stiffness, (0.0, 1.0, 1.0)), (tip_stiffness, (1.0, 1.0, 0.0)),
    (natural_frequency, (0.0, 1.0)), (natural_frequency, (1.0, 0.0)),
])
def test_non_positive_inputs_rejected(fn, args):
    with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("field", ["l", "b", "E", "m_tip"])
    def test_bools_rejected(self, field):
        params = dict(BENCH_BEAM)
        params[field] = True
        with pytest.raises(ValueError, match=f"^{field} must be a positive finite number"):
            BeamSpec(**params)


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
