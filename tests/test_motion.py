import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import BENCH, TWO_PI, spec_params_with_mass
from flexmove import MotionSpec, TimeSeries, integrate, sweep_n
from flexmove import motion
from flexmove.motion import simpson, simpson_grid, timing_residual
from flexmove.timeseries import read_numeric_csv
from reference import acceleration, moment_integrals, position, velocity

# Frozen from t1 = 2*pi*n/k with the bench numbers (L=0.41, k=5.78, n=2).
BENCH_T1 = 2.174112563037919

# Each closed-form figure is a short chain of roundings, each within 2**-53
# relative.  The longest, the drive energy m*(L*p/pi)**2, counts ten (pi's own
# and the doubling by the square included), so every figure lies within
# 5 * 2**-52 of its exact value; the bound leaves room for the reference's own
# rounding to a float.
FIGURE_ULPS = 8


def make(params, **kw):
    L, k, n, m = params
    return MotionSpec(L=L, k=k, n=float(n), m=m, **kw)


@st.composite
def spec_and_rate(draw):
    """A strict or exploratory spec and a rate in [1 Hz, 5 kHz] that gives at
    least two setpoints: any float, a whole number of hertz, or a rate within
    two ulps of putting t1 on the grid."""
    L, k, m = draw(st.floats(0.1, 2.0)), draw(st.floats(1.0, 50.0)), draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):
        spec = MotionSpec(L=L, k=k, n=float(draw(st.integers(2, 6))), m=m)
    else:
        spec = MotionSpec(L=L, k=k, n=draw(st.floats(1.001, 6.0)), m=m, exploratory=True)
    lowest = max(1.0, 1.0 / spec.t1)
    kind = draw(st.sampled_from(["float", "whole", "near-integer"]))
    if kind == "float":
        rate = draw(st.floats(lowest, 5000.0))
    elif kind == "whole":
        rate = float(draw(st.integers(math.ceil(lowest), 5000)))
    else:
        rate = draw(st.integers(math.ceil(lowest * spec.t1), int(5000.0 * spec.t1))) / spec.t1
        steps = draw(st.integers(-2, 2))
        for _ in range(abs(steps)):
            rate = math.nextafter(rate, math.copysign(math.inf, steps))
    assume(1.0 <= rate <= 5000.0 and rate * spec.t1 >= 1.0)
    return spec, rate


class TestSpecConstruction:
    def test_bench_derived_quantities(self, bench_spec):
        assert bench_spec.p == pytest.approx(2.89, rel=1e-12)
        assert bench_spec.t1 == pytest.approx(BENCH_T1, rel=1e-12)
        assert bench_spec.t_c == pytest.approx(TWO_PI / 5.78, rel=1e-12)
        assert bench_spec.t1 == pytest.approx(2.0 * bench_spec.t_c, rel=1e-12)
        assert bench_spec.guarantees_quiescence

    def test_resonant_multiple_rejected(self):
        with pytest.raises(ValueError, match="resonant"):
            MotionSpec(L=0.41, k=5.78, n=1.0, m=0.09)

    def test_non_integer_needs_exploratory(self):
        with pytest.raises(ValueError, match="not an integer"):
            MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09)

    def test_exploratory_spec(self):
        spec = MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True)
        assert spec.p == pytest.approx(5.78 / 2.5, rel=1e-12)
        assert spec.t1 == pytest.approx(TWO_PI / spec.p, rel=1e-12)
        assert spec.t1 == pytest.approx(2.7176, abs=5e-4)
        assert not spec.guarantees_quiescence

    @pytest.mark.parametrize("n", [1.0, 0.5, 0.9])
    def test_exploratory_still_rejects_resonance(self, n):
        with pytest.raises(ValueError, match="exceed 1"):
            MotionSpec(L=0.41, k=5.78, n=n, m=0.09, exploratory=True)

    @pytest.mark.parametrize("field,value", [
        ("L", 0.0), ("L", -0.41), ("k", 0.0), ("m", -1.0), ("L", math.nan), ("k", math.inf),
        ("L", True), ("k", True), ("m", True),
    ])
    def test_non_positive_inputs_rejected(self, field, value):
        params = dict(BENCH)
        params[field] = value
        with pytest.raises(ValueError, match=field):
            MotionSpec(**params)

    def test_closed_form_figures(self, bench_spec):
        L, p, m = bench_spec.L, bench_spec.p, bench_spec.m
        assert bench_spec.peak_acceleration == L * p**2 / TWO_PI
        assert bench_spec.action == m * L**2 * p * (math.pi / 3.0 + 1.0 / (4.0 * math.pi))
        assert bench_spec.drive_energy == m * (L * p / math.pi) ** 2

    @settings(max_examples=200, deadline=None)
    @given(L=st.floats(1e-3, 1e3), k=st.floats(1e-3, 1e4), n=st.integers(2, 50),
           m=st.floats(1e-3, 1e3))
    def test_closed_form_figures_match_mpmath(self, L, k, n, m):
        spec = MotionSpec(L=L, k=k, n=float(n), m=m)
        for name, exact in reference.figures(spec).items():
            assert abs(getattr(spec, name) - exact) <= FIGURE_ULPS * 2**-52 * exact, name

    @pytest.mark.parametrize("params,figure", [
        (dict(BENCH, L=1e200), "the action"),
        (dict(BENCH, m=1e307, L=10.0), "the action"),
        (dict(BENCH, k=1e300), "the peak acceleration"),
        (dict(L=1e-300, k=1e155, n=400.0, m=1.0), "k*k"),
        (dict(BENCH, k=1e-308), "the motion time t1"),
        (dict(BENCH, k=5e-324, n=4.0), "the motion time t1"),
    ], ids=["L**2", "m*L**2", "p**2", "k*k", "t1", "p-underflow"])
    def test_figures_outside_the_float_range_rejected(self, params, figure):
        # ** raised OverflowError and * gave inf, which the RK4 loop turned into NaN
        message = f"L, k, n and m put {figure} outside the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MotionSpec(**params)

    def test_numpy_integers_accepted(self):
        spec = MotionSpec(L=np.int64(1), k=np.int64(6), n=np.int64(2), m=np.int64(1))
        assert spec == MotionSpec(L=1.0, k=6.0, n=2.0, m=1.0)
        assert all(type(getattr(spec, name)) is float for name in ("L", "k", "n", "m"))


class TestMotionLaw:
    def test_position_examples(self, bench_spec):
        assert position(bench_spec, 0.0) == 0.0
        assert position(bench_spec, bench_spec.t1) == pytest.approx(0.41, rel=1e-12)
        assert position(bench_spec, bench_spec.t1 / 2) == pytest.approx(0.205, rel=1e-12)

    def test_velocity_examples(self, bench_spec):
        assert velocity(bench_spec, 0.0) == 0.0
        assert velocity(bench_spec, bench_spec.t1) == pytest.approx(0.0, abs=1e-15)
        # peak at mid-move is L*p/pi
        assert velocity(bench_spec, bench_spec.t1 / 2) == pytest.approx(0.3771653841391736, rel=1e-12)
        assert velocity(bench_spec, bench_spec.t1 / 4) == pytest.approx(0.18858269206958678, rel=1e-12)

    def test_acceleration_examples(self, bench_spec):
        assert acceleration(bench_spec, 0.0) == 0.0
        assert acceleration(bench_spec, bench_spec.t1) == pytest.approx(0.0, abs=1e-12)
        assert bench_spec.peak_acceleration == pytest.approx(0.5450039800811058, rel=1e-12)
        assert acceleration(bench_spec, bench_spec.t1 / 4) == pytest.approx(
            bench_spec.peak_acceleration, rel=1e-12)
        assert acceleration(bench_spec, 3 * bench_spec.t1 / 4) == pytest.approx(
            -bench_spec.peak_acceleration, rel=1e-12)

    def test_out_of_range_rejected(self, bench_spec):
        with pytest.raises(ValueError, match="outside the motion interval"):
            position(bench_spec, -0.1)
        with pytest.raises(ValueError, match="outside the motion interval"):
            velocity(bench_spec, bench_spec.t1 * 1.001)
        with pytest.raises(ValueError, match="outside the motion interval"):
            acceleration(bench_spec, np.array([0.0, bench_spec.t1 + 0.1]))

    def test_array_evaluation_matches_scalars(self, bench_spec):
        t = np.linspace(0.0, bench_spec.t1, 7)
        s = position(bench_spec, t)
        assert isinstance(s, np.ndarray)
        assert s[3] == position(bench_spec, float(t[3]))

    @settings(max_examples=60, deadline=None)
    @given(params=spec_params_with_mass)
    def test_boundary_conditions(self, params):
        spec = make(params)
        v_scale = spec.L * spec.p / math.pi
        a_scale = spec.peak_acceleration
        assert position(spec, 0.0) == 0.0
        assert velocity(spec, 0.0) == 0.0
        assert acceleration(spec, 0.0) == 0.0
        assert abs(position(spec, spec.t1) - spec.L) <= 1e-12 * spec.L
        assert abs(velocity(spec, spec.t1)) <= 1e-12 * v_scale
        assert abs(acceleration(spec, spec.t1)) <= 1e-12 * a_scale

    @settings(max_examples=60, deadline=None)
    @given(params=spec_params_with_mass, frac=st.floats(0.0, 1.0))
    def test_symmetries(self, params, frac):
        spec = make(params)
        t = frac * spec.t1
        # the control is skew symmetric and velocity mirror symmetric about mid-move
        assert abs(acceleration(spec, spec.t1 - t) + acceleration(spec, t)) \
            <= 1e-12 * spec.peak_acceleration
        assert abs(velocity(spec, spec.t1 - t) - velocity(spec, t)) \
            <= 1e-12 * spec.L * spec.p / math.pi
        assert velocity(spec, t) >= 0.0

    def test_position_monotone(self, bench_spec):
        s = position(bench_spec, np.linspace(0.0, bench_spec.t1, 4001))
        assert np.all(np.diff(s) >= -1e-15 * bench_spec.L)

    def test_derivative_consistency(self, bench_spec):
        # central differences converge at second order onto the closed forms
        t = np.linspace(0.05, bench_spec.t1 - 0.05, 17)
        for h in (1e-4, 5e-5):
            ds = (position(bench_spec, t + h) - position(bench_spec, t - h)) / (2 * h)
            dv = (velocity(bench_spec, t + h) - velocity(bench_spec, t - h)) / (2 * h)
            bound = bench_spec.L * bench_spec.p**3 / TWO_PI * h * h  # |f'''| h^2 scale
            assert np.max(np.abs(ds - velocity(bench_spec, t))) <= bound
            assert np.max(np.abs(dv - acceleration(bench_spec, t))) <= bench_spec.p * bound


class TestSampling:
    def test_bench_sample_count(self, bench_spec):
        # floor(rate * t1) + 1 with t1 = 2.1741125630...
        table = bench_spec.sample_uniform(1500.0)
        assert len(table) == 3262
        assert (table.t[0], table.s[0], table.v[0], table.a[0]) == (0.0, 0.0, 0.0, 0.0)
        assert table.t[-1] == pytest.approx(bench_spec.t1, abs=1 / 1500.0)
        assert table.s[-1] == pytest.approx(0.41, rel=1e-9)

    def test_low_rate_count(self, bench_spec):
        assert len(bench_spec.sample_uniform(1.0)) == 3

    def test_samples_match_closed_forms_exactly(self, bench_spec):
        table = bench_spec.sample_uniform(333.0)
        assert np.array_equal(table.s, position(bench_spec, table.t))
        assert np.array_equal(table.v, velocity(bench_spec, table.t))
        assert np.array_equal(table.a, acceleration(bench_spec, table.t))

    @settings(max_examples=60, deadline=None)
    @given(case=spec_and_rate(), block=st.integers(1, 5000) | st.just(1 << 16))
    def test_sampler_matches_array_laws_bit_for_bit(self, case, block):
        # the sampler runs on math.sin/cos, the array laws on numpy's: a platform
        # whose libm and numpy round differently fails here
        spec, rate = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(motion, "_BLOCK_ROWS", block)
            table = spec.sample_uniform(rate)
        t = np.arange(math.floor(rate * spec.t1) + 1) / rate
        expected = {"t": t, "s": position(spec, t), "v": velocity(spec, t),
                    "a": acceleration(spec, t)}
        for name, column in expected.items():
            assert np.asarray(getattr(table, name)).tobytes() == column.tobytes(), (
                f"column {name} at {rate!r} Hz differs from the array law")

    def test_rate_below_two_setpoints_rejected(self, bench_spec):
        with pytest.raises(ValueError, match="single setpoint") as info:
            bench_spec.sample_uniform(0.3)
        lowest = float(re.search(r"lowest admissible rate is (\S+) Hz", str(info.value))[1])
        assert lowest == pytest.approx(1.0 / BENCH_T1, rel=1e-15)
        assert len(bench_spec.sample_uniform(lowest)) == 2
        with pytest.raises(ValueError, match="single setpoint"):
            bench_spec.sample_uniform(math.nextafter(lowest, 0.0))

    def test_rate_must_be_positive(self, bench_spec):
        with pytest.raises(ValueError, match="positive"):
            bench_spec.sample_uniform(0.0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rate_must_be_finite(self, bench_spec, rate):
        with pytest.raises(ValueError, match="finite"):
            bench_spec.sample_uniform(rate)

    def test_setpoint_csv_round_trip(self, bench_spec, tmp_path):
        path = tmp_path / "setpoints.csv"
        table = bench_spec.sample_uniform(200.0)
        table.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,s,v,a"
        _, (t, s, _, a) = read_numeric_csv(path, n_columns=4)
        assert TimeSeries(t, s).rate == pytest.approx(200.0, rel=1e-9)
        assert np.allclose(s, table.s, rtol=1e-11, atol=1e-14)
        assert np.interp(t[5], t, a) == a[5]


class TestMoments:
    def test_strict_moments_vanish(self, bench_spec):
        mom = moment_integrals(bench_spec)
        assert abs(mom.impulse) <= 1e-8
        assert abs(mom.distance - 0.41) <= 1e-8 * 0.41
        assert abs(mom.cos_moment) <= 1e-8
        assert abs(mom.sin_moment) <= 1e-8

    @pytest.mark.parametrize("n", [3.0, 5.0])
    def test_other_integer_multiples(self, n):
        mom = moment_integrals(MotionSpec(L=1.3, k=12.0, n=n, m=0.2))
        assert abs(mom.impulse) <= 1e-8
        assert abs(mom.distance - 1.3) <= 1e-8 * 1.3
        assert max(abs(mom.cos_moment), abs(mom.sin_moment)) <= 1e-8

    def test_mistimed_moments_do_not_vanish(self):
        spec = MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True)
        mom = moment_integrals(spec)
        # impulse and distance close regardless of timing; the oscillation
        # moments pick up the mismatch
        assert abs(mom.impulse) <= 1e-8
        assert abs(mom.distance - 0.41) <= 1e-8 * 0.41
        assert max(abs(mom.cos_moment), abs(mom.sin_moment)) > 1e-3 * spec.L * spec.p
        # value pinned by adaptive quadrature: -4*L*p/(21*pi)
        assert mom.cos_moment == pytest.approx(-0.05747282044025499, rel=1e-8)
        assert abs(mom.sin_moment) <= 1e-10

    def test_coarse_step_rejected(self, bench_spec):
        with pytest.raises(ValueError, match="step"):
            moment_integrals(bench_spec, step=bench_spec.t_c)

    @settings(max_examples=100, deadline=None)
    @given(t_end=st.floats(1e-3, 1e3), intervals=st.integers(2, 5000),
           slack=st.floats(0.5, 1.5), omega=st.floats(0.0, 50.0), curve=st.floats(-1.0, 1.0))
    def test_simpson_matches_scipy_bit_for_bit(self, t_end, intervals, slack, omega, curve):
        from scipy.integrate import simpson as reference

        grid = simpson_grid(t_end, t_end / intervals * slack)
        y = np.sin(omega * grid) + curve * grid**2
        assert simpson(y, grid) == float(reference(y, x=grid))

    def test_a_fraction_step_is_read_as_a_float(self):
        # the grid-size message formats the step with :g, which Fraction takes only
        # from Python 3.12 on
        assert np.array_equal(simpson_grid(1.0, Fraction(1, 1024)), simpson_grid(1.0, 2.0**-10))

    def test_oversized_quadrature_grid_rejected(self):
        # 1.5e7 points: past the limit, yet small enough (120 MB) to allocate if unguarded
        with pytest.raises(ValueError, match="^quadrature grid .* more than the limit of 10000000"):
            simpson_grid(1.0, 1.0 / 1.5e7)


#: a step that splits [0, 1] and [2, 3] into 1024 intervals exactly: 1025 grid points
GRID_STEP = 2.0**-10

#: every grid sized from user input, built with 1025 points (k = 4*pi and n = 2 give t1 = 1)
USER_GRIDS = {
    "sample_uniform": lambda: MotionSpec(L=1.0, k=2 * TWO_PI, n=2, m=1.0).sample_uniform(1024.0),
    "integrate": lambda: integrate(lambda t: 0.0, 5.78, 1.0, GRID_STEP),
    # a small range at a fine step: (n_to + n_from) / step or (n_to - n_from) * step
    # would count 5121 or 1 points
    "sweep_n": lambda: sweep_n(0.41, 5.78, 0.09, 2.0, 3.0, GRID_STEP),
    "simpson_grid": lambda: simpson_grid(1.0, GRID_STEP),
}


@pytest.mark.parametrize("build", USER_GRIDS.values(), ids=USER_GRIDS)
def test_a_grid_at_the_limit_is_accepted_and_one_point_more_is_not(monkeypatch, build):
    # check_grid_size reads the limit when it is called
    monkeypatch.setattr(motion, "MAX_GRID_POINTS", 1025)
    assert len(build()) == 1025
    monkeypatch.setattr(motion, "MAX_GRID_POINTS", 1024)
    with pytest.raises(ValueError, match="would hold 1025 points, more than the limit of 1024$"):
        build()


class TestTimingResidual:
    @pytest.mark.parametrize("n", [2.0, 3.0, 7.0])
    def test_integer_multiples_exact(self, n):
        assert timing_residual(n) == (0.0, 0.0)

    def test_half_integer(self):
        cos_term, sin_term = timing_residual(2.5)
        assert cos_term == pytest.approx(-2.0, rel=1e-15)
        assert abs(sin_term) <= 1e-15

    def test_rejects_resonant_range(self):
        with pytest.raises(ValueError, match="exceed 1"):
            timing_residual(1.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 1000))
    def test_any_integer_is_machine_exact(self, n):
        assert timing_residual(float(n)) == (0.0, 0.0)
