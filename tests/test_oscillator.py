import math
from array import array

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference
from conftest import TWO_PI, spec_params
from flexmove import oscillator
from flexmove import (MotionSpec, ResidualReport, final_relative_state, integrate,
                      relative_motion, residual_report, simulate_relative, tip_trace,
                      write_relative_trace)
from flexmove.oscillator import OscillatorTrace, action_value
from flexmove.timeseries import read_numeric_csv
from reference import acceleration, euler_lagrange_residual, position, velocity
from test_acceptance import ORACLE_TOL

# Frozen oracle values for the bench move (L=0.41, k=5.78, n=2, m=0.09):
# quarter-move deflection equals minus the common gain L*p^2/(2*pi*(k^2-p^2)),
# and the action of the motion law is m*L^2*p*(1/(4*pi) + pi/3), confirmed by
# adaptive quadrature.
BENCH_XR_QUARTER = -0.02175117555589236
BENCH_ACTION = 0.04926577023211798

# Frozen closed-form residual amplitudes for mistimed bench moves.
AMP_N_2_5 = 0.009943394539836512
AMP_N_10_5 = 0.00011376881624526895

class TestClosedForm:
    def test_strict_move_ends_at_rest(self, bench_spec):
        x, v, a = relative_motion(bench_spec, bench_spec.t1)
        assert abs(x) <= 1e-14
        assert abs(v) <= 1e-14
        assert abs(a) <= 1e-13
        assert final_relative_state(bench_spec) == (0.0, 0.0)

    def test_mid_move_node(self, bench_spec):
        x, _, _ = relative_motion(bench_spec, bench_spec.t1 / 2)
        assert abs(x) <= 1e-15

    def test_quarter_move_deflection(self, bench_spec):
        x, _, _ = relative_motion(bench_spec, bench_spec.t1 / 4)
        assert x == pytest.approx(BENCH_XR_QUARTER, rel=1e-12)

    def test_velocity_is_displacement_derivative(self, bench_spec):
        t = np.linspace(0.05, bench_spec.t1 - 0.05, 13)
        h = 1e-5
        x_plus = relative_motion(bench_spec, t + h)[0]
        x_minus = relative_motion(bench_spec, t - h)[0]
        v = relative_motion(bench_spec, t)[1]
        assert np.max(np.abs((x_plus - x_minus) / (2 * h) - v)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(params=spec_params, frac=st.floats(0.0, 1.0))
    def test_closed_form_satisfies_oscillator_equation(self, params, frac):
        L, k, n = params
        spec = MotionSpec(L=L, k=k, n=float(n), m=0.1)
        t = frac * spec.t1
        x, _, a = relative_motion(spec, t)
        residual = a + k * k * x + acceleration(spec, t)
        assert abs(residual) <= 1e-10 * max(1.0, spec.peak_acceleration)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_resonance_interior_motion_matches_mpmath(self, eps):
        # sin(k*t) - sin(p*t) and cos(k*t) - cos(p*t) cancel as n -> 1+, at every
        # interior t; each column is held to 1e-12 of its largest value over the move
        spec = MotionSpec(L=0.41, k=5.78, n=1.0 + eps, m=0.09, exploratory=True)
        times = spec.t1 * np.arange(1, 42) / 42
        ref = reference.relative_motion(spec, times)
        error = np.abs(np.array(relative_motion(spec, times)) - ref).max(axis=1)
        assert (error <= 1e-12 * np.abs(ref).max(axis=1)).all(), error


# no shrinking: each shrink step re-runs the RK4s, so a broken route would take
# minutes to report; the failing example prints as drawn
@settings(max_examples=30, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(params=spec_params, per_period=st.integers(51, 90),
       x0=st.floats(-1.0, 1.0), v0=st.floats(-1.0, 1.0))
def test_integrate_matches_the_numpy_scalar_loop(params, per_period, x0, v0):
    # bit for bit, on an array law and on a constant: integrate calls the forcing
    # point by point, the reference once per grid
    L, k, n = params
    spec = MotionSpec(L=L, k=k, n=float(n), m=0.1)
    steps = per_period * n
    for forcing in (lambda t: acceleration(spec, t), lambda t: 0.25):
        trace = integrate(forcing, spec.k, spec.t1, spec.t1 / steps, initial_state=(x0, v0))
        t, xs, vs = reference.rk4(forcing, spec.k, spec.t1, steps, x0, v0)
        assert (trace.t.tobytes(), trace.x.tobytes(), trace.v.tobytes()) == \
            (t.tobytes(), xs.tobytes(), vs.tobytes())


@settings(max_examples=40, deadline=None)
@given(params=spec_params, exploratory_n=st.floats(1.01, 10.0), strict=st.booleans(),
       steps_per_move=st.floats(500.0, 3000.0))
# exactly 50 steps per period, where t1 / 500 rounds an ulp above 2*pi/k/50
@example(params=(1.0, 9.0, 10), exploratory_n=2.0, strict=True, steps_per_move=500.0)
def test_simulate_relative_matches_integrate(params, exploratory_n, strict, steps_per_move):
    # through one integrator, the math law of simulate_relative equals the numpy law
    # `acceleration` bit for bit, for mistimed moves too and for steps that do not
    # divide t1
    L, k, n = params
    spec = (MotionSpec(L=L, k=k, n=float(n), m=0.1) if strict
            else MotionSpec(L=L, k=k, n=exploratory_n, m=0.1, exploratory=True))
    step = spec.t1 / steps_per_move
    trace = simulate_relative(spec, step)
    reference = integrate(lambda t: acceleration(spec, t), spec.k, spec.t1, step)
    for name in ("t", "x", "v"):
        assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name


def test_default_integration_matches_the_numpy_scalar_loop(bench_spec):
    # the simulate default: 20 000 steps
    trace = simulate_relative(bench_spec)
    _, xs, vs = reference.rk4(lambda t: acceleration(bench_spec, t), bench_spec.k,
                              bench_spec.t1, 20_000)
    assert trace.x.tobytes() == xs.tobytes() and trace.v.tobytes() == vs.tobytes()


lockstep_specs = st.one_of(
    spec_params.map(lambda p: MotionSpec(L=p[0], k=p[1], n=float(p[2]), m=0.1)),
    st.tuples(st.floats(0.1, 2.0), st.floats(1.0, 50.0), st.floats(1.01, 10.0)).map(
        lambda p: MotionSpec(L=p[0], k=p[1], n=p[2], m=0.1, exploratory=True)))


# no shrinking, as above: a list of 20-30 specs shrinks for minutes
@settings(max_examples=5, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(specs=st.lists(lockstep_specs, min_size=20, max_size=30), n_steps=st.integers(500, 3000))
def test_each_lockstep_column_equals_simulate_relative(specs, n_steps):
    # n_steps >= 50 * n, so every spec takes the step t1 / n_steps
    t, x, v = reference.lockstep(specs, n_steps)
    for column, spec in enumerate(specs):
        trace = simulate_relative(spec, spec.t1 / n_steps)
        assert (t[:, column].tobytes(), x[:, column].tobytes(), v[:, column].tobytes()) == \
            (np.asarray(trace.t).tobytes(), np.asarray(trace.x).tobytes(),
             np.asarray(trace.v).tobytes())


# a seed has nothing to shrink, and each run takes seconds
@settings(max_examples=1, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1))
def test_c2_bound_holds_in_lockstep_over_a_thousand_specs(seed):
    # C2's uniform bound, at C2's 20 000 steps, over 1000 strict specs of C2's
    # domain and 200 exploratory ones with n - 1 log-uniform in [1e-9, 1e-1];
    # every 20th node is checked, which keeps the held states small
    rng = np.random.default_rng(seed)
    L, k = rng.uniform(0.1, 2.0, 1200), rng.uniform(1.0, 50.0, 1200)
    specs = ([MotionSpec(L=L[i], k=k[i], n=float(rng.integers(2, 11)), m=0.1)
              for i in range(1000)]
             + [MotionSpec(L=L[i], k=k[i], n=1.0 + 10.0 ** rng.uniform(-9.0, -1.0), m=0.1,
                           exploratory=True) for i in range(1000, 1200)])
    t, x, _ = reference.lockstep(specs, 20_000, stride=20)
    for column, spec in enumerate(specs):
        error = np.max(np.abs(x[:, column] - relative_motion(spec, t[:, column])[0]))
        assert error <= ORACLE_TOL, spec


def test_integrate_takes_a_scalar_only_forcing():
    # math.sin maps one float and no array; x = -(sin t - sin(k t)/k)/(k**2 - 1)
    k = 5.78
    trace = integrate(lambda t: math.sin(t), k, 2.0, 1e-3)
    exact = [-(math.sin(t) - math.sin(k * t) / k) / (k * k - 1.0) for t in trace.t]
    assert len(trace) == 2001
    assert max(abs(x - e) for x, e in zip(trace.x, exact)) <= 1e-11


class TestIntegrator:
    def test_bench_residual(self, bench_spec):
        assert abs(simulate_relative(bench_spec).x[-1]) <= 1e-8

    def test_zero_forcing_stays_zero(self):
        trace = integrate(lambda t: 0.0, 5.78, 1.0, 1e-3)
        assert np.array_equal(trace.x, np.zeros_like(trace.x))
        assert np.array_equal(trace.v, np.zeros_like(trace.v))

    def test_free_oscillation_matches_cosine(self):
        k, x0 = 5.78, 0.02
        period = TWO_PI / k
        trace = integrate(lambda t: 0.0, k, period, period / 2000, initial_state=(x0, 0.0))
        t, x = np.asarray(trace.t), np.asarray(trace.x)
        assert np.max(np.abs(x - x0 * np.cos(k * t))) <= 1e-8 * x0

    def test_grid_lands_on_t_end(self, bench_spec):
        trace = simulate_relative(bench_spec)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == bench_spec.t1
        assert len(trace) == 20_001

    def test_coarse_step_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            integrate(lambda t: 0.0, 5.78, 10.0, 1.0)

    def test_a_step_just_past_fifty_per_period_is_rejected(self):
        with pytest.raises(ValueError, match="too coarse"):
            integrate(lambda t: 0.0, 5.78, 10.0, 2 * math.pi / 5.78 / 50 * (1 + 1e-9))

    def test_the_rounding_slack_above_the_coarsest_step_is_closed(self):
        step = TWO_PI / 5.78 / 50 * (1.0 + 1e-12)
        assert len(integrate(lambda t: 0.0, 5.78, 10 * step, step)) == 11
        with pytest.raises(ValueError, match="too coarse"):
            integrate(lambda t: 0.0, 5.78, 10 * step, math.nextafter(step, math.inf))

    def test_non_finite_frequency_rejected(self):
        # a NaN k used to pass every comparison and return an all-NaN trace
        with pytest.raises(ValueError, match="^k must be a positive finite number"):
            integrate(lambda t: 0.0, math.nan, 10.0, 0.01)

    @pytest.mark.parametrize("initial_state", [(1.0,), (), (1.0, 0.0, 0.0), (None, 0.0), 0.0])
    def test_an_initial_state_that_is_not_a_pair_is_rejected(self, initial_state):
        with pytest.raises(ValueError, match="^initial_state must be"):
            integrate(lambda t: 0.0, 5.0, 1.0, 1e-3, initial_state)

    @pytest.mark.parametrize("forcing, k, initial_state", [
        (lambda t: 1.0, 1e160, (0.0, 0.0)),
        (lambda t: 0.0, 5.78, (math.nan, 0.0)),
        (lambda t: math.inf, 5.78, (0.0, 0.0)),
    ], ids=["k*k-overflows", "nan-initial-state", "inf-forcing"])
    def test_a_non_finite_run_is_rejected(self, forcing, k, initial_state):
        period = TWO_PI / k
        with pytest.raises(ValueError, match="^RK4 state leaves the float range"):
            integrate(forcing, k, period, period / 100, initial_state)

    @settings(max_examples=12, deadline=None)
    @given(params=spec_params)
    def test_matches_closed_form_uniformly(self, params):
        L, k, n = params
        spec = MotionSpec(L=L, k=k, n=float(n), m=0.1)
        trace = simulate_relative(spec)
        x_closed = relative_motion(spec, trace.t)[0]
        assert np.max(np.abs(np.asarray(trace.x) - x_closed)) <= 1e-8

    @settings(max_examples=12, deadline=None)
    @given(params=spec_params)
    def test_every_strict_spec_ends_quiescent(self, params):
        # the central guarantee, measured on the integrated trace
        L, k, n = params
        spec = MotionSpec(L=L, k=k, n=float(n), m=0.1)
        report = residual_report(spec, simulate_relative(spec))
        assert report.amplitude <= 1e-6 * spec.L
        assert report.quiescent

    def test_setpoint_file_can_drive_the_integrator(self, bench_spec, tmp_path):
        # the exported t,s,v,a table is a valid forcing source for the oracle
        path = tmp_path / "setpoints.csv"
        bench_spec.sample_uniform(2000.0).write_csv(path)
        _, (t, _, _, a) = read_numeric_csv(path, n_columns=4)
        trace = integrate(lambda times: np.interp(times, t, a), bench_spec.k,
                          bench_spec.t1, bench_spec.t1 / 20_000)
        x_closed = relative_motion(bench_spec, trace.t)[0]
        # linear interpolation of the control limits the agreement, not RK4
        assert np.max(np.abs(np.asarray(trace.x) - x_closed)) <= 1e-6


REPORT_SPECS = [
    MotionSpec(L=0.41, k=5.78, n=2.0, m=0.09),
    MotionSpec(L=1.3, k=12.0, n=5.0, m=0.4),
    MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True),
    MotionSpec(L=0.41, k=5.78, n=3.0, m=0.09, exploratory=True),
    MotionSpec(L=0.02, k=40.0, n=7.25, m=1.5, exploratory=True),
]

REPORT_KEYS = ["L", "k", "n", "m", "p", "t1", "x_end", "v_end", "amplitude", "quiescent",
               "action", "tolerance"]


class TestResidualReport:
    def test_an_amplitude_equal_to_the_tolerance_is_quiescent(self, bench_spec):
        report = ResidualReport(bench_spec, bench_spec.L * 1e-6, 0.0)
        assert report.amplitude == report.tolerance
        assert report.quiescent

    @pytest.mark.parametrize("route", ["closed-form", "rk4"])
    @pytest.mark.parametrize("spec", REPORT_SPECS,
                             ids=[f"n={s.n:g}{'-exploratory' * s.exploratory}"
                                  for s in REPORT_SPECS])
    def test_verdict_fields_derive_from_the_endpoint(self, spec, route):
        report = residual_report(spec, simulate_relative(spec) if route == "rk4" else None)
        assert report == (spec, report.x_end, report.v_end)
        assert report.amplitude == math.hypot(report.x_end, report.v_end / spec.k)
        assert report.tolerance == 1e-6 * spec.L
        assert report.quiescent is (spec.guarantees_quiescence
                                    and report.amplitude <= report.tolerance)
        assert report.quiescent is spec.guarantees_quiescence  # every strict spec here ends at rest
        fields = report.as_dict()
        assert list(fields) == REPORT_KEYS
        assert fields == {"L": spec.L, "k": spec.k, "n": spec.n, "m": spec.m, "p": spec.p,
                          "t1": spec.t1, "x_end": report.x_end, "v_end": report.v_end,
                          "amplitude": report.amplitude, "quiescent": report.quiescent,
                          "action": spec.action, "tolerance": report.tolerance}

    def test_strict_report_quiescent(self, bench_spec):
        report = residual_report(bench_spec, simulate_relative(bench_spec))
        assert report.quiescent
        assert report.amplitude <= 1e-6 * bench_spec.L
        assert report.tolerance == pytest.approx(1e-6 * 0.41)

    @pytest.mark.parametrize("steps", [997, 1000, 1001.5, 2500.6])
    def test_trace_beyond_the_move_reads_the_row_nearest_t1(self, bench_spec, steps):
        # the row np.argmin picks on a grid that runs on to 1.5 t1, with or
        # without a row at t1
        trace = integrate(lambda t: 0.0, bench_spec.k, 1.5 * bench_spec.t1,
                          bench_spec.t1 / steps, initial_state=(0.01, 0.0))
        idx = int(np.argmin(np.abs(np.asarray(trace.t) - bench_spec.t1)))
        report = residual_report(bench_spec, trace)
        assert (report.x_end, report.v_end) == (trace.x[idx], trace.v[idx])

    def test_closed_form_report_is_exact(self, bench_spec):
        report = residual_report(bench_spec)
        assert report.x_end == 0.0
        assert report.v_end == 0.0
        assert report.amplitude == 0.0

    def test_mistimed_move_not_quiescent(self):
        spec = MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True)
        report = residual_report(spec)
        assert not report.quiescent
        assert report.amplitude == pytest.approx(AMP_N_2_5, rel=1e-12)

    def test_longer_mistimed_move_reduces_but_keeps_residual(self):
        spec = MotionSpec(L=0.41, k=5.78, n=10.5, m=0.09, exploratory=True)
        report = residual_report(spec)
        assert report.amplitude == pytest.approx(AMP_N_10_5, rel=1e-12)
        assert 0.0 < report.amplitude < AMP_N_2_5

    def test_exploratory_integer_never_labelled_quiescent(self):
        spec = MotionSpec(L=0.41, k=5.78, n=3.0, m=0.09, exploratory=True)
        report = residual_report(spec)
        assert report.amplitude == 0.0
        assert not report.quiescent

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_resonance_endpoint_matches_mpmath(self, eps):
        # k**2 - p**2 cancels as n -> 1+; the gain is formed from n - 1 instead
        spec = MotionSpec(L=0.41, k=5.78, n=1.0 + eps, m=0.09, exploratory=True)
        x_ref, _, amplitude_ref = reference.end_state(spec)
        assert final_relative_state(spec)[0] == pytest.approx(x_ref, rel=1e-14)
        assert residual_report(spec).amplitude == pytest.approx(amplitude_ref, rel=1e-14)

    @pytest.mark.parametrize("n", [1.0 + 1e-9, 1.0 + 1e-6, 2.0 + 1e-9, 3.0 - 1e-7])
    def test_end_velocity_near_an_integer_matches_mpmath(self, n):
        # cos(theta) - 1 cancels as n nears an integer or 1; v_end keeps its digits
        spec = MotionSpec(L=0.41, k=5.78, n=n, m=0.09, exploratory=True)
        v_ref = reference.end_state(spec)[1]
        assert final_relative_state(spec)[1] == pytest.approx(v_ref, rel=1e-15, abs=0.0)

    def test_amplitude_dominates_displacement(self, bench_spec):
        report = residual_report(bench_spec, simulate_relative(bench_spec))
        assert report.amplitude >= abs(report.x_end)

    def test_partial_trace_rejected(self, bench_spec):
        partial = integrate(lambda t: acceleration(bench_spec, t), bench_spec.k,
                            bench_spec.t1 / 2, bench_spec.t1 / 20_000)
        with pytest.raises(ValueError, match="cover"):
            residual_report(bench_spec, partial)

    @pytest.mark.parametrize("n", [1.5, 2.5, 3.5])
    def test_mistimed_residual_dwarfs_matched_residual(self, n):
        spec = MotionSpec(L=0.41, k=5.78, n=n, m=0.09, exploratory=True)
        mistimed = residual_report(spec, simulate_relative(spec)).amplitude
        for adjacent in {max(2.0, math.floor(n)), math.ceil(n)}:
            matched_spec = MotionSpec(L=0.41, k=5.78, n=adjacent, m=0.09)
            matched = residual_report(matched_spec, simulate_relative(matched_spec)).amplitude
            assert mistimed >= 1e3 * matched


class TestSkewSymmetricFamily:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sine_series_controls_end_quiescent(self, seed):
        # any finite series of sine harmonics of the forcing rate is skew
        # symmetric with zero impulse; away from the resonant harmonic j = n
        # the payload ends at rest for integer n
        rng = np.random.default_rng(seed)
        spec = MotionSpec(L=0.5, k=5.78, n=5.0, m=0.1)
        coeffs = rng.uniform(-1.0, 1.0, size=3)

        def forcing(t):
            t = np.asarray(t, dtype=float)
            return sum(c * np.sin((j + 1) * spec.p * t) for j, c in enumerate(coeffs))

        t1 = spec.t1
        assert forcing(0.0) == pytest.approx(0.0, abs=1e-12)
        assert abs(forcing(t1)) <= 1e-12
        grid = np.linspace(0.0, t1, 200_001)
        u = forcing(grid)
        assert abs(np.trapezoid(u, grid)) <= 1e-9
        assert abs(np.trapezoid(u * np.cos(spec.k * grid), grid)) <= 1e-9
        assert abs(np.trapezoid(u * np.sin(spec.k * grid), grid)) <= 1e-9
        trace = integrate(forcing, spec.k, t1, t1 / 20_000)
        x_end, v_end = trace.x[-1], trace.v[-1]
        amplitude = math.hypot(x_end, v_end / spec.k)
        assert amplitude <= 1e-9 * max(1.0, float(np.max(np.abs(trace.x))))


class TestAction:
    def test_zero_trajectory_has_zero_action(self, bench_spec):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert action_value(bench_spec, position_fn=zero, velocity_fn=zero) == 0.0

    def test_bench_action_baseline(self, bench_spec):
        value = action_value(bench_spec)
        assert value == pytest.approx(BENCH_ACTION, rel=1e-9)
        assert value == pytest.approx(reference.figures(bench_spec)["action"], rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(L=st.floats(1e-3, 1e3), k=st.floats(1e-2, 1e3), n=st.floats(1.01, 50.0),
           m=st.floats(1e-3, 1e3), strict=st.booleans())
    def test_report_action_matches_the_quadrature_oracle(self, L, k, n, m, strict):
        if strict:
            spec = MotionSpec(L=L, k=k, n=float(max(2, round(n))), m=m)
        else:
            spec = MotionSpec(L=L, k=k, n=n, m=m, exploratory=True)
        action = residual_report(spec).as_dict()["action"]
        assert action == pytest.approx(action_value(spec), rel=1e-12)

    def test_report_runs_no_quadrature(self, bench_spec, monkeypatch):
        trace = simulate_relative(bench_spec)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("residual_report ran a quadrature")

        monkeypatch.setattr(oscillator, "simpson_grid", no_quadrature)
        assert residual_report(bench_spec).as_dict()["action"] == BENCH_ACTION
        assert residual_report(bench_spec, trace).as_dict()["action"] == BENCH_ACTION

    @pytest.mark.parametrize("shape", ["half_sine", "parabola"])
    def test_stationarity_ratio(self, bench_spec, shape):
        t1 = bench_spec.t1
        if shape == "half_sine":
            eta = lambda t: np.sin(np.pi * t / t1)
            eta_dot = lambda t: np.pi / t1 * np.cos(np.pi * t / t1)
        else:
            eta = lambda t: t * (t1 - t) / t1**2
            eta_dot = lambda t: (t1 - 2 * t) / t1**2
        base = action_value(bench_spec)

        def perturbed(eps):
            return action_value(
                bench_spec,
                position_fn=lambda t: position(bench_spec, t) + eps * eta(t),
                velocity_fn=lambda t: velocity(bench_spec, t) + eps * eta_dot(t))

        eps = 1e-2
        delta_full = perturbed(eps) - base
        delta_half = perturbed(eps / 2) - base
        assert abs(delta_full) / abs(delta_half) == pytest.approx(4.0, abs=0.1)
        # second variation is negative along these directions: the motion law
        # is a stationary point, not a minimum
        assert delta_full < 0.0


class TestExtremeScales:
    # p**3 overflows here, although MotionSpec accepts the spec
    SPEC = MotionSpec(L=1e-200, k=1e150, n=2, m=1.0)

    def test_action_value_stays_finite(self):
        spec = self.SPEC
        value = action_value(spec, step=spec.t1 / 1000)
        # spec.action underflows at L**2; the exact closed form does not
        assert value == pytest.approx(reference.figures(spec)["action"], rel=1e-9)

    def test_euler_lagrange_residual_stays_finite(self):
        spec = self.SPEC
        residual = euler_lagrange_residual(spec, np.linspace(0.0, spec.t1, 11))
        assert np.max(np.abs(residual)) <= 1e-12 * spec.peak_acceleration * spec.p * spec.t1


class TestEulerResidual:
    def test_motion_law_satisfies_the_euler_equation(self, bench_spec):
        t = np.linspace(0.0, bench_spec.t1, 501)
        residual = euler_lagrange_residual(bench_spec, t)
        scale = bench_spec.L * bench_spec.p**3 * bench_spec.t1 / TWO_PI
        assert np.max(np.abs(residual)) <= 1e-12 * scale

    def test_zero_at_start(self, bench_spec):
        assert euler_lagrange_residual(bench_spec, 0.0) == 0.0

    def test_constant_acceleration_ramp_fails(self, bench_spec):
        u0 = 0.2
        residual = euler_lagrange_residual(
            bench_spec, bench_spec.t1 / 3,
            position_fn=lambda t: 0.5 * u0 * np.asarray(t, dtype=float)**2,
            accel_fn=lambda t: u0)
        assert abs(residual) > 1e-3


class TestTipTrace:
    def test_boundary_values(self, bench_spec):
        trace = tip_trace(bench_spec, 1500.0)
        assert trace.values[0] == 0.0
        assert abs(trace.values[-1]) <= 1e-3  # last sample sits just before t1
        assert trace.label == "a_tip"
        assert len(trace) == 3262

    def test_is_sum_of_components(self, bench_spec):
        trace = tip_trace(bench_spec, 500.0)
        t = trace.t
        expected = acceleration(bench_spec, t) + relative_motion(bench_spec, t)[2]
        assert np.array_equal(trace.values, expected)


def test_relative_trace_beyond_the_move_rejected(bench_spec, tmp_path):
    # the carrier law holds on [0, t1] only
    trace = integrate(lambda t: 0.0, bench_spec.k, 1.5 * bench_spec.t1, bench_spec.t1 / 1000)
    with pytest.raises(ValueError, match="outside the motion interval"):
        write_relative_trace(tmp_path / "relative.csv", bench_spec, trace)


@pytest.mark.parametrize("outside,admitted", [(0.5e-12, True), (2e-12, False)])
def test_the_motion_interval_is_widened_by_1e_12_t1(bench_spec, tmp_path, outside, admitted):
    # a time up to 1e-12 * t1 beyond either end of [0, t1] is a rounding of an end
    # and is admitted; one further out is rejected, as a scalar, in an array and as
    # the first or last time of a relative trace
    t1 = bench_spec.t1
    for t in (-outside * t1, t1 + outside * t1):
        grid = array("d", sorted([0.5 * t1, t]))
        zeros = array("d", [0.0, 0.0])
        trace = OscillatorTrace(grid, zeros, zeros, zeros)
        calls = [lambda: relative_motion(bench_spec, t),
                 lambda: relative_motion(bench_spec, np.array([0.5 * t1, t])),
                 lambda: write_relative_trace(tmp_path / "relative.csv", bench_spec, trace)]
        for call in calls:
            if admitted:
                call()
            else:
                with pytest.raises(ValueError, match="outside the motion interval"):
                    call()


@pytest.mark.parametrize("law", ["spec", "other"])
def test_the_acceleration_column_is_the_one_rk4_formed(law):
    # at each node, k1v of the step it starts, and at the last node the same
    # expression on the final state; k**2 and k*k differ in the last bit here
    k = 5.000000000000003
    spec = MotionSpec(L=0.41, k=k, n=2, m=0.09)
    u = spec._laws(math)[2]
    forcing = {"spec": lambda t: u(spec.p * t), "other": lambda t: 0.25 - math.cos(3.0 * t)}[law]
    trace = integrate(forcing, k, spec.t1, spec.t1 / 500, initial_state=(1e-3, -2e-3))
    assert len(trace.a) == len(trace.t) and trace.a.typecode == "d"
    assert list(trace.a) == [-k * k * x - forcing(t) for t, x in zip(trace.t, trace.x)]


def test_relative_trace_uses_the_integrators_stiffness(monkeypatch):
    # k**2 and k*k differ in the last bit here; the 12-digit CSV would hide it,
    # so the columns are caught on their way to write_csv.  The a_r column is the
    # one integrate formed: writing it evaluates no motion law
    k = 5.000000000000003
    assert k**2 != k * k
    spec = MotionSpec(L=0.41, k=k, n=2, m=0.09)
    trace = simulate_relative(spec, step=spec.t1 / 2000)
    u = spec._laws(math)[2]
    written = {}
    monkeypatch.setattr(oscillator, "write_csv",
                        lambda path, header, columns: written.update(columns=columns))
    monkeypatch.setattr(MotionSpec, "_laws", lambda self, lib: pytest.fail("a law was evaluated"))
    write_relative_trace("unused.csv", spec, trace)
    expected = [-k * k * x - u(spec.p * t) for t, x in zip(trace.t, trace.x)]
    assert list(written["columns"][3]) == expected
    assert written["columns"] == (trace.t, trace.x, trace.v, trace.a)


def test_relative_trace_csv(bench_spec, tmp_path):
    path = tmp_path / "relative.csv"
    trace = simulate_relative(bench_spec, step=bench_spec.t1 / 2000)
    write_relative_trace(path, bench_spec, trace)
    header, (t, x, v, a) = read_numeric_csv(path, n_columns=4)
    assert header == ["t", "x_r", "v_r", "a_r"]
    assert len(t) == len(trace)
    # a_r column reproduces the oscillator equation at the grid points
    u = acceleration(bench_spec, trace.t)
    assert np.allclose(a, -bench_spec.k**2 * np.asarray(trace.x) - u, rtol=1e-10, atol=1e-12)
