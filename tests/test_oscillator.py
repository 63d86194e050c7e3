import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmove import oscillator
from flexmove import (MotionSpec, action_value, euler_lagrange_residual,
                      final_relative_state, integrate, relative_motion,
                      residual_report, simulate_relative, tip_trace,
                      write_relative_trace)
from flexmove.timeseries import read_numeric_csv

TWO_PI = 2.0 * math.pi

# Frozen oracle values for the bench move (L=0.41, k=5.78, n=2, m=0.09):
# quarter-move deflection equals minus the common gain L*p^2/(2*pi*(k^2-p^2)),
# and the action of the motion law is m*L^2*p*(1/(4*pi) + pi/3), confirmed by
# adaptive quadrature.
BENCH_XR_QUARTER = -0.02175117555589236
BENCH_ACTION = 0.04926577023211798

# Frozen closed-form residual amplitudes for mistimed bench moves.
AMP_N_2_5 = 0.009943394539836512
AMP_N_10_5 = 0.00011376881624526895

spec_params = st.tuples(
    st.floats(0.1, 2.0),
    st.floats(1.0, 50.0),
    st.integers(2, 10),
)


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
        residual = a + k * k * x + spec.acceleration(t)
        assert abs(residual) <= 1e-10 * max(1.0, spec.peak_acceleration)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_near_resonance_interior_motion_matches_mpmath(self, eps):
        # sin(k*t) - sin(p*t) and cos(k*t) - cos(p*t) cancel as n -> 1+, at every
        # interior t; each column is held to 1e-12 of its largest value over the move
        spec = MotionSpec(L=0.41, k=5.78, n=1.0 + eps, m=0.09, exploratory=True)
        times = spec.t1 * np.arange(1, 42) / 42
        with mpmath.workdps(50):
            n, L, k = mpmath.mpf(spec.n), mpmath.mpf(spec.L), mpmath.mpf(spec.k)
            p = k / n
            gain = L * p**2 / (2 * mpmath.pi * (k**2 - p**2))
            ref = np.array([[float(gain * (p / k * mpmath.sin(k * t) - mpmath.sin(p * t))),
                             float(gain * p * (mpmath.cos(k * t) - mpmath.cos(p * t))),
                             float(gain * p * (p * mpmath.sin(p * t) - k * mpmath.sin(k * t)))]
                            for t in map(mpmath.mpf, times)]).T
        error = np.abs(np.array(relative_motion(spec, times)) - ref).max(axis=1)
        assert (error <= 1e-12 * np.abs(ref).max(axis=1)).all(), error


def numpy_scalar_integrate(forcing, k, t_end, step, initial_state=(0.0, 0.0)):
    """The RK4 loop of integrate as it ran on numpy scalars into preallocated arrays."""
    n_steps = max(1, math.ceil(t_end / step - 1e-9))
    times = t_end * np.arange(n_steps + 1) / n_steps
    mids = 0.5 * (times[:-1] + times[1:])
    u_nodes = np.broadcast_to(np.asarray(forcing(times), dtype=float), times.shape)
    u_mids = np.broadcast_to(np.asarray(forcing(mids), dtype=float), mids.shape)
    h = t_end / n_steps
    ksq = k * k
    xs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    x, v = float(initial_state[0]), float(initial_state[1])
    xs[0], vs[0] = x, v
    for i in range(n_steps):
        u0, um, u1 = u_nodes[i], u_mids[i], u_nodes[i + 1]
        k1x = v
        k1v = -ksq * x - u0
        k2x = v + 0.5 * h * k1v
        k2v = -ksq * (x + 0.5 * h * k1x) - um
        k3x = v + 0.5 * h * k2v
        k3v = -ksq * (x + 0.5 * h * k2x) - um
        k4x = v + h * k3v
        k4v = -ksq * (x + h * k3x) - u1
        x += h * (k1x + 2.0 * (k2x + k3x) + k4x) / 6.0
        v += h * (k1v + 2.0 * (k2v + k3v) + k4v) / 6.0
        xs[i + 1] = x
        vs[i + 1] = v
    return times, xs, vs


@settings(max_examples=30, deadline=None)
@given(params=spec_params, per_period=st.integers(51, 90),
       x0=st.floats(-1.0, 1.0), v0=st.floats(-1.0, 1.0))
def test_integrate_matches_the_numpy_scalar_loop(params, per_period, x0, v0):
    # bit for bit, on an array law and on a constant: integrate calls the forcing
    # point by point, the reference once per grid
    L, k, n = params
    spec = MotionSpec(L=L, k=k, n=float(n), m=0.1)
    steps = per_period * n
    for forcing in (spec.acceleration, lambda t: 0.25):
        trace = integrate(forcing, spec.k, spec.t1, spec.t1 / steps, initial_state=(x0, v0))
        t, xs, vs = numpy_scalar_integrate(forcing, spec.k, spec.t1, spec.t1 / steps, (x0, v0))
        assert (trace.t.tobytes(), trace.x.tobytes(), trace.v.tobytes()) == \
            (t.tobytes(), xs.tobytes(), vs.tobytes())


@settings(max_examples=40, deadline=None)
@given(params=spec_params, exploratory_n=st.floats(1.01, 10.0), strict=st.booleans(),
       steps_per_move=st.floats(500.0, 3000.0))
def test_simulate_relative_matches_integrate(params, exploratory_n, strict, steps_per_move):
    # through one integrator, the math law of simulate_relative equals the numpy law of
    # spec.acceleration bit for bit, for mistimed moves too and for steps that do not
    # divide t1
    L, k, n = params
    spec = (MotionSpec(L=L, k=k, n=float(n), m=0.1) if strict
            else MotionSpec(L=L, k=k, n=exploratory_n, m=0.1, exploratory=True))
    step = spec.t1 / steps_per_move
    trace = simulate_relative(spec, step)
    reference = integrate(spec.acceleration, spec.k, spec.t1, step)
    for name in ("t", "x", "v"):
        assert getattr(trace, name).tobytes() == getattr(reference, name).tobytes(), name


def test_default_integration_matches_the_numpy_scalar_loop(bench_spec):
    # the simulate default: 20 000 steps
    trace = simulate_relative(bench_spec)
    _, xs, vs = numpy_scalar_integrate(bench_spec.acceleration, bench_spec.k, bench_spec.t1,
                                       bench_spec.t1 / 20_000)
    assert trace.x.tobytes() == xs.tobytes() and trace.v.tobytes() == vs.tobytes()


def test_integrate_takes_a_scalar_only_forcing():
    # math.sin maps one float and no array; x = -(sin t - sin(k t)/k)/(k**2 - 1)
    k = 5.78
    trace = integrate(lambda t: math.sin(t), k, 2.0, 1e-3)
    exact = [-(math.sin(t) - math.sin(k * t) / k) / (k * k - 1.0) for t in trace.t]
    assert len(trace) == 2001
    assert max(abs(x - e) for x, e in zip(trace.x, exact)) <= 1e-11


class TestIntegrator:
    def test_bench_residual(self, bench_spec):
        trace = simulate_relative(bench_spec)
        x_end, v_end = trace.final_state
        assert abs(x_end) <= 1e-8

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

    def test_non_finite_frequency_rejected(self):
        # a NaN k used to pass every comparison and return an all-NaN trace
        with pytest.raises(ValueError, match="^k must be a positive finite number"):
            integrate(lambda t: 0.0, math.nan, 10.0, 0.01)

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
    @pytest.mark.parametrize("route", ["closed-form", "rk4"])
    @pytest.mark.parametrize("spec", REPORT_SPECS,
                             ids=[f"n={s.n:g}{'-exploratory' * s.exploratory}"
                                  for s in REPORT_SPECS])
    def test_verdict_fields_derive_from_the_endpoint(self, spec, route):
        report = residual_report(spec, simulate_relative(spec) if route == "rk4" else None)
        assert report == (spec, report.x_end, report.v_end)
        assert report.amplitude == math.hypot(report.x_end, report.v_end / spec.k)
        assert report.tolerance == 1e-6 * spec.L
        assert report.action == spec.action
        assert report.quiescent is (spec.guarantees_quiescence
                                    and report.amplitude <= report.tolerance)
        assert report.quiescent is spec.guarantees_quiescence  # every strict spec here ends at rest
        fields = report.as_dict()
        assert list(fields) == REPORT_KEYS
        assert fields == {"L": spec.L, "k": spec.k, "n": spec.n, "m": spec.m, "p": spec.p,
                          "t1": spec.t1, "x_end": report.x_end, "v_end": report.v_end,
                          "amplitude": report.amplitude, "quiescent": report.quiescent,
                          "action": report.action, "tolerance": report.tolerance}

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
        with mpmath.workdps(50):
            n, L, k = mpmath.mpf(spec.n), mpmath.mpf(spec.L), mpmath.mpf(spec.k)
            p = k / n
            gain = L * p**2 / (2 * mpmath.pi * (k**2 - p**2))
            x_ref = gain * (p / k) * mpmath.sin(2 * mpmath.pi * n)
            v_ref = gain * p * (mpmath.cos(2 * mpmath.pi * n) - 1)
            amplitude_ref = float(mpmath.hypot(x_ref, v_ref / k))
        assert final_relative_state(spec)[0] == pytest.approx(float(x_ref), rel=1e-14)
        assert residual_report(spec).amplitude == pytest.approx(amplitude_ref, rel=1e-14)

    @pytest.mark.parametrize("n", [1.0 + 1e-9, 1.0 + 1e-6, 2.0 + 1e-9, 3.0 - 1e-7])
    def test_end_velocity_near_an_integer_matches_mpmath(self, n):
        # cos(theta) - 1 cancels as n nears an integer or 1; v_end keeps its digits
        spec = MotionSpec(L=0.41, k=5.78, n=n, m=0.09, exploratory=True)
        with mpmath.workdps(50):
            n, L, k = mpmath.mpf(spec.n), mpmath.mpf(spec.L), mpmath.mpf(spec.k)
            p = k / n
            gain = L * p**2 / (2 * mpmath.pi * (k**2 - p**2))
            v_ref = float(gain * p * (mpmath.cos(2 * mpmath.pi * n) - 1))
        assert final_relative_state(spec)[1] == pytest.approx(v_ref, rel=1e-15, abs=0.0)

    def test_amplitude_dominates_displacement(self, bench_spec):
        report = residual_report(bench_spec, simulate_relative(bench_spec))
        assert report.amplitude >= abs(report.x_end)

    def test_partial_trace_rejected(self, bench_spec):
        partial = integrate(bench_spec.acceleration, bench_spec.k,
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
        x_end, v_end = trace.final_state
        amplitude = math.hypot(x_end, v_end / spec.k)
        assert amplitude <= 1e-9 * max(1.0, float(np.max(np.abs(trace.x))))


class TestAction:
    def test_zero_trajectory_has_zero_action(self, bench_spec):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert action_value(bench_spec, position_fn=zero, velocity_fn=zero) == 0.0

    def test_bench_action_baseline(self, bench_spec):
        value = action_value(bench_spec)
        assert value == pytest.approx(BENCH_ACTION, rel=1e-9)
        analytic = bench_spec.m * bench_spec.L**2 * bench_spec.p * (1 / (4 * math.pi) + math.pi / 3)
        assert value == pytest.approx(analytic, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(L=st.floats(1e-3, 1e3), k=st.floats(1e-2, 1e3), n=st.floats(1.01, 50.0),
           m=st.floats(1e-3, 1e3), strict=st.booleans())
    def test_report_action_matches_the_quadrature_oracle(self, L, k, n, m, strict):
        if strict:
            spec = MotionSpec(L=L, k=k, n=float(max(2, round(n))), m=m)
        else:
            spec = MotionSpec(L=L, k=k, n=n, m=m, exploratory=True)
        assert residual_report(spec).action == pytest.approx(action_value(spec), rel=1e-12)

    def test_report_runs_no_quadrature(self, bench_spec, monkeypatch):
        trace = simulate_relative(bench_spec)

        def no_quadrature(*args, **kwargs):
            raise AssertionError("residual_report ran a quadrature")

        monkeypatch.setattr(oscillator, "simpson_grid", no_quadrature)
        assert residual_report(bench_spec).action == BENCH_ACTION
        assert residual_report(bench_spec, trace).action == BENCH_ACTION

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
                position_fn=lambda t: bench_spec.position(t) + eps * eta(t),
                velocity_fn=lambda t: bench_spec.velocity(t) + eps * eta_dot(t))

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
        # spec.action underflows at L**2; the closed form with L*p formed first does not
        closed_form = spec.m * spec.L * (spec.L * spec.p) * (math.pi / 3 + 1 / (4 * math.pi))
        assert value == pytest.approx(closed_form, rel=1e-9)

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
        expected = bench_spec.acceleration(t) + relative_motion(bench_spec, t)[2]
        assert np.array_equal(trace.values, expected)

    def test_position_kind(self, bench_spec):
        trace = tip_trace(bench_spec, 500.0, kind="position")
        t = trace.t
        expected = bench_spec.position(t) + relative_motion(bench_spec, t)[0]
        assert np.array_equal(trace.values, expected)
        assert trace.label == "x_tip"

    def test_unknown_kind_rejected(self, bench_spec):
        with pytest.raises(ValueError, match="kind"):
            tip_trace(bench_spec, 500.0, kind="velocity")


def test_relative_trace_beyond_the_move_rejected(bench_spec, tmp_path):
    # the carrier law holds on [0, t1] only
    trace = integrate(lambda t: 0.0, bench_spec.k, 1.5 * bench_spec.t1, bench_spec.t1 / 1000)
    with pytest.raises(ValueError, match="outside the motion interval"):
        write_relative_trace(tmp_path / "relative.csv", bench_spec, trace)


def test_relative_trace_uses_the_integrators_stiffness(monkeypatch):
    # k**2 and k*k differ in the last bit here; the 12-digit CSV would hide it,
    # so the columns are caught on their way to write_csv
    k = 5.000000000000003
    assert k**2 != k * k
    spec = MotionSpec(L=0.41, k=k, n=2, m=0.09)
    trace = simulate_relative(spec, step=spec.t1 / 2000)
    written = {}
    monkeypatch.setattr(oscillator, "write_csv",
                        lambda path, header, columns: written.update(columns=columns))
    write_relative_trace("unused.csv", spec, trace)
    u = spec._laws(math)[2]
    expected = [-k * k * x - u(spec.p * t) for t, x in zip(trace.t, trace.x)]
    assert list(written["columns"][3]) == expected


def test_relative_trace_csv(bench_spec, tmp_path):
    path = tmp_path / "relative.csv"
    trace = simulate_relative(bench_spec, step=bench_spec.t1 / 2000)
    write_relative_trace(path, bench_spec, trace)
    header, (t, x, v, a) = read_numeric_csv(path, n_columns=4)
    assert header == ["t", "x_r", "v_r", "a_r"]
    assert len(t) == len(trace)
    # a_r column reproduces the oscillator equation at the grid points
    u = bench_spec.acceleration(trace.t)
    assert np.allclose(a, -bench_spec.k**2 * np.asarray(trace.x) - u, rtol=1e-10, atol=1e-12)
