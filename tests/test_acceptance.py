"""Acceptance gate: one test (or set) per shipped guarantee, tolerances pinned.

C1  The bench move (L=0.41 m, k=5.78 rad/s, n=2) ends quiescent: integrated
    residual phasor amplitude <= 1e-6 * L, closed form exactly zero; < 1 s.
C2  RK4 and the closed form agree within 1e-8 m uniformly over the move for 20
    randomized strict specs (n in 2..10, L in [0.1, 2] m, k in [1, 50] rad/s)
    at step t1/20000.
C3  The cantilever chain reproduces the bench frequency within 0.5 %.
C4  Boundary conditions hold to 1e-12 relative and all four quadrature
    moments meet 1e-8 at step t1/1e5 for integer multiples.
C5  Mistimed moves leave residuals: n=2.5 sits >= 100x above the matched
    floor; n=10.5 reduces but does not zero the residual; per-mass tables
    keep matched < unmatched (bench millimetre readings are hardware-bound
    and intentionally out of reach of this noise-free simulation).
C6  The action is stationary at the motion law: the perturbation ratio
    |dJ(eps)| / |dJ(eps/2)| equals 4 +- 0.1 for two endpoint-vanishing shapes.
C7  The 4th-order 20 Hz zero-phase filter passes a 5 Hz tone within 0.1 % and
    0-sample lag, attenuates a 40 Hz tone by >= 40 dB, and is exact on
    constants.
C8  The drive-cost figure E = integral of m*|u*v| dt is positive, stable to
    1e-6 under quadrature step halving, and follows its derived scaling law
    E = m * L**2 * p**2 / pi**2 (linear in mass, quadratic in displacement
    and in forcing rate) within 1e-6.
"""

import math
import time

import numpy as np
import pytest

from conftest import BENCH, BENCH_BEAM
from flexmove import (BeamSpec, MotionSpec, TimeSeries, action_value,
                      amplitude_table, design_butterworth, energy_figure,
                      filtfilt, relative_motion, residual_report,
                      simulate_relative, suppression_ratio)

QUIESCENCE_TOL = 1e-6          # fraction of L
ORACLE_TOL = 1e-8              # metres, uniform over the move
BEAM_TOL = 5e-3                # relative error on the bench frequency
BOUNDARY_TOL = 1e-12           # relative on boundary conditions
MOMENT_TOL = 1e-8              # absolute (impulse, oscillation moments), relative for distance
WITNESS_FACTOR = 100.0         # mistimed amplitude over matched floor
RATIO_BAND = 0.1               # allowed deviation from the stationarity ratio 4
ENERGY_TOL = 1e-6              # quadrature stability and scaling checks


def test_c1_bench_move_ends_quiescent():
    spec = MotionSpec(**BENCH)
    started = time.perf_counter()
    trace = simulate_relative(spec, step=spec.t1 / 20_000)
    report = residual_report(spec, trace)
    elapsed = time.perf_counter() - started
    assert report.amplitude <= QUIESCENCE_TOL * spec.L
    assert report.quiescent
    closed = residual_report(spec)
    assert closed.x_end == 0.0 and closed.v_end == 0.0 and closed.amplitude == 0.0
    assert elapsed < 1.0


def test_c2_integrator_matches_closed_form():
    rng = np.random.default_rng(20260809)
    for _ in range(20):
        spec = MotionSpec(L=float(rng.uniform(0.1, 2.0)),
                          k=float(rng.uniform(1.0, 50.0)),
                          n=float(rng.integers(2, 11)), m=0.1)
        trace = simulate_relative(spec, step=spec.t1 / 20_000)
        closed = relative_motion(spec, trace.t)[0]
        assert np.max(np.abs(np.asarray(trace.x) - closed)) <= ORACLE_TOL


def test_c3_beam_chain_reproduces_bench_frequency():
    beam = BeamSpec(**BENCH_BEAM)
    assert abs(beam.frequency - 5.78) / 5.78 <= BEAM_TOL


def test_c4_boundary_and_moment_conditions():
    for spec in (MotionSpec(**BENCH),
                 MotionSpec(L=1.2, k=17.0, n=3.0, m=0.4),
                 MotionSpec(L=0.7, k=9.0, n=5.0, m=0.2)):
        v_scale = spec.L * spec.p / math.pi
        a_scale = spec.peak_acceleration
        assert spec.position(0.0) == 0.0
        assert spec.velocity(0.0) == 0.0
        assert spec.acceleration(0.0) == 0.0
        assert abs(spec.position(spec.t1) - spec.L) <= BOUNDARY_TOL * spec.L
        assert abs(spec.velocity(spec.t1)) <= BOUNDARY_TOL * v_scale
        assert abs(spec.acceleration(spec.t1)) <= BOUNDARY_TOL * a_scale
        moments = spec.moment_integrals(step=spec.t1 / 100_000)
        assert abs(moments.impulse) <= MOMENT_TOL
        assert abs(moments.distance - spec.L) <= MOMENT_TOL * spec.L
        assert abs(moments.cos_moment) <= MOMENT_TOL
        assert abs(moments.sin_moment) <= MOMENT_TOL


def test_c5_mistimed_moves_leave_residuals():
    matched = residual_report(MotionSpec(**BENCH))
    floor = max(matched.amplitude, matched.tolerance)
    mistimed = residual_report(
        MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True))
    slower = residual_report(
        MotionSpec(L=0.41, k=5.78, n=10.5, m=0.09, exploratory=True))
    # strict inequality chain: stretching the move shrinks the residual but
    # only matched timing removes it
    assert mistimed.amplitude >= WITNESS_FACTOR * floor
    assert mistimed.amplitude > slower.amplitude > floor
    assert suppression_ratio(matched, mistimed) >= WITNESS_FACTOR


def test_c5_matched_beats_unmatched_for_every_mass():
    table = amplitude_table((0.02, 0.06, 0.075, 0.09), BeamSpec(**BENCH_BEAM), L=0.41)
    for matched_amp, unmatched_amp in zip(table.matched, table.unmatched):
        assert matched_amp <= QUIESCENCE_TOL * 0.41
        assert unmatched_amp > matched_amp
    assert "not reproduced" in table.caption


def test_c6_action_is_stationary():
    spec = MotionSpec(**BENCH)
    t1 = spec.t1
    shapes = {
        "half_sine": (lambda t: np.sin(np.pi * t / t1),
                      lambda t: np.pi / t1 * np.cos(np.pi * t / t1)),
        "parabola": (lambda t: t * (t1 - t) / t1**2,
                     lambda t: (t1 - 2 * t) / t1**2),
    }
    base = action_value(spec)
    for eta, eta_dot in shapes.values():
        def perturbed(eps):
            return action_value(
                spec,
                position_fn=lambda t: spec.position(t) + eps * eta(t),
                velocity_fn=lambda t: spec.velocity(t) + eps * eta_dot(t))

        ratio = abs(perturbed(1e-2) - base) / abs(perturbed(5e-3) - base)
        assert abs(ratio - 4.0) <= RATIO_BAND


def test_c7_zero_phase_filter_properties():
    rate = 1500.0
    design = design_butterworth(4, 20.0, rate)
    t = np.arange(int(3.0 * rate)) / rate
    window = slice(300, len(t) - 300)

    def amplitude(values, freq):
        return abs(2.0 * np.mean(values[window] * np.exp(-2j * np.pi * freq * t[window])))

    passband = TimeSeries(t=t, values=np.sin(2 * np.pi * 5.0 * t))
    out = filtfilt(design, passband)
    assert abs(amplitude(out.values, 5.0) / amplitude(passband.values, 5.0) - 1.0) <= 1e-3
    x = passband.values[window] - np.mean(passband.values[window])
    y = out.values[window] - np.mean(out.values[window])
    assert int(np.argmax(np.correlate(y, x, mode="full"))) - (len(x) - 1) == 0

    stopband = TimeSeries(t=t, values=np.sin(2 * np.pi * 40.0 * t))
    attenuation = amplitude(filtfilt(design, stopband).values, 40.0) / amplitude(stopband.values, 40.0)
    assert attenuation <= 10.0 ** (-40.0 / 20.0)

    constant = TimeSeries(t=t[:400], values=np.full(400, -1.25))
    assert np.array_equal(filtfilt(design, constant).values, constant.values)


def test_c8_energy_figure_positive_stable_and_scaling():
    spec = MotionSpec(**BENCH)
    step = spec.t1 / 100_000
    value = energy_figure(spec, step=step)
    assert value > 0.0
    assert abs(energy_figure(spec, step=step / 2) - value) <= ENERGY_TOL * value
    # scaling of the integral metric, confirmed against its closed form
    assert value == pytest.approx(
        spec.m * spec.L**2 * spec.p**2 / math.pi**2, rel=1e-9)
    gamma, beta, alpha = 3.0, 2.0, 2.0
    scaled = energy_figure(MotionSpec(L=beta * BENCH["L"], k=alpha * BENCH["k"],
                                      n=BENCH["n"], m=gamma * BENCH["m"]))
    assert scaled / value == pytest.approx(gamma * beta**2 * alpha**2, rel=ENERGY_TOL)
