import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmove import TimeSeries, design_butterworth, filtfilt, magnitude_response
from flexmove.filters import _cascade

RATE = 1500.0


@pytest.fixture
def bench_design():
    return design_butterworth(4, 20.0, RATE)


def tone(freq_hz, seconds=3.0, rate=RATE):
    t = np.arange(int(seconds * rate)) / rate
    return TimeSeries(rate=rate, t0=0.0, values=np.sin(2 * np.pi * freq_hz * t))


def tone_amplitude(series, freq_hz, trim=300):
    window = slice(trim, len(series) - trim)
    t = series.times[window]
    phasor = 2.0 * np.mean(series.values[window] * np.exp(-2j * np.pi * freq_hz * t))
    return abs(phasor)


class TestDesign:
    def test_section_count_and_stability(self, bench_design):
        assert len(bench_design.sections) == 2
        assert all(sec.is_stable() for sec in bench_design.sections)

    def test_unit_dc_gain(self, bench_design):
        assert magnitude_response(bench_design, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_cutoff_is_half_power(self, bench_design):
        assert magnitude_response(bench_design, 20.0) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_octave_above_cutoff(self, bench_design):
        # near the analog value 1/sqrt(1 + 2**8) at this rate
        assert magnitude_response(bench_design, 40.0) == pytest.approx(1 / math.sqrt(257), rel=1e-2)

    @pytest.mark.parametrize("order", [1, 3, 5, 10, 0])
    def test_bad_orders_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            design_butterworth(order, 20.0, RATE)

    @pytest.mark.parametrize("cutoff", [750.0, 800.0, 0.0, -5.0])
    def test_cutoff_outside_nyquist_rejected(self, cutoff):
        with pytest.raises(ValueError, match="Nyquist"):
            design_butterworth(4, cutoff, RATE)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="^sample rate must be a positive finite number"):
            design_butterworth(4, 20.0, rate)

    def test_matches_scipy_butterworth(self, bench_design):
        sos = scipy.signal.butter(4, 20.0, fs=RATE, output="sos")
        freqs = np.linspace(0.1, 740.0, 200)
        _, h = scipy.signal.sosfreqz(sos, worN=freqs, fs=RATE)
        assert np.max(np.abs(np.abs(h) - magnitude_response(bench_design, freqs))) <= 1e-10

    def test_monotone_attenuation(self, bench_design):
        freqs = np.linspace(0.0, 0.5 * RATE * (1 - 1e-9), 100)
        mags = magnitude_response(bench_design, freqs)
        assert np.all(np.diff(mags) <= 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(order=st.sampled_from([2, 4, 6, 8]), ratio=st.floats(0.001, 0.49))
    def test_any_design_is_stable_with_unit_dc(self, order, ratio):
        design = design_butterworth(order, ratio * RATE, RATE)
        assert all(sec.is_stable() for sec in design.sections)
        assert magnitude_response(design, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert magnitude_response(design, ratio * RATE) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


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


def cascaded_in_place(sections, x, reverse=False):
    """_cascade run on a copy of x, through a negative-stride view when reverse."""
    buf = np.array(x[::-1] if reverse else x)
    view = buf[::-1] if reverse else buf
    _cascade(sections, view)
    return view


def same_bits(a, b):
    """Bit-identical arrays, except that a NaN may differ in sign and payload: IEEE 754
    leaves open which NaN operand an operation returns, and numpy's scalar operators
    pass operands in another order than Python's.  Written to CSV, every NaN is `nan`."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from([2, 4, 6, 8]), fraction=st.floats(1e-4, 0.49),
       x=st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, math.inf, math.nan]),
                  min_size=1, max_size=200))
def test_cascade_matches_the_numpy_scalar_loop(order, fraction, x):
    design = design_butterworth(order, fraction * RATE, RATE)
    signal = np.array(x)
    with np.errstate(all="ignore"):  # inf - inf warns in both routes
        reference = numpy_scalar_cascade(design.sections, signal)
        for reverse in (False, True):  # a contiguous and a negative-stride buffer
            assert same_bits(cascaded_in_place(design.sections, signal, reverse), reference)


def test_bench_trace_filters_bit_for_bit(bench_design):
    rng = np.random.default_rng(5)
    signal = np.sin(np.arange(5000) / 50.0) + 0.1 * rng.standard_normal(5000)
    reference = numpy_scalar_cascade(bench_design.sections, signal).tobytes()
    for reverse in (False, True):
        assert cascaded_in_place(bench_design.sections, signal, reverse).tobytes() == reference


class TestFiltfilt:
    def test_constant_passes_exactly(self, bench_design):
        series = TimeSeries(rate=RATE, t0=0.0, values=np.full(200, 3.7))
        out = filtfilt(bench_design, series)
        assert np.array_equal(out.values, series.values)

    def test_passband_tone_keeps_amplitude(self, bench_design):
        series = tone(5.0)
        out = filtfilt(bench_design, series)
        ratio = tone_amplitude(out, 5.0) / tone_amplitude(series, 5.0)
        assert abs(ratio - 1.0) <= 1e-3

    def test_passband_tone_has_zero_lag(self, bench_design):
        series = tone(5.0)
        out = filtfilt(bench_design, series)
        window = slice(300, len(series) - 300)
        x = series.values[window] - np.mean(series.values[window])
        y = out.values[window] - np.mean(out.values[window])
        corr = np.correlate(y, x, mode="full")
        assert int(np.argmax(corr)) - (len(x) - 1) == 0

    def test_stopband_tone_heavily_attenuated(self, bench_design):
        series = tone(40.0)
        out = filtfilt(bench_design, series)
        ratio = tone_amplitude(out, 40.0) / tone_amplitude(series, 40.0)
        assert ratio <= 1.0 / 250.0  # two passes: about 48 dB down

    def test_double_pass_squares_the_magnitude(self, bench_design):
        series = tone(12.0)
        out = filtfilt(bench_design, series)
        ratio = tone_amplitude(out, 12.0) / tone_amplitude(series, 12.0)
        assert ratio == pytest.approx(magnitude_response(bench_design, 12.0) ** 2, rel=1e-3)

    def test_linearity(self, bench_design):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(600)
        y = rng.standard_normal(600)
        alpha, beta = 1.7, -0.4
        combined = filtfilt(bench_design, TimeSeries(RATE, 0.0, alpha * x + beta * y)).values
        separate = (alpha * filtfilt(bench_design, TimeSeries(RATE, 0.0, x)).values
                    + beta * filtfilt(bench_design, TimeSeries(RATE, 0.0, y)).values)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - separate)) <= 1e-10 * scale

    def test_matches_scipy_away_from_edges(self, bench_design):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096)
        mine = filtfilt(bench_design, TimeSeries(RATE, 0.0, x)).values
        sos = scipy.signal.butter(4, 20.0, fs=RATE, output="sos")
        reference = scipy.signal.sosfiltfilt(sos, x)
        # padding strategies differ, so compare once boundary transients die out
        assert np.max(np.abs(mine[1000:-1000] - reference[1000:-1000])) <= 1e-9

    def test_short_series_rejected(self, bench_design):
        series = TimeSeries(rate=RATE, t0=0.0, values=np.zeros(12))
        with pytest.raises(ValueError, match="too short"):
            filtfilt(bench_design, series)

    @pytest.mark.parametrize("view", ["contiguous", "reversed-strided"])
    def test_input_keeps_its_bytes(self, bench_design, view):
        # TimeSeries keeps views, so filtering must not write through one
        rng = np.random.default_rng(3)
        base = rng.standard_normal(1200)
        values = base if view == "contiguous" else base[::-3]
        series = TimeSeries(rate=RATE, t0=0.0, values=values)
        assert np.shares_memory(series.values, base)
        before = base.tobytes()
        filtfilt(bench_design, series)
        assert base.tobytes() == before

    def test_rate_mismatch_rejected(self, bench_design):
        series = TimeSeries(rate=9000.0, t0=0.0, values=np.zeros(100))
        with pytest.raises(ValueError, match="rate"):
            filtfilt(bench_design, series)

    def test_preserves_length_rate_and_label(self, bench_design):
        series = TimeSeries(rate=RATE, t0=0.25, values=np.sin(np.arange(500) / 10), label="a_tip")
        out = filtfilt(bench_design, series)
        assert len(out) == len(series)
        assert out.rate == series.rate
        assert out.t0 == series.t0
        assert out.label == "a_tip"
