import math
import re

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmove import FilterDesign, TimeSeries, design_butterworth, filtfilt, magnitude_response
from flexmove import filters
from flexmove.filters import _cascade

RATE = 1500.0


@pytest.fixture
def bench_design():
    return design_butterworth(4, 20.0, RATE)


def sampled(values, rate=RATE, label="value"):
    """A series of the given values on the grid i / rate."""
    return TimeSeries(np.arange(len(values)) / rate, values, label)


def tone(freq_hz, seconds=3.0, rate=RATE):
    t = np.arange(int(seconds * rate)) / rate
    return TimeSeries(t=t, values=np.sin(2 * np.pi * freq_hz * t))


def tone_amplitude(series, freq_hz, trim=300):
    window = slice(trim, len(series) - trim)
    t = series.t[window]
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

    @pytest.mark.parametrize("order", [1, 3, 5, 10, 0, 4.0, np.float64(4.0)],
                             ids=["1", "3", "5", "10", "0", "4.0", "np.float64(4.0)"])
    def test_bad_orders_rejected(self, order):
        with pytest.raises(ValueError, match="order"):
            design_butterworth(order, 20.0, RATE)

    def test_a_numpy_integer_order_is_accepted(self, bench_design):
        assert design_butterworth(np.int64(4), 20.0, RATE).sections == bench_design.sections

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

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    @pytest.mark.parametrize("cutoff", [1e-6, 749.9999999999])
    def test_a_section_rounded_onto_the_unit_circle_is_rejected(self, order, cutoff):
        message = f"unstable section: cutoff {cutoff!r} Hz at rate 1500.0 Hz"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            design_butterworth(order, cutoff, RATE)

    @settings(max_examples=40, deadline=None)
    @given(order=st.sampled_from([2, 4, 6, 8]), ratio=st.floats(0.001, 0.49))
    def test_any_design_is_stable_with_unit_dc(self, order, ratio):
        design = design_butterworth(order, ratio * RATE, RATE)
        assert all(sec.is_stable() for sec in design.sections)
        assert magnitude_response(design, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert magnitude_response(design, ratio * RATE) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


class TestRecord:
    def test_design_butterworth_is_the_constructor(self):
        assert design_butterworth is FilterDesign

    def test_sections_follow_the_cutoff(self):
        design = FilterDesign(4, 25.0, RATE)
        assert design.sections != FilterDesign(4, 20.0, RATE).sections
        assert magnitude_response(design, 25.0) == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_sections_are_not_an_argument(self, bench_design):
        with pytest.raises(TypeError):
            FilterDesign(4, 25.0, RATE, bench_design.sections)

    def test_parameters_are_checked_once(self, monkeypatch):
        calls, check = [], filters.positive_finite
        monkeypatch.setattr(filters, "positive_finite",
                            lambda name, value: calls.append(name) or check(name, value))
        FilterDesign(4, 20.0, RATE)
        assert calls == ["sample rate"]


#: float.hex of every section coefficient (b0, b1, b2, a1, a2), recorded before the
#: design moved into FilterDesign's constructor; keyed by (order, cutoff_hz) at 1500 Hz
SECTION_BITS = {
    (2, 20.0): (
        ("0x1.b2020ff227d17p-10", "0x1.b2020ff227d17p-9", "0x1.b2020ff227d17p-10",
         "-0x1.e1b3d142db67ap+0", "0x1.c6cba6a59b1edp-1"),
    ),
    (4, 20.0): (
        ("0x1.bd6cace79f971p-10", "0x1.bd6cace79f971p-9", "0x1.bd6cace79f971p-10",
         "-0x1.ee5f9acabc0e9p+0", "0x1.e03a0eef475c5p-1"),
        ("0x1.aab3530c8f27cp-10", "0x1.aab3530c8f27cp-9", "0x1.aab3530c8f27cp-10",
         "-0x1.d9977fbac7c58p+0", "0x1.b684661ba8a93p-1"),
    ),
    (6, 20.0): (
        ("0x1.c1f17ec7bff97p-10", "0x1.c1f17ec7bff97p-9", "0x1.c1f17ec7bff97p-10",
         "-0x1.f3638cf6be66fp+0", "0x1.ea4afceb0c4dbp-1"),
        ("0x1.b2020ff227d17p-10", "0x1.b2020ff227d17p-9", "0x1.b2020ff227d17p-10",
         "-0x1.e1b3d142db67ap+0", "0x1.c6cba6a59b1edp-1"),
        ("0x1.a94fbce6cc42ap-10", "0x1.a94fbce6cc42ap-9", "0x1.a94fbce6cc42ap-10",
         "-0x1.d80cd60676be6p+0", "0x1.b36c4b86bb153p-1"),
    ),
    (8, 20.0): (
        ("0x1.c44de06242f76p-10", "0x1.c44de06242f76p-9", "0x1.c44de06242f76p-10",
         "-0x1.f602595b25dd5p+0", "0x1.ef8d4e7710409p-1"),
        ("0x1.b7445421a9586p-10", "0x1.b7445421a9586p-9", "0x1.b7445421a9586p-10",
         "-0x1.e78a075b94aacp+0", "0x1.d282975f6ca83p-1"),
        ("0x1.adc90ee3528eap-10", "0x1.adc90ee3528eap-9", "0x1.adc90ee3528eap-10",
         "-0x1.dd0404cbc09c7p+0", "0x1.bd639bb547de0p-1"),
        ("0x1.a8d29fc80205ep-10", "0x1.a8d29fc80205ep-9", "0x1.a8d29fc80205ep-10",
         "-0x1.d781f922b683ep+0", "0x1.b2559784fd0bdp-1"),
    ),
    (2, 700.0): (
        ("0x1.b97fa04a7c240p-1", "0x1.b97fa04a7c240p+0", "0x1.b97fa04a7c240p-1",
         "0x1.b49f10bebc064p+0", "0x1.7cc05fac78838p-1"),
    ),
    (4, 700.0): (
        ("0x1.d5155dae2c5bbp-1", "0x1.d5155dae2c5bbp+0", "0x1.d5155dae2c5bbp-1",
         "0x1.cfe6cb7d16180p+0", "0x1.b487dfbe853edp-1"),
        ("0x1.a8ce80939a4aap-1", "0x1.a8ce80939a4aap+0", "0x1.a8ce80939a4aap-1",
         "0x1.a41d2573e1a63p+0", "0x1.5affb766a5de4p-1"),
    ),
    (6, 700.0): (
        ("0x1.e08bfd8488778p-1", "0x1.e08bfd8488778p+0", "0x1.e08bfd8488778p-1",
         "0x1.db3d00307434cp+0", "0x1.cbb5f5b139747p-1"),
        ("0x1.b97fa04a7c240p-1", "0x1.b97fa04a7c240p+0", "0x1.b97fa04a7c240p-1",
         "0x1.b49f10bebc064p+0", "0x1.7cc05fac78838p-1"),
        ("0x1.a5b6cee8e828fp-1", "0x1.a5b6cee8e828fp+0", "0x1.a5b6cee8e828fp-1",
         "0x1.a10e32b3a05ddp+0", "0x1.54bed63c5fe82p-1"),
    ),
    (8, 700.0): (
        ("0x1.e6aa75cbfb943p-1", "0x1.e6aa75cbfb943p+0", "0x1.e6aa75cbfb943p-1",
         "0x1.e14a2a7b45a11p+0", "0x1.d8158239630eap-1"),
        ("0x1.c5f7d78aa2038p-1", "0x1.c5f7d78aa2038p+0", "0x1.c5f7d78aa2038p-1",
         "0x1.c0f404637db25p+0", "0x1.95f755638ca95p-1"),
        ("0x1.afc3f86cf6696p-1", "0x1.afc3f86cf6696p+0", "0x1.afc3f86cf6696p-1",
         "0x1.aafeef4c598a6p+0", "0x1.6912031b2690dp-1"),
        ("0x1.a4a1c484fb89ap-1", "0x1.a4a1c484fb89ap+0", "0x1.a4a1c484fb89ap-1",
         "0x1.9ffc37c8ae48bp+0", "0x1.528ea28291952p-1"),
    ),
}


@pytest.mark.parametrize("key", sorted(SECTION_BITS), ids=lambda key: f"order{key[0]}-{key[1]:g}Hz")
def test_section_bits(key):
    order, cutoff = key
    found = tuple(tuple(float.hex(c) for c in sec)
                  for sec in design_butterworth(order, cutoff, RATE).sections)
    assert found == SECTION_BITS[key]


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
        series = sampled(np.full(200, 3.7))
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
        combined = filtfilt(bench_design, sampled(alpha * x + beta * y)).values
        separate = (alpha * filtfilt(bench_design, sampled(x)).values
                    + beta * filtfilt(bench_design, sampled(y)).values)
        scale = np.max(np.abs(combined))
        assert np.max(np.abs(combined - separate)) <= 1e-10 * scale

    def test_matches_scipy_away_from_edges(self, bench_design):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4096)
        mine = filtfilt(bench_design, sampled(x)).values
        sos = scipy.signal.butter(4, 20.0, fs=RATE, output="sos")
        reference = scipy.signal.sosfiltfilt(sos, x)
        # padding strategies differ, so compare once boundary transients die out
        assert np.max(np.abs(mine[1000:-1000] - reference[1000:-1000])) <= 1e-9

    def test_short_series_rejected(self, bench_design):
        series = sampled(np.zeros(12))
        with pytest.raises(ValueError, match="too short"):
            filtfilt(bench_design, series)

    @pytest.mark.parametrize("view", ["contiguous", "reversed-strided"])
    def test_input_keeps_its_bytes(self, bench_design, view):
        # TimeSeries keeps views, so filtering must not write through one
        rng = np.random.default_rng(3)
        base = rng.standard_normal(1200)
        values = base if view == "contiguous" else base[::-3]
        series = sampled(values)
        assert np.shares_memory(series.values, base)
        before = base.tobytes()
        filtfilt(bench_design, series)
        assert base.tobytes() == before

    def test_rate_mismatch_rejected(self, bench_design):
        series = sampled(np.zeros(100), rate=9000.0)
        with pytest.raises(ValueError, match="rate"):
            filtfilt(bench_design, series)

    def test_preserves_length_rate_and_label(self, bench_design):
        series = TimeSeries(0.25 + np.arange(500) / RATE, np.sin(np.arange(500) / 10),
                            label="a_tip")
        out = filtfilt(bench_design, series)
        assert len(out) == len(series)
        assert out.rate == series.rate
        assert out.t.tobytes() == series.t.tobytes()
        assert out.label == "a_tip"

    @pytest.mark.parametrize("peak", [3e307, 6e307])
    def test_finite_trace_that_overflows_is_rejected(self, peak):
        # the odd reflection 2*x[0] - x[i] and the cascade leave the float range;
        # any numpy warning on the way would fail this test as an error
        design = design_butterworth(8, 1.0, 10.0)
        series = sampled(peak * (-1.0) ** np.arange(40), rate=10.0)
        with pytest.raises(ValueError, match="overflows the float range"):
            filtfilt(design, series)
