import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH, child_env
from flexmove import FilterDesign, TimeSeries, design_butterworth, filtfilt
from flexmove import filters, timeseries
from flexmove.filters import (ALLOWED_ORDERS, BLOCK, ERROR_BOUND, MIN_CUTOFF_RATIO, PAD_FACTOR,
                              _block_model, _cascade)
from reference import LONGDOUBLE, magnitude_response, precise_cascade, precise_filtfilt

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

    def test_poles_on_the_unit_circle_are_unstable(self):
        # a2 = 1 puts both poles of z**2 + 1 on the circle: the Schur triangle is open
        assert not filters.Biquad(1.0, 0.0, 0.0, a1=0.0, a2=1.0).is_stable()

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

    @pytest.mark.parametrize("cutoff", [750.0, 800.0, 0.0, -5.0, math.nan, True, "20",
                                        pytest.param(10**400, id="10**400")])
    def test_cutoff_outside_nyquist_rejected(self, cutoff):
        # a bool is not a cutoff of 1 Hz, nor a string one of 20 Hz; an int past
        # the float range is named as it is
        with pytest.raises(ValueError, match="^cutoff must lie strictly between 0 and the Nyquist"):
            design_butterworth(4, cutoff, RATE)

    def test_the_nyquist_error_tells_its_two_numbers_apart(self):
        # formatted with :g, both numbers read 750 Hz
        message = ("cutoff must lie strictly between 0 and the Nyquist frequency "
                   "749.999999625 Hz, got 749.9999999999 Hz")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            FilterDesign(4, 749.9999999999, 1499.99999925)

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


def cascaded_in_place(design, x):
    """_cascade run on x copied into a buffer of whole blocks, as filtfilt runs it; the
    slack after x starts as nan, which reaches every cell of its block unless zeroed."""
    blocks = np.full((-(-len(x) // BLOCK), BLOCK), np.nan)
    y = blocks.reshape(-1)[:len(x)]
    y[:] = x
    _cascade(_block_model(design.sections), blocks, len(x))
    return y


def within_bound(found, reference, x):
    """No sample further from the precise reference than ERROR_BOUND of x's swing."""
    return np.max(np.abs(found - reference)) <= ERROR_BOUND * np.ptp(x)


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from(ALLOWED_ORDERS),
       cutoff=st.floats(MIN_CUTOFF_RATIO * RATE, 0.49 * RATE),
       x=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=200))
def test_cascade_keeps_within_the_bound_of_the_precise_loop(order, cutoff, x):
    # finite values only, as a TimeSeries holds: by blocks, a nan or an inf
    # reaches the earlier samples of its block as well
    design = design_butterworth(order, cutoff, RATE)
    signal = np.array(x)
    assert within_bound(cascaded_in_place(design, signal),
                        precise_cascade(design.sections, signal), signal)


#: every order is held to the bound at the floor, at the bench's 20 Hz and at 0.1
BOUND_RATIOS = {"floor": MIN_CUTOFF_RATIO, "bench": 20.0 / RATE, "0.1": 0.1}


def bound_trace():
    """A slow sine on an offset, a step and noise: 12 000 samples, enough for the
    slowest pole at the floor to decay several times; 600 where the precise
    reference runs on mpmath numbers."""
    samples = 12_000 if LONGDOUBLE else 600
    rng = np.random.default_rng(5)
    t = np.arange(samples) / RATE
    return 5.0 + np.sin(2 * np.pi * 0.05 * t) + 0.5 * (t > t[-1] / 2) + 0.1 * rng.standard_normal(samples)


@pytest.mark.parametrize("ratio", BOUND_RATIOS.values(), ids=BOUND_RATIOS)
@pytest.mark.parametrize("order", ALLOWED_ORDERS)
def test_every_order_keeps_within_the_bound(order, ratio):
    design = FilterDesign(order, ratio * RATE, RATE)
    x = bound_trace()
    assert within_bound(cascaded_in_place(design, x), precise_cascade(design.sections, x), x)
    assert within_bound(filtfilt(design, sampled(x)).values, precise_filtfilt(design, x), x)


def test_the_mpmath_reference_agrees_with_the_longdouble_one(monkeypatch):
    # the mpmath branch runs where np.longdouble is plain float64; here both run
    import reference
    design = FilterDesign(8, MIN_CUTOFF_RATIO * RATE, RATE)
    x = bound_trace()[:300]
    wide = precise_filtfilt(design, x)
    monkeypatch.setattr(reference, "LONGDOUBLE", False)
    assert np.max(np.abs(precise_filtfilt(design, x) - wide)) <= 1e-15 * np.ptp(x)


@pytest.mark.parametrize("order", ALLOWED_ORDERS)
def test_the_floor_admits_its_lowest_cutoff_and_not_one_ulp_less(order):
    lowest = MIN_CUTOFF_RATIO * RATE
    assert FilterDesign(order, lowest, RATE).cutoff_hz == lowest
    below = math.nextafter(lowest, 0.0)
    message = (f"cutoff {below!r} Hz is below the lowest admissible cutoff {lowest!r} Hz "
               f"at rate 1500.0 Hz")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        FilterDesign(order, below, RATE)


#: sha256 of filtfilt's output bytes per order and signal length: the padded
#: lengths 192, 193 and 255 end on a full block, one cell past one and one cell
#: short of one; the last length is the shortest each order admits, which pads to
#: less than a block at orders 2-6 (to 73 cells at order 8).  Computed with the
#: filter that ran a partial last block on its own route
EDGE_DIGESTS = {
    2: {180: "ba296435d6d1eea3b5439c2d8924637f4396c5e9e77efbdb89c1efbfbfaeb39c",
        181: "1d54cd1ce76d9b2e65baaf262ebd6f0ebc4f5281b1d1cda946a419167ec2e1b1",
        243: "16f3fb056022a22277d2cc8df6d272c19308a258c363c3fad80a866237f3af9a",
        7: "4e396e9a46a611ffa73d9f0b95126c7552316b8589a3d9496b4d9255ce917021"},
    4: {168: "f6213ff8ed9a90147944c0ab2c2a30bf6aef0a1fa8fa87c7c689853fc5750f19",
        169: "6946466b90ca76b84da3fc2310a484c338d87ddb710ac92c6e95f269ac07ef5e",
        231: "c0efd31265966dae655d74c86dacd3904ecfeb766047526b7522b3779b1c8dbd",
        13: "8a582a9f13887cb7131920e59c4057f65ecb7824176c3dda8ba5f464908b81e7"},
    6: {156: "088e3b664d567996368bce26264c4abd77463ec61143e7e974a75273dede494b",
        157: "825705170aff3100bc80b0bd5b120578889c668b5dc198b37bb281e8e1d8702f",
        219: "1cfcfee00ff0ac20e2d27ba4489fc26ade7940ce573003829752008807151671",
        19: "f0e5749a71e0b73813b03b7b1c6a1414e040867b8d6913526f0c289551e17269"},
    8: {144: "cdf148a40d6536ab4d749af1c65d2d771c24f1b173ca983fcdf3541d25e4b1b6",
        145: "423e916c9028e73aac2c0b3c03d6c4749240fe22e49cc4361a841c8e1e48ef3e",
        207: "9927eae17fe5635deefe960956a3efd244f7b6c0621e27b4542f4f3651910697",
        25: "c2c44e4fde5a07e37dc68fbc6e48c76ec2464710bc327428f69b03f18cff2165"},
}


@pytest.mark.parametrize("order", ALLOWED_ORDERS)
def test_the_bits_at_block_edges_are_pinned(order):
    pad = PAD_FACTOR * order
    lengths = [3 * BLOCK + r - 2 * pad for r in (0, 1, BLOCK - 1)] + [pad + 1]
    assert sorted(lengths) == sorted(EDGE_DIGESTS[order])
    design = design_butterworth(order, 20.0, RATE)
    for n in lengths:
        # uniform draws and a sequential sum: no libm call decides a bit of the input
        x = np.cumsum(np.random.default_rng(n).random(n) - 0.5)
        found = filtfilt(design, sampled(x)).values
        assert hashlib.sha256(found.tobytes()).hexdigest() == EDGE_DIGESTS[order][n], n


#: the cutoffs the model's bits are pinned at, all at RATE: the floor, the bench's
#: 20 Hz, a tenth and 0.45 of the rate
MODEL_CUTOFFS = {"floor": MIN_CUTOFF_RATIO * RATE, "bench": 20.0, "0.1": 0.1 * RATE,
                 "0.45": 0.45 * RATE}

#: sha256 of the bytes of _block_model's matrix, step and free, in that order, per
#: order and cutoff.  Computed with the model composed from per-section runs
MODEL_DIGESTS = {
    2: {"floor": "fbb081e12449495d875f52d98670f8334e7c34bf884a0853a28ceece73f785f5",
        "bench": "3ed60aee4829a1d5d9eede667d1f599b0ce6ab512c2d6dd43bff968b92a52fdf",
        "0.1": "db456375e736ddb87dfe498375d5de30fe17c7538173b875f47699142393793f",
        "0.45": "b92448eb703b8c76462e842b049def7bd81d3642ae0520253cb3f52435622777"},
    4: {"floor": "d23f48d716a24b2a1de6bede68bbe2a74055a5c35d9b38754cbdb2dc5a1278b3",
        "bench": "5e2b620accc115b56c411b2b28da171ee8f3692b4795bd3da1019974845f6302",
        "0.1": "e08fc0d7245c0949c5995ca29ea82b6fdcbbd29e722548bdc2837f05a8d46f91",
        "0.45": "652e5fd2368f6f56a9e7ae9300b9912854c4139f296cc73bf94368004fb0991a"},
    6: {"floor": "f939b49321669341e0797c04d68a5922729d1b7bd4ec6ace23edbcd4f1ee692b",
        "bench": "d23c235006e8c0d8f7a37bbf4e841202f8f2088b97c956887d454c9c44949b30",
        "0.1": "8efe74ca67672cede9a4f715a8dfabce8959a7434f68aa30f4cf26f13b87947b",
        "0.45": "0b24bc73731614f807d84637f9393069c66e1fe2f110270fe90974af118d449b"},
    8: {"floor": "96c7766698ca1b78716d0341fe169b57260216a6214c6ebab76d8a3b5e2f263a",
        "bench": "30bf989be8a7d9e18ec2316a1f308114345b6f8dedb73d6ef9a8821456bdea1f",
        "0.1": "c47af82faabd15ff8c97e71dd2fa4846e115e4a86b26e88bc93fefa01de726ad",
        "0.45": "e76beb25289b4c1883f144ed755d4664ae8de7c9b8963bd6b988deeee2196d58"},
}


@pytest.mark.parametrize("order", ALLOWED_ORDERS)
def test_the_bits_of_the_block_model_are_pinned(order):
    for key, cutoff in MODEL_CUTOFFS.items():
        digest = hashlib.sha256()
        for matrix in _block_model(FilterDesign(order, cutoff, RATE).sections):
            digest.update(matrix.tobytes())
        assert digest.hexdigest() == MODEL_DIGESTS[order][key], key


#: sha256 of filtfilt's output bytes on the bench move's tip trace, one line per
#: order, then of the files save_trace writes for the order-8 output and for a
#: column of adversarial cells
DIGESTS = f"""
import hashlib, tempfile
from pathlib import Path
import numpy as np
from flexmove import MotionSpec, TimeSeries, design_butterworth, filtfilt, save_trace, tip_trace
from reference import adversarial_cells
trace = tip_trace(MotionSpec(**{BENCH!r}), 1500.0)
for order in {ALLOWED_ORDERS!r}:
    filtered = filtfilt(design_butterworth(order, 20.0, 1500.0), trace)
    print(hashlib.sha256(filtered.values.tobytes()).hexdigest())
cells = adversarial_cells()
with tempfile.TemporaryDirectory() as tmp:
    for series in (filtered, TimeSeries(np.arange(len(cells)) / 1500.0, cells)):
        save_trace(Path(tmp) / "trace.csv", series)
        print(hashlib.sha256((Path(tmp) / "trace.csv").read_bytes()).hexdigest())
"""


@pytest.mark.parametrize("setting", [("OPENBLAS_CORETYPE", "Nehalem"),
                                     ("OPENBLAS_CORETYPE", "Haswell"),
                                     ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
                                     ("NPY_DISABLE_CPU_FEATURES",
                                      "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")],
                         ids=lambda setting: "=".join(setting))
def test_the_bits_depend_on_no_blas_kernel_and_no_cpu_feature(setting, capsys):
    # a BLAS product (@, dot, matmul, an optimizing einsum) rounds by the kernel
    # the CPU selects; numpy's own einsum loop rounds the same under each setting.
    # save_trace's formatter takes log10, floor and rint, which have SIMD loops:
    # those may move a cell between the formatter and the template, never a byte
    exec(DIGESTS, {})
    here = capsys.readouterr().out
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", DIGESTS], capture_output=True, text=True,
                          env=dict(env, **dict([setting])), timeout=120, check=True)
    assert len(here.split()) == len(ALLOWED_ORDERS) + 2
    assert proc.stdout == here


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

    def test_the_result_carries_the_rate_over_without_checking_the_time_again(self, bench_design):
        # the time column is the input's own, so TimeSeries's checks of it (the
        # steps, their median, the jitter) do not run again: 1.2-1.3 ms per 175 000
        # samples.  The values are checked by filtfilt's own overflow test below
        series = TimeSeries(0.25 + np.arange(5000) / RATE, np.sin(np.arange(5000) / 10),
                            label="a_tip")
        with mock.patch.object(timeseries, "_median", side_effect=AssertionError):
            out = filtfilt(bench_design, series)
        assert out.t is series.t and out.label == "a_tip"
        assert out.rate.hex() == series.rate.hex()
        assert out.values.dtype == np.float64 and out.values.shape == series.values.shape

    @pytest.mark.parametrize("peak", [5e307, 6e307])
    def test_finite_trace_that_overflows_is_rejected(self, peak):
        # the cascade (5e307) and the odd reflection 2*x[0] - x[i] (6e307) leave the
        # float range; any numpy warning on the way would fail this test as an error
        design = design_butterworth(8, 1.0, 10.0)
        series = sampled(peak * (-1.0) ** np.arange(40), rate=10.0)
        with pytest.raises(ValueError, match="overflows the float range"):
            filtfilt(design, series)

    def test_a_trace_near_the_float_limit_keeps_within_the_bound(self):
        # just under the peaks that overflow, the output is finite and within the bound
        design = design_butterworth(8, 1.0, 10.0)
        series = sampled(3e307 * (-1.0) ** np.arange(40), rate=10.0)
        out = filtfilt(design, series).values
        assert within_bound(out, precise_filtfilt(design, series.values), series.values)
