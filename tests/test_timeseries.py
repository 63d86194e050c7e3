import math
import re
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flexmove import MotionSpec, TimeSeries, load_trace, save_trace, tip_trace
from flexmove import timeseries
from flexmove.timeseries import fmt, read_numeric_csv, write_csv


class TestTimeSeries:
    def test_keeps_its_time_column_as_float64(self):
        series = TimeSeries(t=array("d", [0.5, 0.6, 0.7, 0.8]), values=range(4))
        assert series.t.dtype == np.float64 and series.t.tolist() == [0.5, 0.6, 0.7, 0.8]
        assert series.values.dtype == np.float64
        assert len(series) == 4

    def test_rejects_time_column_of_other_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            TimeSeries(t=np.arange(4.0), values=np.zeros(5))

    def test_rate_is_the_rate_of_its_time_column(self):
        # the rate is not passed, so it cannot disagree with t: a 1 s grid is 1 Hz
        series = TimeSeries([0, 1, 2, 3], [0.0, 1.0, 4.0, 9.0])
        assert series.rate == 1.0
        assert series.rate == timeseries.uniform_rate(series.t)

    @pytest.mark.parametrize("t, message", [
        ([0.3, 0.2, 0.1, 0.0], "strictly increasing"),
        ([0.0, 0.0, 0.0, 0.0], "strictly increasing"),
        ([0.0, 0.1, 0.25, 0.3], "non-uniform sampling"),
        ([0.0, 0.1, np.nan, 0.3], "time column must hold finite numbers"),
    ], ids=["decreasing", "constant", "jittered", "nan"])
    def test_rejects_a_time_column_without_one_rate(self, t, message):
        with pytest.raises(ValueError, match=message):
            TimeSeries(t, np.zeros(4))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="two samples"):
            TimeSeries(t=np.zeros(1), values=np.zeros(1))


@pytest.mark.parametrize("rate", [1000.0, 1500.0, 333.3])
def test_tip_trace_keeps_its_rate_through_the_csv(tmp_path, rate):
    spec = MotionSpec(L=0.41, k=5.78, n=2.0, m=0.09)
    series = tip_trace(spec, rate)
    assert series.rate == pytest.approx(rate, rel=1e-12)
    path = tmp_path / "tip.csv"
    save_trace(path, series)
    reloaded = load_trace(path)
    # each stamp is written to 12 significant digits, so it moves by at most
    # 5e-12 * t; a step, and so the median step, moves by at most 1e-11 * t1,
    # which is 1e-11 * t1 * rate of the step
    drift = abs(reloaded.rate / series.rate - 1.0)
    assert drift <= 1e-11 * spec.t1 * rate
    if rate == 1000.0:  # stamps i/1000 print exactly in 12 digits
        assert drift <= 1e-11


class TestCsvRoundTrip:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x\n0,0\n1,1\n")
        series = load_trace(path)
        assert series.rate == pytest.approx(1.0)
        assert len(series) == 2
        assert series.label == "x"

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        rng = np.random.default_rng(3)
        series = TimeSeries(t=np.arange(300) / 1500.0, values=rng.standard_normal(300), label="a_tip")
        save_trace(first, series)
        save_trace(second, load_trace(first))
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_cell_round_trip_error_and_byte_stability(self, x):
        # write_csv formats each cell with fmt and read_numeric_csv parses it with
        # float: 12 significant digits move a value by at most 5e-12 relative,
        # and parsing the cell back by at most one ulp more
        cell = fmt(x)
        reloaded = float(cell)
        assert abs(reloaded - x) <= 5e-12 * abs(x) + math.ulp(x)
        assert fmt(reloaded) == cell

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width), max_size=20)))
    def test_write_csv_matches_per_cell_formatting(self, tmp_path_factory, rows):
        # the reference is the per-cell loop write_csv replaced: fmt of every
        # cell, comma-joined, one line per row (signed zeros, NaN and inf included);
        # the header is written as UTF-8
        width = len(rows[0]) if rows else 3
        header = [f"\u03b2{i}" for i in range(width)]
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        write_csv(path, header, [[row[i] for row in rows] for i in range(width)])
        expected = ",".join(header) + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()

    def test_jittered_timestamps_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        t = np.arange(50) / 100.0
        t[20] += 0.002  # 20 % of a step
        write_csv(path, ("t", "x"), (t, np.zeros(50)))
        with pytest.raises(ValueError, match="non-uniform sampling"):
            load_trace(path)

    def test_jitter_message_states_the_tolerance(self):
        t = np.arange(50) / 100.0
        t[20] += 0.002
        with pytest.raises(ValueError, match=r"deviate more than 0\.1 % from the median step"):
            timeseries.uniform_rate(t)

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, stamp):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,x\n0,0\n{stamp},1\n0.02,2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: time column must hold finite")):
            load_trace(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x\n0,0\n")
        with pytest.raises(ValueError, match="at least two rows"):
            load_trace(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x\n0,0\n1,oops\n")
        with pytest.raises(ValueError, match="non-numeric cell 'oops' on line 3"):
            load_trace(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x,y\n0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            load_trace(path)

    def test_decreasing_time_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x\n1,0\n0,1\n")
        with pytest.raises(ValueError, match="increasing"):
            load_trace(path)

    def test_read_numeric_csv_reports_ragged_row(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3 has 1 cells"):
            read_numeric_csv(path)


class TestHeaderQuoting:
    @pytest.mark.parametrize("label", ["a,b", 'say "hi"', "a\nb", "a\rb", "a, \"b\"\r\n"])
    def test_header_cell_is_quoted_and_reads_back(self, tmp_path, label):
        path = tmp_path / "trace.csv"
        write_csv(path, ("t", label), ([0.0, 1.0], [2.0, 3.0]))
        quoted = '"' + label.replace('"', '""') + '"'
        assert path.read_bytes() == f"t,{quoted}\n0,2\n1,3\n".encode()
        header, _ = read_numeric_csv(path, n_columns=2)
        assert header == ["t", label.strip()]

    def test_plain_header_cells_are_written_as_they_are(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("t", " a_tip", "x y", "\u03b2'"), ([0.0], [1.0], [2.0], [3.0]))
        assert path.read_bytes() == "t, a_tip,x y,\u03b2'\n0,1,2,3\n".encode()


#: the column containers write_csv accepts, each made from a list of values
COLUMN_TYPES = [list, tuple, np.array, lambda values: array("d", values),
                lambda values: np.array(values)[::-1], lambda values: np.array(values * 2)[::2]]


def assert_written_as_savetxt(tmp_path_factory, columns, reference_columns=None):
    """write_csv of columns gives the bytes of np.savetxt of reference_columns
    (by default the columns themselves)."""
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, header, columns)
    reference = path.with_name("reference.csv")
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack(reference_columns or columns), fmt="%.12g",
                   delimiter=",", header=",".join(header), comments="")
    assert path.read_bytes() == reference.read_bytes()


def columns_of(rows: int, *types):
    """Columns of `rows` distinct floats, one per column type."""
    return [make([i + j / 8 for i in range(rows)]) for j, make in enumerate(types)]


@settings(max_examples=100, deadline=None)
@given(columns=st.integers(1, 4).flatmap(lambda width: st.integers(0, 12).flatmap(
           lambda rows: st.lists(st.tuples(st.one_of(
               st.lists(st.floats(), min_size=rows, max_size=rows),
               st.lists(st.integers(-2**62, 2**62), min_size=rows, max_size=rows),
               st.lists(st.booleans(), min_size=rows, max_size=rows)),
               st.sampled_from(COLUMN_TYPES)).map(lambda cells: cells[1](cells[0])),
               min_size=width, max_size=width))),
       block=st.integers(1, 5) | st.just(timeseries._WRITE_ROWS))
# no row, one row, and one row either side of a whole number of blocks
@example(columns=columns_of(0, list, np.array), block=4)
@example(columns=columns_of(1, list, np.array), block=4)
@example(columns=columns_of(7, tuple, np.array), block=4)
@example(columns=columns_of(9, tuple, np.array), block=4)
@example(columns=columns_of(1023, list, np.array, COLUMN_TYPES[3]), block=1024)
@example(columns=columns_of(1025, list, np.array, COLUMN_TYPES[3]), block=1024)
def test_write_csv_matches_savetxt(tmp_path_factory, columns, block):
    # the replaced np.savetxt call is the reference, for any column dtype, for
    # columns given as lists or tuples (zipped as they are) and as arrays, array('d')
    # and reversed or strided views (read through a memoryview), in any block size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_WRITE_ROWS", block)
        assert_written_as_savetxt(tmp_path_factory, columns)


#: dtypes a memoryview cannot read (byte-swapped, half and extended precision)
#: and some it can
ARRAY_DTYPES = [">f8", "f2", "g", ">i4", "f4", "i8", "?"]


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(1, 3).flatmap(lambda width: st.integers(0, 12).flatmap(
           lambda rows: st.lists(st.sampled_from(ARRAY_DTYPES).flatmap(
               lambda dtype: hnp.arrays(dtype, rows)), min_size=width, max_size=width))))
def test_write_csv_writes_any_array_dtype_as_float64(tmp_path_factory, columns):
    with np.errstate(over="ignore"):  # an extended float beyond the float range is inf
        as_float64 = [column.astype(float) for column in columns]
    assert_written_as_savetxt(tmp_path_factory, columns, as_float64)


def test_save_trace_with_big_endian_t(tmp_path):
    t = np.arange(4) / 8.0
    path = tmp_path / "trace.csv"
    save_trace(path, TimeSeries(t=t.astype(">f8"), values=[1.0, 2.0, 3.0, 4.0]))
    assert path.read_text() == "t,value\n0,1\n0.125,2\n0.25,3\n0.375,4\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=re.escape("equal length, got lengths [3, 2]")):
        write_csv(path, ("t", "x"), (np.zeros(3), [0.0, 1.0]))
    assert not path.exists()


@pytest.mark.parametrize("newline,repeat", [("\n", 1), ("\r\n", 1), ("\n", 100_000)],
                         ids=["\n", "\r\n", "2.8MB"])
def test_plain_file_takes_the_fast_path(tmp_path, newline, repeat):
    # the validating reader is never reached for a plain file, with LF or CRLF
    # line ends and the last line without its newline; a file over 1 MB is read
    # in several chunks
    path = tmp_path / "trace.csv"
    path.write_text(newline.join(["t,x"] + ["0,1.5", " 1e-3 ,-inf", "0.002,nan"] * repeat),
                    newline="")
    with mock.patch.object(timeseries, "_read_csv_checked", side_effect=AssertionError):
        header, (t, x) = read_numeric_csv(path, n_columns=2)
    assert header == ["t", "x"]
    assert t.tolist() == [0.0, 1e-3, 0.002] * repeat and x[:2].tolist() == [1.5, -math.inf]
    assert math.isnan(x[2])
    assert [t.tobytes(), x.tobytes()] == [
        col.tobytes() for col in timeseries._read_csv_checked(path, 2)[1]]


NUMERIC_CELLS = st.one_of(
    st.floats().map(repr), st.floats().map(fmt), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1_000", " 1 ", "\t2\x0c", "1e999",
                     "\u0661", "\u2028 3"]))
JUNK_CELLS = st.one_of(
    st.sampled_from(["", "x", '"1"', '""', "\ufeff1", "0x1", "1__0", "1\x00", "\r"]),
    st.text(max_size=4))
CSV_LINES = st.one_of(
    st.lists(NUMERIC_CELLS, min_size=1, max_size=4).map(",".join),
    st.lists(NUMERIC_CELLS | JUNK_CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", " ", "\r", "\ufeff", '"a,b"', '"a\nb",1', "1" * 140_000 + ",1",
                     "2," + "3" * 140_000]))
CSV_HEADERS = st.one_of(
    st.sampled_from(["t,x", " t , a_tip ", "\ufefft,x", 't,"a,b"', "t", "a,b,c", "", "\r",
                     "t,x\r", "t," + "x" * 140_000]),
    st.lists(st.text(max_size=3), min_size=1, max_size=4).map(",".join))


@pytest.mark.filterwarnings("error")  # numpy warns on a chunk without data
@settings(max_examples=400, deadline=None)
@example(header="t,x", lines=["0,1", "1" * 140_000 + ",1"], newline="\n", trailing=True,
         n_columns=2)  # a field over the csv module's limit
@example(header="t,x", lines=["0,1,2", "3"], newline="\n", trailing=False, n_columns=None)
@example(header="t,x", lines=["0,1", "2,3"], newline="\r\n", trailing=True, n_columns=2)
@example(header="", lines=["0,1", "2,3"], newline="\r\n", trailing=True, n_columns=None)
@example(header='t,"a,b"', lines=[], newline="\n", trailing=True, n_columns=None)
# hazards of numpy's parser: comment characters, whitespace-only lines, a
# chunk without data, CR line ends and an inner space
@example(header="t,x", lines=["0,1", "#", "2,3"], newline="\n", trailing=True, n_columns=2)
@example(header="t,x", lines=["0,1", "1#2,3"], newline="\n", trailing=True, n_columns=2)
@example(header="t,x", lines=["0,1", " ", "2,3"], newline="\n", trailing=True, n_columns=2)
@example(header="t", lines=["", "", ""], newline="\n", trailing=True, n_columns=None)
@example(header="t,x", lines=["0,1", "2,3"], newline="\r", trailing=True, n_columns=2)
@example(header="t,x", lines=["0,1", "1 2,3"], newline="\n", trailing=False, n_columns=2)
@given(header=CSV_HEADERS, lines=st.lists(CSV_LINES, max_size=8),
       newline=st.sampled_from(["\n", "\n", "\r\n", "\r"]), trailing=st.booleans(),
       n_columns=st.sampled_from([None, 1, 2, 3]))
def test_fast_read_matches_the_validating_reader(tmp_path_factory, header, lines, newline,
                                                 trailing, n_columns):
    # read_numeric_csv, fast path first, gives exactly what the validating
    # reader gives: the header and bit-identical columns, or the same message
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    text = newline.join([header, *lines]) + (newline if trailing else "")
    path.write_text(text, encoding="utf-8", newline="")

    def outcome(reader):
        try:
            names, columns = reader(path, n_columns)
        except ValueError as exc:
            return str(exc)
        return names, [(col.dtype.str, col.shape, col.tobytes()) for col in columns]

    assert outcome(read_numeric_csv) == outcome(timeseries._read_csv_checked)
