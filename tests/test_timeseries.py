import csv
import math
import operator
import os
import re
import stat
import struct
import threading
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
from reference import EDGE_CELLS, adversarial_cells, near_tie


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
        assert series.rate == 1.0 / np.median(np.diff(series.t))

    @pytest.mark.parametrize("t, message", [
        ([0.3, 0.2, 0.1, 0.0], "strictly increasing"),
        ([0.0, 0.0, 0.0, 0.0], "strictly increasing"),
        ([0.0, 0.1, 0.25, 0.3], "non-uniform sampling"),
        ([0.0, 0.1, np.nan, 0.3], "time column must hold finite numbers"),
    ], ids=["decreasing", "constant", "jittered", "nan"])
    def test_rejects_a_time_column_without_one_rate(self, t, message):
        with pytest.raises(ValueError, match=message):
            TimeSeries(t, np.zeros(4))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="^value column must hold finite numbers$"):
            TimeSeries([0.0, 0.1, 0.2, 0.3], [0.0, value, 1.0, 2.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="two samples"):
            TimeSeries(t=np.zeros(1), values=np.zeros(1))

    @pytest.mark.parametrize("label", [5, None, b"tip"])
    def test_rejects_a_label_that_is_not_a_str(self, label):
        # the label heads the CSV column save_trace writes
        with pytest.raises(ValueError, match="^a series label must be a str"):
            TimeSeries([0, 1, 2], [1, 2, 3], label)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=9))
@example([0.1, math.inf, 0.1])
@example([0.1, math.inf])
@example([math.inf, -math.inf])
@example([1.7976931348623157e308, 1.7976931348623157e308])
@example([-0.0])
@example([-0.0, -0.0])
def test_median_has_the_bits_of_np_median(steps):
    # TimeSeries takes its median step by np.partition, on odd and even lengths,
    # because np.median's NaN check imports numpy.ma on its first call
    steps = np.array(steps)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and a sum past the range
        expected = np.median(steps)
    assert struct.pack("<d", timeseries._median(steps)) == struct.pack("<d", expected)


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rate=st.floats(0.0, 6.0).map(lambda exponent: 10.0 ** exponent),
       length=st.floats(math.log10(2.0), math.log10(2e5)).map(lambda e: round(10.0 ** e)))
@example(rate=1.0, length=2)
@example(rate=1e6, length=200_000)
@example(rate=997.0, length=200_000)
def test_a_reloaded_rate_drifts_by_at_most_the_stated_bound(tmp_path_factory, rate, length):
    # README: a reloaded trace's rate moves by at most 1e-11 * t_end * rate relative,
    # from 1 Hz to 1 MHz and for any length
    t = np.arange(length) / rate
    series = TimeSeries(t, np.ones(length), "a_tip")
    path = tmp_path_factory.mktemp("trace") / "tip.csv"
    save_trace(path, series)
    drift = abs(load_trace(path).rate / series.rate - 1.0)
    assert drift <= 1e-11 * t[-1] * rate


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
            TimeSeries(t, np.zeros(50))

    @pytest.mark.parametrize("stamp", ["nan", "inf"])
    def test_non_finite_timestamp_rejected(self, tmp_path, stamp):
        path = tmp_path / "trace.csv"
        path.write_text(f"t,x\n0,0\n{stamp},1\n0.02,2\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: time column must hold finite")):
            load_trace(path)

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x\n0,0\n")
        with pytest.raises(ValueError, match="at least two samples"):
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


BLOCK = timeseries._WRITE_ROWS

#: EDGE_CELLS between as many cells that the float64 formatter certifies
EDGES_SPLICED = [cell for edge in EDGE_CELLS for cell in (edge, 1.25)]

#: nearly half of these need the template: the formatter writes their blocks
#: and splices in the template's cells
ADVERSARIAL = adversarial_cells()


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
# the float64 formatter, one row either side of a whole block
@example(columns=columns_of(BLOCK - 1, np.array, np.array), block=BLOCK)
@example(columns=columns_of(BLOCK, np.array, np.array), block=BLOCK)
@example(columns=columns_of(BLOCK + 1, np.array, np.array), block=BLOCK)
# columns where most cells need the template: 13-digit decimals ending in 5,
# k + 0.5 at 12 integer digits, and values all below 1e-4
@example(columns=[np.array([near_tie(123456789012 + 7 * i, i % 16 - 4) for i in range(40)])],
         block=BLOCK)
@example(columns=[np.array([123456789012.5 + i for i in range(40)])], block=BLOCK)
@example(columns=[np.array([(i - 20) * 3.1e-6 for i in range(40)])], block=BLOCK)
# zeros, subnormals, the float range and cells that round into another notation,
# spliced into formatted blocks, in arrays and in reversed and strided views
@example(columns=[np.array(EDGES_SPLICED)], block=BLOCK)
@example(columns=[COLUMN_TYPES[4](EDGES_SPLICED), COLUMN_TYPES[5](EDGES_SPLICED)], block=BLOCK)
@example(columns=[COLUMN_TYPES[4](EDGES_SPLICED), COLUMN_TYPES[5](EDGES_SPLICED)], block=3)
@example(columns=[ADVERSARIAL, ADVERSARIAL[::-1]], block=BLOCK)
def test_write_csv_matches_savetxt(tmp_path_factory, columns, block):
    # the replaced np.savetxt call is the reference, for any column dtype, for
    # columns that are all lists, tuples or array('d') (zipped as they are, through
    # the template), and for any other mix, arrays and their reversed or strided
    # views included (read as float64 blocks, through the float64 formatter), in
    # any block size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_WRITE_ROWS", block)
        assert_written_as_savetxt(tmp_path_factory, columns)


#: finite float64 cells, subnormals included, and cells within two ulps of a tie
#: of their 12-digit rounding at every exponent around the fixed notation
NEAR_TIES = st.builds(near_tie, st.integers(10**11, 10**12 - 1), st.integers(-5, 12),
                      st.integers(-2, 2))
FINITE_CELLS = st.floats(allow_nan=False, allow_infinity=False) | NEAR_TIES | NEAR_TIES.map(
    operator.neg)


@settings(max_examples=300, deadline=None)
@given(st.lists(FINITE_CELLS, min_size=1, max_size=30))
@example(list(EDGE_CELLS))
def test_each_float64_cell_is_written_as_the_template_writes_it(tmp_path_factory, values):
    # every other cell is one the formatter certifies, so that the formatter
    # writes the block and splices in the cells it leaves to the template
    column = np.array([cell for value in values for cell in (value, len(values) + 0.25)])
    path = tmp_path_factory.mktemp("csv") / "column.csv"
    write_csv(path, ("x",), (column,))
    assert path.read_bytes().split(b"\n")[1:-1] == [b"%.12g" % cell for cell in column.tolist()]


@pytest.mark.parametrize("seed", [1, 2])
def test_an_exponent_off_by_one_changes_no_byte(tmp_path, monkeypatch, seed):
    # log10 has SIMD loops that may round differently: whatever exponent it
    # suggests, the certificate moves a cell to the template, never changes a byte
    cells = adversarial_cells(8_000, seed)
    expected = b"x\n" + b"".join(b"%.12g\n" % cell for cell in cells.tolist())
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(timeseries.np, "log10", lambda x: np.log10(x) + rng.choice(
        [-1.0, 0.0, 1.0], len(x), p=[0.1, 0.8, 0.1]))
    path = tmp_path / "column.csv"
    write_csv(path, ("x",), (cells,))
    assert path.read_bytes() == expected


#: real dtypes, each read as float64 a block at a time: native and swapped byte
#: order, half and extended floats
ARRAY_DTYPES = ["f8", ">f8", "f2", "f4", "g", "i4", "i8", "?"]


@settings(max_examples=60, deadline=None)
@given(columns=st.integers(1, 3).flatmap(lambda width: st.integers(0, 12).flatmap(
           lambda rows: st.lists(st.sampled_from(ARRAY_DTYPES).flatmap(
               lambda dtype: hnp.arrays(dtype, rows)), min_size=width, max_size=width))))
def test_write_csv_writes_any_array_dtype_as_float64(tmp_path_factory, columns):
    as_float64 = [column.astype(float) for column in columns]
    assert_written_as_savetxt(tmp_path_factory, columns, as_float64)


@pytest.mark.parametrize("columns", [(np.zeros((3, 1)),), (np.zeros(3), np.zeros((3, 2))),
                                     ([0.0, 1.0], np.array([1 + 2j, 3 - 1j]))],
                         ids=["2-D", "1-D and 2-D", "complex"])
def test_write_csv_rejects_a_column_that_is_not_1d_and_real(tmp_path, columns):
    # checked before the file is opened: no file is made, and an existing one keeps its bytes
    path, kept = tmp_path / "table.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"t\n0\n")
    for target in (path, kept):
        with pytest.raises(ValueError, match="each column must be one-dimensional and real"):
            write_csv(target, [f"c{i}" for i in range(len(columns))], columns)
    assert not path.exists() and kept.read_bytes() == b"t\n0\n"


#: a column with one cell that is not a real number, in the first block or after it
LATE = BLOCK + 452


@pytest.mark.parametrize("columns", [
    [np.array(["1.5", "x"])],
    [np.array(["0.5"] * LATE + ["x"])],
    [np.array([0.5] * LATE + ["x"], dtype=object), np.zeros(LATE + 1)],
    [[0.5] * LATE + ["x"]],
    [tuple(range(LATE)) + (None,), array("d", range(LATE + 1))],
    [[0.5] * LATE + [1j], np.zeros(LATE + 1)],
], ids=["strings", "strings-late", "objects-late", "list-late", "tuple-late", "list-and-array"])
def test_a_cell_that_fails_its_conversion_leaves_no_file(tmp_path, columns):
    # every column is converted before the file is opened: no file is made, an
    # existing one keeps its bytes, and no block of rows is left behind
    path, kept = tmp_path / "table.csv", tmp_path / "kept.csv"
    kept.write_bytes(b"t\n0\n")
    for target in (path, kept):
        with pytest.raises(ValueError):
            write_csv(target, [f"c{i}" for i in range(len(columns))], columns)
    assert not path.exists() and kept.read_bytes() == b"t\n0\n"


def test_a_column_fault_is_a_value_error_that_names_the_column(tmp_path):
    message = "column 'v' holds a cell that is not a real number: must be real number, not str"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        write_csv(tmp_path / "table.csv", ["t", "v"], [[0.0, 1.0], [0.5, "x"]])
    with pytest.raises(ValueError, match="^need one header name per column, got 1 names for 2"):
        write_csv(tmp_path / "table.csv", ["t"], [[0.0], [0.5]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [5, None, b"v"])
def test_a_header_name_that_is_not_a_str_leaves_no_file(tmp_path, name):
    with pytest.raises(ValueError, match=f"^header name {re.escape(repr(name))} is not a str$"):
        write_csv(tmp_path / "table.csv", ["t", name], [[0.0, 1.0], [0.5, 1.5]])
    assert list(tmp_path.iterdir()) == []


def test_a_write_that_fails_leaves_the_old_file_and_no_temporary_one(tmp_path):
    # a failure after some blocks are out (a full disk, say) reaches the caller; the
    # rows went to a file beside the output, which is removed
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t\n0\n")
    formatter = timeseries._format_float64
    calls = []

    def fail_on_the_second_block(table):
        calls.append(len(table))
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return formatter(table)

    with mock.patch.object(timeseries, "_format_float64", fail_on_the_second_block):
        with pytest.raises(OSError, match="No space left"):
            write_csv(path, ["t"], [np.arange(3 * timeseries._WRITE_ROWS) / 7.0])
    assert len(calls) == 2
    assert path.read_bytes() == b"t\n0\n" and list(tmp_path.iterdir()) == [path]


def test_a_missing_directory_is_named_as_the_output(tmp_path):
    path = tmp_path / "missing" / "trace.csv"
    with pytest.raises(FileNotFoundError, match=re.escape(repr(str(path)))):
        write_csv(path, ["t"], [[0.0]])


@pytest.mark.skipif(not hasattr(os, "fchmod"), reason="needs POSIX modes")
def test_a_new_file_gets_the_umask_mode_and_a_replaced_one_keeps_its_own(tmp_path):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_bytes(b"x\n")
    old.chmod(0o600)
    umask = os.umask(0o027)
    try:
        write_csv(new, ["t"], [[0.5]])
        write_csv(old, ["t"], [[0.5]])
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert stat.S_IMODE(old.stat().st_mode) == 0o600
    assert new.read_bytes() == old.read_bytes() == b"t\n0.5\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
def test_a_symlink_is_written_through(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"x\n")
    link.symlink_to(target.name)
    write_csv(link, ["t"], [[0.5]])
    assert link.is_symlink() and target.read_bytes() == b"t\n0.5\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_written_in_place_as_a_stream(tmp_path):
    # a pipe cannot be replaced by a file beside it: its reader gets the rows as
    # they go, more than the pipe's buffer holds, and the pipe stays a pipe
    fifo, plain = tmp_path / "trace.fifo", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    column = np.arange(20_000) / 7.0
    write_csv(plain, ["t"], [column])
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_csv(fifo, ["t"], [column])
    reader.join(10.0)
    assert not reader.is_alive() and got == [plain.read_bytes()]
    assert len(got[0]) > 1 << 16 and stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["plain.csv", "trace.fifo"]


def test_numeric_array_columns_are_not_copied_whole():
    # a bool, integer or float column stays a view, converted a block at a time, so
    # that a large column is held once; any other kind is converted once, up front
    for dtype in ("?", "i4", "u8", ">f8", "f2"):
        column = np.zeros(5, dtype)
        assert timeseries._column("c", column) is column
    for column in (np.array(["1.5"]), np.array([1.5], dtype=object), np.array([1], "m8[s]")):
        assert timeseries._column("c", column).dtype == np.float64
    same = array("d", [1.5])
    assert timeseries._column("c", same) is same
    assert timeseries._column("c", (1, True)) == array("d", [1.0, 1.0])


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


def outcome(reader, path, n_columns):
    """What reader gives for path: the header and each column's dtype, shape and
    bytes, or the message of its ValueError."""
    try:
        names, columns = reader(path, n_columns)
    except ValueError as exc:
        return str(exc)
    return names, [(col.dtype.str, col.shape, col.tobytes()) for col in columns]


@settings(max_examples=200, deadline=None)
@example(limit=5, read_bytes=2, lengths=[5, 6], newline="\n")
@example(limit=5, read_bytes=3, lengths=[5, 5, 5], newline="\r\n")
@example(limit=4, read_bytes=16, lengths=[0, 5], newline="\n")  # a long line inside a window
@example(limit=4, read_bytes=16, lengths=[1, 1, 1, 1], newline="\r")  # CR ends in one window
@given(limit=st.integers(2, 12), read_bytes=st.integers(2, 16),
       lengths=st.lists(st.integers(0, 30), min_size=1, max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_the_fast_path_takes_every_line_within_the_field_limit(tmp_path_factory, limit,
                                                               read_bytes, lengths, newline):
    # with a small field limit and chunks of a few bytes, lines run across chunks
    # and search windows: a file whose lines all fit the limit takes the fast path,
    # and every file reads as the csv module reads it
    path = tmp_path_factory.mktemp("csv") / "column.csv"
    path.write_text("t\n" + "".join("1" * n + newline for n in lengths), newline="")
    old = csv.field_size_limit(limit)
    try:
        with mock.patch.object(timeseries, "_READ_BYTES", read_bytes), mock.patch.object(
                timeseries, "_read_csv_checked", wraps=timeseries._read_csv_checked) as checked:
            got = outcome(read_numeric_csv, path, None)
        assert got == outcome(timeseries._read_csv_checked, path, None)
    finally:
        csv.field_size_limit(old)
    # a body of empty lines holds no data for numpy
    assert checked.called == (max(lengths) > limit or max(lengths) == 0)


@pytest.mark.parametrize("name", ["trace.csv.gz", "trace.bz2", "trace.xz", "trace.lzma",
                                  "http://trace.csv"])
def test_a_name_numpy_would_open_otherwise_is_read_as_it_is(tmp_path, monkeypatch, name):
    # np.loadtxt opens a file by its name's ending as compressed, and fetches a name
    # that parses as a URL; such a name never reaches numpy, and the file reads as
    # the plain file it is.  "http://trace.csv" is trace.csv in the directory "http:"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:").mkdir()
    data = "t,x\n0,1.5\n0.5,2\n"
    for path in (name, "plain.csv"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    with mock.patch.object(timeseries.np, "loadtxt", side_effect=AssertionError):
        got = outcome(read_numeric_csv, name, 2)
    assert got == outcome(read_numeric_csv, "plain.csv", 2)
    assert got[0] == ["t", "x"]


def read_through_fifo(tmp_path, data: bytes, n_columns):
    """outcome() of read_numeric_csv on a FIFO that a writer thread fills with data.

    A reader that opened the FIFO again would wait for a writer that has gone: after
    10 s a write end is opened and closed, so that open returns at end of file and
    the test fails instead of hanging.
    """
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    released = []

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    def release():
        released.append(True)
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader waits
            pass

    writer = threading.Thread(target=write, daemon=True)
    timer = threading.Timer(10.0, release)
    timer.daemon = True
    writer.start()
    timer.start()
    try:
        got = outcome(read_numeric_csv, fifo, n_columns)
    finally:
        timer.cancel()
    writer.join(10.0)
    assert not released, "the FIFO was opened again after its writer had gone"
    assert not writer.is_alive()
    return got


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("data", [
    b"t,x\n0,1.5\n 1e-3 ,-inf\n0.002,nan\n",
    b"t,x\n" + b"0,1.5\n1e-3,-2\n" * 50_000,  # more than a pipe's buffer
    b't,"a,b"\n0,1\n0.5,2\n',  # a quote in the header: the csv module's route
], ids=["plain", "1.1MB", "quoted-header"])
def test_a_pipe_is_read_once(tmp_path, data):
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    expected = outcome(read_numeric_csv, path, 2)
    assert isinstance(expected, tuple)
    assert read_through_fifo(tmp_path, data, 2) == expected
