import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmove import TimeSeries, load_trace, save_trace
from flexmove.timeseries import fmt, read_numeric_csv, write_csv


class TestTimeSeries:
    def test_times_derive_from_rate(self):
        series = TimeSeries(rate=10.0, t0=0.5, values=np.arange(4.0))
        assert np.allclose(series.times, [0.5, 0.6, 0.7, 0.8])
        assert len(series) == 4

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            TimeSeries(rate=0.0, t0=0.0, values=np.zeros(5))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="two samples"):
            TimeSeries(rate=1.0, t0=0.0, values=np.zeros(1))


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
        series = TimeSeries(rate=1500.0, t0=0.0, values=rng.standard_normal(300), label="a_tip")
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
