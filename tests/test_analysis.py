import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import BENCH
from flexmove import MotionSpec, amplitude_table, residual_report, suppression_ratio, sweep_n
from flexmove.analysis import energy_figure
from flexmove.motion import simpson_grid
from flexmove.timeseries import read_numeric_csv

# Frozen drive-cost figure for the bench move; equals m*L^2*p^2/pi^2.
BENCH_ENERGY = 0.012802835429356531

MOVE = {key: BENCH[key] for key in ("L", "k", "m")}


def residual_amplitude(n: float) -> float:
    """Closed-form residual amplitude of the bench displacement and frequency at multiple n."""
    return residual_report(MotionSpec(L=0.41, k=5.78, n=n, m=1.0, exploratory=True)).amplitude


class TestSweep:
    def test_half_step_sweep(self):
        result = sweep_n(**MOVE, n_from=2.0, n_to=4.0, step=0.5)
        by_n = {row.n: row for row in result.rows}
        assert set(by_n) == {2.0, 2.5, 3.0, 3.5, 4.0}
        for n in (2.0, 3.0, 4.0):
            assert by_n[n].quiescent
            assert by_n[n].residual <= 1e-12
        for n in (2.5, 3.5):
            assert not by_n[n].quiescent
            assert by_n[n].residual > 1e-4
        assert by_n[2.5].residual > by_n[3.5].residual

    @pytest.mark.parametrize("n, quiescent", [(1e6 + 5e-4, True), (3 + 5e-9, False)])
    def test_the_integer_tolerance_is_relative(self, n, quiescent):
        # INTEGER_N_TOL * n: 5e-4 off an integer is matched at n = 1e6, 5e-9 is not at n = 3
        (row,) = sweep_n(**MOVE, n_from=n, n_to=n, step=1.0).rows
        assert row.quiescent is quiescent

    def test_quarter_step_row_count(self):
        assert len(sweep_n(**MOVE, n_from=2.0, n_to=4.0, step=0.25)) == 9

    def test_rows_carry_motion_time_and_energy(self):
        result = sweep_n(**MOVE, n_from=2.0, n_to=3.0, step=1.0)
        assert result.rows[0].t1 == pytest.approx(2 * 2 * math.pi / 5.78, rel=1e-12)
        assert result.rows[1].t1 == pytest.approx(3 * 2 * math.pi / 5.78, rel=1e-12)
        assert all(row.energy > 0.0 for row in result.rows)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="above n = 1"):
            sweep_n(**MOVE, n_from=1.0, n_to=4.0, step=0.5)
        with pytest.raises(ValueError, match="step"):
            sweep_n(**MOVE, n_from=2.0, n_to=4.0, step=0.0)
        with pytest.raises(ValueError, match="n_to"):
            sweep_n(**MOVE, n_from=4.0, n_to=2.0, step=0.5)
        with pytest.raises(ValueError, match="^sweep n_from must be finite, got '2'$"):
            sweep_n(**MOVE, n_from="2", n_to=3, step=0.5)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        result = sweep_n(**MOVE, n_from=2.0, n_to=4.0, step=0.25)
        result.write_csv(path)
        header, columns = read_numeric_csv(path, n_columns=5)
        assert header == ["n", "t1", "residual", "energy", "quiescent"]
        assert len(columns[0]) == 9
        assert list(columns[4]) == [float(row.quiescent) for row in result.rows]

    def test_residual_touches_zero_only_at_integers(self):
        # local minima with machine-zero value at each integer multiple
        for n in range(2, 10):
            at = residual_amplitude(float(n))
            assert at <= 1e-12
            assert residual_amplitude(n - 0.01) > at
            assert residual_amplitude(n + 0.01) > at

    def test_residual_is_continuous_in_n(self):
        ns = np.arange(1.9, 5.1, 1e-3)
        amps = np.array([residual_amplitude(float(n)) for n in ns])
        # bounded increments on a fine grid rule out jumps
        assert np.max(np.abs(np.diff(amps))) < 5e-4

    def test_peak_residual_decreases_between_consecutive_integers(self):
        peaks = []
        for n in range(2, 10):
            grid = np.linspace(n + 0.02, n + 0.98, 97)
            peaks.append(max(residual_amplitude(float(x)) for x in grid))
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_mass_does_not_change_residual(self):
        light = sweep_n(L=0.41, k=5.78, m=0.02, n_from=2.5, n_to=2.5, step=1.0)
        heavy = sweep_n(L=0.41, k=5.78, m=0.9, n_from=2.5, n_to=2.5, step=1.0)
        assert light.rows[0].residual == heavy.rows[0].residual


class TestEnergyFigure:
    def test_bench_value_and_analytic_form(self, bench_spec):
        value = energy_figure(bench_spec)
        assert value == pytest.approx(BENCH_ENERGY, rel=1e-9)
        assert value == pytest.approx(reference.figures(bench_spec)["drive_energy"], rel=1e-9)

    def test_positive_and_quadrature_stable(self, bench_spec):
        step = bench_spec.t1 / 100_000
        coarse = energy_figure(bench_spec, step=step)
        fine = energy_figure(bench_spec, step=step / 2)
        assert coarse > 0.0
        assert abs(fine - coarse) <= 1e-6 * coarse

    def test_scaling_in_mass_displacement_and_frequency(self):
        # E = m * L**2 * p**2 / pi**2: linear in m, quadratic in L and in p
        base = energy_figure(MotionSpec(L=0.41, k=5.78, n=2.0, m=0.09))
        tripled_mass = energy_figure(MotionSpec(L=0.41, k=5.78, n=2.0, m=3 * 0.09))
        doubled_length = energy_figure(MotionSpec(L=2 * 0.41, k=5.78, n=2.0, m=0.09))
        doubled_rate = energy_figure(MotionSpec(L=0.41, k=2 * 5.78, n=2.0, m=0.09))
        assert tripled_mass / base == pytest.approx(3.0, rel=1e-6)
        assert doubled_length / base == pytest.approx(4.0, rel=1e-6)
        assert doubled_rate / base == pytest.approx(4.0, rel=1e-6)

    def test_default_grid_keeps_the_sign_change_on_a_panel_boundary(self):
        # t1 / (t1 / 100000) rounds to just above 100000; the grid must still
        # have 100000 intervals, not 100002, or the kink of |u*v| at t1/2
        # falls inside a Simpson panel and costs ~7e-10 relative
        spec = MotionSpec(L=0.41, k=6.0, n=2.0, m=0.09)
        assert len(simpson_grid(spec.t1, spec.t1 / 100_000)) == 100_001
        closed_form = reference.figures(spec)["drive_energy"]
        assert energy_figure(spec) == pytest.approx(closed_form, rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(L=st.floats(0.01, 2.0), k=st.floats(0.5, 50.0), m=st.floats(0.01, 1.0),
           n_from=st.one_of(st.integers(2, 12).map(float), st.floats(1.01, 12.0)),
           step=st.floats(0.05, 1.0), extra_rows=st.integers(0, 2))
    def test_sweep_energy_matches_the_quadrature_oracle(self, L, k, m, n_from, step,
                                                        extra_rows):
        result = sweep_n(L=L, k=k, m=m, n_from=n_from, n_to=n_from + extra_rows * step,
                         step=step)
        for row in result.rows:
            if row.quiescent:
                spec = MotionSpec(L=L, k=k, n=float(round(row.n)), m=m)
            else:
                spec = MotionSpec(L=L, k=k, n=row.n, m=m, exploratory=True)
            assert row.energy == pytest.approx(energy_figure(spec), rel=1e-12)

    def test_vanishes_with_displacement(self):
        tiny = energy_figure(MotionSpec(L=1e-6, k=5.78, n=2.0, m=0.09))
        assert tiny == pytest.approx(BENCH_ENERGY * (1e-6 / 0.41) ** 2, rel=1e-6)


class TestSuppressionRatio:
    def test_matched_versus_mistimed(self, bench_spec):
        matched = residual_report(bench_spec)
        unmatched = residual_report(
            MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True))
        assert suppression_ratio(matched, unmatched) >= 100.0

    def test_identical_reports_give_one(self):
        spec = MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True)
        report = residual_report(spec)
        assert suppression_ratio(report, report) == pytest.approx(1.0)

    def test_longer_time_alone_helps_but_does_not_win(self):
        slow = residual_report(MotionSpec(L=0.41, k=5.78, n=10.5, m=0.09, exploratory=True))
        fast = residual_report(MotionSpec(L=0.41, k=5.78, n=2.5, m=0.09, exploratory=True))
        assert suppression_ratio(slow, fast) > 1.0

    def test_mismatched_moves_rejected(self, bench_spec):
        other = residual_report(MotionSpec(L=0.8, k=5.78, n=2.5, m=0.09, exploratory=True))
        with pytest.raises(ValueError, match="L differs"):
            suppression_ratio(residual_report(bench_spec), other)


class TestAmplitudeTable:
    MASSES = (0.02, 0.06, 0.075, 0.09)

    def test_matched_column_is_quiescent(self, bench_beam):
        table = amplitude_table(self.MASSES, bench_beam, L=0.41)
        assert table.matched == (0.0, 0.0, 0.0, 0.0)

    def test_unmatched_column_is_positive_for_every_mass(self, bench_beam):
        table = amplitude_table(self.MASSES, bench_beam, L=0.41)
        assert all(amp > 1e-5 for amp in table.unmatched)
        assert all(un > ma for un, ma in zip(table.unmatched, table.matched))

    def test_frequencies_follow_the_masses(self, bench_beam):
        table = amplitude_table(self.MASSES, bench_beam, L=0.41)
        assert table.frequencies == tuple(sorted(table.frequencies, reverse=True))
        assert table.frequencies[-1] == pytest.approx(5.78, rel=5e-3)

    def test_text_report_mentions_the_simulation_caveat(self, bench_beam):
        text = amplitude_table(self.MASSES, bench_beam, L=0.41).to_text()
        assert "not reproduced" in text
        assert "mistimed" in text and "matched" in text

    def test_csv_output(self, bench_beam, tmp_path):
        path = tmp_path / "table.csv"
        amplitude_table(self.MASSES, bench_beam, L=0.41).write_csv(path)
        header, columns = read_numeric_csv(path, n_columns=4)
        assert header == ["mass", "k", "matched_amplitude", "unmatched_amplitude"]
        assert list(columns[0]) == list(self.MASSES)

    def test_input_validation(self, bench_beam):
        with pytest.raises(ValueError, match="at least one"):
            amplitude_table((), bench_beam, L=0.41)
        with pytest.raises(ValueError, match="positive"):
            amplitude_table((0.09, -0.1), bench_beam, L=0.41)

    @pytest.mark.parametrize("n", [2.5, 2.0 + 1e-12, 1.5])
    def test_matched_multiple_must_be_an_integer(self, bench_beam, n):
        with pytest.raises(ValueError, match="period multiple n = .* is not an integer"):
            amplitude_table(self.MASSES, bench_beam, L=0.41, n=n, unmatched_n=2.5)

    @pytest.mark.parametrize("unmatched_n", [2.0, 3.0, 3.0 - 1e-12, 7.0 + 1e-12])
    def test_mistimed_multiple_must_not_count_as_matched(self, bench_beam, unmatched_n):
        with pytest.raises(ValueError, match="is a matched multiple"):
            amplitude_table(self.MASSES, bench_beam, L=0.41, n=2.0, unmatched_n=unmatched_n)

    @pytest.mark.parametrize("unmatched_n", [1.5, 2.0 + 1e-6, 3.2])
    def test_mistimed_multiples_near_but_off_an_integer_are_accepted(self, bench_beam,
                                                                     unmatched_n):
        table = amplitude_table(self.MASSES, bench_beam, L=0.41, n=3.0, unmatched_n=unmatched_n)
        assert all(amp > 0.0 for amp in table.unmatched)
        assert table.matched == (0.0,) * len(self.MASSES)
