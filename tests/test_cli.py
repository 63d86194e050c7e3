import contextlib
import gc
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BENCH_BEAM, child_env
import flexmove.__main__
from flexmove.cli import _COMMANDS, _expand_args, _fast_args, build_parser, main
from test_golden import CASES as GOLDEN_CASES
from test_readme import ARGS_FILE as README_ARGS_FILE, COMMANDS as README_COMMANDS
from flexmove.timeseries import read_numeric_csv, write_csv


@pytest.fixture
def beam_json(tmp_path):
    path = tmp_path / "beam.json"
    path.write_text(json.dumps(BENCH_BEAM))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_writes_setpoints_and_summary(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        code, stdout, _ = run(capsys, "plan", "--L", "0.41", "--k", "5.78",
                              "--n", "2", "--mass", "0.09", "--rate", "1500", "--out", str(out))
        assert code == 0
        header, columns = read_numeric_csv(out, n_columns=4)
        assert header == ["t", "s", "v", "a"]
        assert len(columns[0]) == 3262
        assert columns[1][-1] == pytest.approx(0.41, rel=1e-9)
        assert "t1 = " in stdout and "p = " in stdout and "peak acceleration" in stdout

    def test_rate_giving_one_setpoint_fails(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, "plan", "--L", "0.41", "--k", "5.78", "--n", "2",
                                   "--mass", "0.09", "--rate", "0.3", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "lowest admissible rate is 0.45995" in stderr
        assert not out.exists()

    def test_resonant_multiple_fails(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--k", "5.78",
                              "--n", "1", "--mass", "0.09", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "resonant" in stderr

    def test_non_integer_needs_exploratory_flag(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--k", "5.78",
                              "--n", "2.5", "--mass", "0.09", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "exploratory" in stderr

    def test_beam_chain_matches_direct_frequency(self, tmp_path, capsys, beam_json):
        direct = tmp_path / "direct.csv"
        chained = tmp_path / "chained.csv"
        assert run(capsys, "plan", "--L", "0.41", "--k", "5.78", "--n", "2",
                   "--mass", "0.09", "--rate", "200", "--out", str(direct))[0] == 0
        assert run(capsys, "plan", "--L", "0.41", "--beam", beam_json, "--n", "2",
                   "--mass", "0.09", "--rate", "200", "--out", str(chained))[0] == 0
        _, direct_cols = read_numeric_csv(direct, n_columns=4)
        _, chained_cols = read_numeric_csv(chained, n_columns=4)
        for a, b in zip(direct_cols[1:], chained_cols[1:]):
            size = min(len(a), len(b))
            scale = np.max(np.abs(a))
            assert np.max(np.abs(a[:size] - b[:size])) <= 5e-3 * scale

    def test_frequency_source_is_exclusive(self, tmp_path, capsys, beam_json):
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--k", "5.78", "--beam", beam_json,
                              "--n", "2", "--mass", "0.09", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "not both" in stderr
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--n", "2",
                              "--mass", "0.09", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "frequency source" in stderr

    def test_argument_errors_return_2_with_one_line(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "plan", "--L", "abc", "--k", "5.78", "--n", "2",
                              "--mass", "0.09", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "--L" in stderr

    def test_deterministic_output(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["plan", "--L", "0.41", "--k", "5.78", "--n", "2", "--mass", "0.09", "--rate", "777"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestSimulate:
    def test_matched_move_reports_quiescent(self, capsys):
        code, stdout, _ = run(capsys, "simulate", "--L", "0.41", "--k", "5.78",
                              "--n", "2", "--mass", "0.09")
        assert code == 0
        report = json.loads(stdout)
        assert report["quiescent"] is True
        assert report["amplitude"] <= 1e-6 * 0.41

    def test_mistimed_move_reports_residual(self, capsys):
        code, stdout, _ = run(capsys, "simulate", "--L", "0.41", "--k", "5.78",
                              "--n", "2.5", "--mass", "0.09", "--exploratory")
        assert code == 0
        report = json.loads(stdout)
        assert report["quiescent"] is False
        assert report["amplitude"] > 1e-3

    def test_non_integer_without_flag_fails(self, capsys):
        code, _, stderr = run(capsys, "simulate", "--L", "0.41", "--k", "5.78",
                              "--n", "2.5", "--mass", "0.09")
        assert code == 2
        assert "exploratory" in stderr

    def test_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "simulate", "--L", "0.41", "--k", "5.78", "--n", "2",
                         "--mass", "0.09", "--trace-out", str(trace))
        assert code == 0
        header, columns = read_numeric_csv(trace, n_columns=4)
        assert header == ["t", "x_r", "v_r", "a_r"]
        assert len(columns[0]) == 20_001


class TestSweep:
    def test_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(capsys, "sweep", "--L", "0.41", "--k", "5.78", "--mass", "0.09",
                              "--n-from", "2", "--n-to", "4", "--step", "0.25", "--out", str(out))
        assert code == 0
        assert "9 rows" in stdout
        header, columns = read_numeric_csv(out, n_columns=5)
        assert header == ["n", "t1", "residual", "energy", "quiescent"]
        quiescent = {n: q for n, q in zip(columns[0], columns[4])}
        assert quiescent[2.0] == 1.0 and quiescent[3.0] == 1.0 and quiescent[4.0] == 1.0
        assert quiescent[2.5] == 0.0

    def test_missing_range_fails(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "sweep", "--L", "0.41", "--k", "5.78", "--mass", "0.09",
                              "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--n-from" in stderr

    @pytest.mark.parametrize("flag, value", [("--n-to", "inf"), ("--n-from", "nan"),
                                             ("--n-to", "nan"), ("--step", "nan")])
    def test_non_finite_range_rejected(self, tmp_path, capsys, flag, value):
        ranges = {"--n-from": "2", "--n-to": "4", "--step": "0.25", flag: value}
        code, _, stderr = run(capsys, "sweep", "--L", "0.41", "--k", "5.78", "--mass", "0.09",
                              *(token for item in ranges.items() for token in item),
                              "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert f"{flag[2:].replace('-', '_')} must be finite" in stderr

    def test_beam_supplies_the_mass(self, tmp_path, capsys, beam_json):
        # the beam's m_tip (0.09) is the mass, as plan --beam takes it
        outputs = []
        for mass in ((), ("--mass", "0.09")):
            out = tmp_path / f"sweep{len(outputs)}.csv"
            code, _, stderr = run(capsys, "sweep", "--L", "0.41", "--beam", beam_json, *mass,
                                  "--n-from", "2", "--n-to", "3", "--step", "0.5",
                                  "--out", str(out))
            assert (code, stderr) == (0, "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_mass_is_required_with_k(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, stderr = run(capsys, "sweep", "--L", "0.41", "--k", "5.78", "--n-from", "2",
                              "--n-to", "3", "--step", "0.5", "--out", str(out))
        assert code == 2
        assert stderr == "error: missing required option --mass (carried object mass)\n"
        assert not out.exists()


MOVE = ("--L", "0.41", "--k", "5.78", "--n", "2", "--mass", "0.09")


@pytest.mark.parametrize("argv", [
    ("sweep", "--L", "0.41", "--k", "5.78", "--mass", "0.09", "--n-from", "2",
     "--n-to", "1e300", "--step", "1e-10", "--out", "x.csv"),
    ("plan", *MOVE, "--rate", "1e12", "--out", "x.csv"),
    ("simulate", *MOVE, "--step", "1e-15", "--trace-out", "x.csv"),
], ids=["sweep", "plan", "simulate"])
def test_oversized_grids_rejected_before_allocation(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert "more than the limit of 10000000" in stderr
    assert not (tmp_path / "x.csv").exists()


class TestFilter:
    def make_trace(self, tmp_path, values, rate=1500.0):
        path = tmp_path / "input.csv"
        t = np.arange(len(values)) / rate
        write_csv(path, ("t", "a_tip"), (t, values))
        return path

    def test_constant_trace_unchanged(self, tmp_path, capsys):
        inp = self.make_trace(tmp_path, np.full(120, 2.5))
        out = tmp_path / "filtered.csv"
        code, _, _ = run(capsys, "filter", "--in", str(inp), "--out", str(out))
        assert code == 0
        header, (t, values) = read_numeric_csv(out, n_columns=2)
        assert header == ["t", "a_tip"]
        assert np.array_equal(values, np.full(120, 2.5))

    def test_high_frequency_removed(self, tmp_path, capsys):
        rate = 1500.0
        t = np.arange(3000) / rate
        noisy = np.sin(2 * np.pi * 3.0 * t) + 0.5 * np.sin(2 * np.pi * 200.0 * t)
        inp = self.make_trace(tmp_path, noisy)
        out = tmp_path / "filtered.csv"
        assert run(capsys, "filter", "--in", str(inp), "--out", str(out))[0] == 0
        _, (_, values) = read_numeric_csv(out, n_columns=2)
        clean = np.sin(2 * np.pi * 3.0 * t)
        assert np.max(np.abs(values[200:-200] - clean[200:-200])) <= 1e-2

    def test_cutoff_above_nyquist_fails(self, tmp_path, capsys):
        inp = self.make_trace(tmp_path, np.zeros(100), rate=30.0)
        code, _, stderr = run(capsys, "filter", "--in", str(inp),
                              "--out", str(tmp_path / "x.csv"), "--cutoff-hz", "20")
        assert code == 2
        assert "Nyquist" in stderr

    @pytest.mark.parametrize("cutoff", ["1e-6", "749.9999999999"])
    def test_a_cutoff_that_rounds_a_pole_onto_the_unit_circle_fails(self, tmp_path, capsys,
                                                                      cutoff):
        # full-precision stamps reload at 1500 Hz to within a bit, so that 749.9999999999 Hz
        # stays below the Nyquist frequency; at 12 digits the rate reads 1499.99999992
        inp = tmp_path / "input.csv"
        t = np.arange(400) / 1500.0
        inp.write_text("t,a_tip\n" + "".join(f"{x!r},{math.sin(x)!r}\n" for x in t.tolist()))
        out = tmp_path / "filtered.csv"
        code, _, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(out),
                              "--cutoff-hz", cutoff)
        assert one_error_line(code, stderr), stderr
        message = f"error: unstable section: cutoff {float(cutoff)!r} Hz at rate 1500"
        assert stderr.startswith(message), stderr
        assert not out.exists()

    def test_a_cutoff_below_the_accuracy_floor_fails(self, tmp_path, capsys):
        inp = self.make_trace(tmp_path, np.zeros(400))
        out = tmp_path / "filtered.csv"
        code, _, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(out),
                              "--cutoff-hz", "0.5")
        assert one_error_line(code, stderr), stderr
        assert stderr.startswith("error: cutoff 0.5 Hz is below the lowest admissible cutoff "), stderr
        assert not out.exists()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "filter", "--in", str(tmp_path / "absent.csv"),
                              "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "error" in stderr

    @pytest.mark.parametrize("peak", [5e307, 6e307])
    def test_overflowing_trace_fails_with_one_line(self, tmp_path, peak):
        # a child process, so that a numpy warning would reach stderr as a user sees it
        inp = self.make_trace(tmp_path, peak * (-1.0) ** np.arange(40), rate=10.0)
        out = tmp_path / "filtered.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "flexmove", "filter", "--in", str(inp), "--out", str(out),
             "--order", "8", "--cutoff-hz", "1"],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: filtering overflows the float range")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()


#: spawns argv[1:] and prints its exit code and its own peak resident size
LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_mib(*job):
    """Exit status and peak resident size [MiB] of a `python -m flexmove *job` process."""
    proc = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "flexmove", *job],
        capture_output=True, text=True, env=child_env(), timeout=120, check=True)
    code, peak_kib = map(int, proc.stdout.split()[-2:])  # after the job's own stdout
    return code, peak_kib / 1024


def padded_trace(path, rows):
    """A t,a_tip trace of `rows` rows at 2000 Hz whose cells are padded to 60 characters."""
    t = np.arange(rows) / 2000.0
    values = np.sin(t) + 0.01 * np.cos(300.0 * t)
    with open(path, "w") as fh:
        fh.write("t,a_tip\n")
        fh.writelines(f"{a!r:>60},{b!r:>60}\n" for a, b in zip(t.tolist(), values.tolist()))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
def test_filter_job_memory_stays_bounded(tmp_path):
    # A 300 000-row order-8 job must not hold the whole file's text: parsed in one
    # piece it peaked at 138 MB, streamed it peaks at 41-48 MB.  A ~1 M-step simulate
    # that writes its trace must stream its forcing: it peaks at 47 MB (90 MB when it
    # evaluated the forcing with numpy), and at 114 MB with the forcing turned into
    # lists.  An exec'd process inherits the peak of the image it replaces, so a
    # small launcher, not this test process, spawns each job.
    inp = tmp_path / "trace.csv"
    t = np.arange(300_000) / 2000.0
    write_csv(inp, ("t", "a_tip"), (t, np.sin(t) + 0.01 * np.cos(300.0 * t)))
    jobs = [("filter", "--in", str(inp), "--out", str(tmp_path / "filtered.csv"), "--order", "8"),
            ("simulate", *MOVE, "--step", "2.2e-6", "--trace-out", str(tmp_path / "rk4.csv"))]
    for job in jobs:
        code, peak = peak_mib(*job)
        assert code == 0, job[0]
        assert peak < 100, job[0]
    # The filter reader alone: the same 300 000 rows with cells padded to 60
    # characters make a 36.6 MB file, so the file's bytes, held while numpy parses
    # it, would lift the job's peak above a 3 000-row job's by the file's size, and
    # its decoded text by as much again (85 MB in all, measured).  Streamed, the peak
    # stays 10-14 MB above (the arrays); the bound is half the file's size.
    big, small = tmp_path / "padded.csv", tmp_path / "small.csv"
    padded_trace(big, 300_000)
    padded_trace(small, 3_000)
    peaks = {}
    for path in (big, small):
        code, peaks[path] = peak_mib("filter", "--in", str(path), "--out",
                                     str(tmp_path / "padded_filtered.csv"), "--order", "8")
        assert code == 0, path.name
    assert peaks[big] - peaks[small] < big.stat().st_size / 2 / 2 ** 20, peaks


def cut_at(limit):
    """A preexec_fn that limits the files the child writes to limit bytes and
    ignores SIGXFSZ, so that a write past the limit raises EFBIG.  The modules are
    imported here, not between fork and exec."""
    import resource
    import signal

    def preexec():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    return preexec


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_a_write_cut_by_the_file_size_limit_leaves_the_old_file(tmp_path, capsys):
    # the rows go to a temporary file beside the output, which replaces the output
    # only once it is whole: EFBIG leaves the old bytes and no temporary file
    keep = tmp_path / "keep.csv"
    assert run(capsys, "plan", *MOVE, "--out", str(keep))[0] == 0
    before = keep.read_bytes()
    proc = subprocess.run([sys.executable, "-m", "flexmove", "plan", *MOVE, "--rate", "4000",
                           "--out", str(keep)], capture_output=True, text=True,
                          env=child_env(), timeout=60, preexec_fn=cut_at(100 * 1024))
    assert proc.returncode == 1 and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith("error: [Errno 27] File too large")
    assert keep.read_bytes() == before
    assert [path.name for path in tmp_path.iterdir()] == ["keep.csv"]


class TestReport:
    def test_prints_table(self, capsys, beam_json, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(capsys, "report", "--beam", beam_json,
                              "--masses", "0.02,0.06,0.075,0.09", "--L", "0.41",
                              "--out", str(out))
        assert code == 0
        assert "mass [kg]" in stdout
        assert "not reproduced" in stdout
        header, columns = read_numeric_csv(out, n_columns=4)
        assert len(columns[0]) == 4

    def test_requires_beam(self, capsys):
        code, _, stderr = run(capsys, "report", "--masses", "0.09", "--L", "0.41")
        assert code == 2
        assert "--beam" in stderr

    def test_empty_mass_list_is_named_before_the_beam_is_read(self, capsys, tmp_path):
        beam = tmp_path / "no_tip_mass.json"
        beam.write_text(json.dumps({k: v for k, v in BENCH_BEAM.items() if k != "m_tip"}))
        code, _, stderr = run(capsys, "report", "--beam", str(beam), "--masses", ",",
                              "--L", "0.41")
        assert code == 2
        assert stderr == "error: at least one carried mass is required\n"

    @pytest.mark.parametrize("masses", ["nan", "0.02,nan", "0", "0.02,0"])
    def test_a_bad_mass_is_named_a_carried_mass_in_any_place(self, capsys, beam_json, masses):
        # the first mass used to reach the beam document first and be named m_tip
        code, _, stderr = run(capsys, "report", "--beam", beam_json, "--masses", masses,
                              "--L", "0.41")
        assert code == 2
        bad = float(masses.split(",")[-1])
        assert stderr == f"error: carried mass must be a positive finite number, got {bad!r}\n"


    @pytest.mark.parametrize("flags,message", [
        (("--n", "2.5", "--unmatched-n", "3"),
         "period multiple n = 2.5 is not an integer; pass --unmatched-n to study "
         "mistimed moves"),
        (("--unmatched-n", "3"), "unmatched n = 3.0 is a matched multiple; the mistimed "
         "column needs a non-integer n"),
        (("--unmatched-n", "2.0000000000001"), "unmatched n = 2.0000000000001 is a matched "
         "multiple; the mistimed column needs a non-integer n"),
    ], ids=["matched-n", "unmatched-integer", "unmatched-within-tolerance"])
    def test_columns_keep_their_labels(self, capsys, beam_json, tmp_path, flags, message):
        # the table printed n=2.5 as matched and n=3 as mistimed, with exit 0
        out = tmp_path / "table.csv"
        code, stdout, stderr = run(capsys, "report", "--beam", beam_json,
                                   "--masses", "0.02,0.09", "--L", "0.41", *flags,
                                   "--out", str(out))
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    (("plan", "--k", "5.78", "--mass", "0.09", "--out", "x.csv"), "--exploratory"),
    (("simulate", "--k", "5.78", "--mass", "0.09"), "--exploratory"),
    (("report", "--beam", "beam.json", "--masses", "0.02,0.09"), "--unmatched-n"),
], ids=["plan", "simulate", "report"])
def test_a_non_integer_n_names_the_subcommands_own_flag(capsys, beam_json, monkeypatch,
                                                        command, flag):
    # the message told a CLI user to pass exploratory=True, a Python keyword
    monkeypatch.chdir(Path(beam_json).parent)
    code, stdout, stderr = run(capsys, *command, "--L", "0.41", "--n", "2.5")
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: period multiple n = 2.5 is not an integer; pass {flag} "
                      "to study mistimed moves\n")
    assert not Path("x.csv").exists()


def write_args(path, *lines, newline="\n"):
    """An argument file holding one argument a line; returns its @-argument."""
    Path(path).write_text("".join(line + newline for line in lines), newline="")
    return f"@{path}"


class TestArgsFile:
    """`@path` arguments.  argparse's own fromfile_prefix_chars would end a self-naming
    file in a RecursionError traceback, exit 2 on a missing file, and word a bad byte
    by Python version, without the path."""

    def test_args_file_supplies_values(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        args = write_args(tmp_path / "move.args", "--L=0.41", "--k", "5.78", "--n=2",
                          "--mass=0.09", "--rate=100", f"--out={out}")
        code, stdout, stderr = run(capsys, "plan", args)
        assert code == 0, stderr
        assert stdout.startswith("t1 = ")
        _, columns = read_numeric_csv(out, n_columns=4)
        assert len(columns[0]) == 218  # floor(100 * t1) + 1

    @pytest.mark.parametrize("file_first,rows", [(True, 109), (False, 218)],
                             ids=["flag-after-file", "file-after-flag"])
    def test_a_later_flag_wins(self, tmp_path, capsys, file_first, rows):
        out = tmp_path / "plan.csv"
        args = write_args(tmp_path / "move.args", *MOVE, "--rate=100", f"--out={out}")
        argv = (args, "--rate", "50") if file_first else ("--rate", "50", args)
        assert run(capsys, "plan", *argv)[0] == 0
        _, columns = read_numeric_csv(out, n_columns=4)
        assert len(columns[0]) == rows  # floor(rate * t1) + 1

    def test_the_subcommand_and_a_bare_flag_may_come_from_the_file(self, tmp_path, capsys):
        args = write_args(tmp_path / "move.args", "simulate", "--L=0.41", "--k=5.78",
                          "--n=2.5", "--mass=0.09", "--exploratory")
        code, stdout, stderr = run(capsys, args)
        assert code == 0, stderr
        assert json.loads(stdout)["quiescent"] is False

    def test_blank_lines_and_crlf_ends(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        lines = ["", *MOVE[:4], "   ", *MOVE[4:], "", "--rate=100", f"--out={out}", "\t"]
        args = write_args(tmp_path / "move.args", *lines, newline="\r\n")
        code, _, stderr = run(capsys, "plan", args)
        assert code == 0, stderr
        assert len(read_numeric_csv(out, n_columns=4)[1][0]) == 218

    def test_files_do_not_nest(self, tmp_path, capsys):
        # a line naming a file, this one included, is an argument as written
        path = tmp_path / "move.args"
        args = write_args(path, *MOVE, f"@{path}")
        code, stdout, stderr = run(capsys, "plan", args, "--out", str(tmp_path / "x.csv"))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: unrecognized arguments: @{path}\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_a_missing_file_or_a_directory_is_an_io_error(self, tmp_path, capsys, kind):
        path = tmp_path / "move.args"
        if kind == "directory":
            path.mkdir()
        code, stdout, stderr = run(capsys, "plan", f"@{path}")
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert repr(str(path)) in stderr

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys):
        path = tmp_path / "move.args"
        path.write_bytes(b"--L=0.41\n--k=5.\x80\n")
        code, stdout, stderr = run(capsys, "plan", f"@{path}")
        assert (code, stdout) == (2, "")
        assert stderr == (f"error: {path}: 'utf-8' codec can't decode byte 0x80 in position 15: "
                          "invalid start byte\n")

    @pytest.mark.parametrize("line,typed,unknown", [
        ("--sample-rate=100", (), "--sample-rate=100"), ("--rat=50", (), "--rat=50"),
        ("--h", (), "--h"), ("", ("--rat", "50"), "--rat 50")],
        ids=["unknown", "abbreviated", "help-prefix", "abbreviated-typed"])
    def test_flags_are_spelled_in_full(self, tmp_path, capsys, line, typed, unknown):
        # --rat is not --rate, and --h is not --help
        out = tmp_path / "x.csv"
        args = write_args(tmp_path / "move.args", *MOVE, f"--out={out}", line)
        code, stdout, stderr = run(capsys, "plan", args, *typed)
        assert stderr == f"error: unrecognized arguments: {unknown}\n"
        assert (code, stdout) == (2, "") and not out.exists()

    def test_config_is_an_unknown_flag(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "plan", *MOVE, "--out", str(out), "--config", "x.json")
        assert stderr == "error: unrecognized arguments: --config x.json\n"
        assert code == 2 and not out.exists()

    def test_an_output_path_that_starts_with_at(self, tmp_path, capsys, monkeypatch):
        # --out @x.csv reads the argument file x.csv; ./@x.csv and --out=@y.csv do not
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run(capsys, "plan", *MOVE, "--out", "@x.csv")
        assert stderr == "error: [Errno 2] No such file or directory: 'x.csv'\n"
        assert (code, list(tmp_path.iterdir())) == (1, [])
        assert run(capsys, "plan", *MOVE, "--out", "./@x.csv")[0] == 0
        assert run(capsys, "plan", *MOVE, "--out=@y.csv")[0] == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["@x.csv", "@y.csv"]


class TestHelp:
    """argparse's help action exits the process; main returns its status instead."""

    @pytest.mark.parametrize("argv,usage", [(["--help"], "usage: flexmove [-h] {plan,"),
                                            (["plan", "--help"], "usage: flexmove plan [-h]")],
                             ids=["top", "plan"])
    def test_help_returns_0_with_the_help_on_stdout(self, capsys, argv, usage):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stderr) == (0, "")
        assert stdout.startswith(usage)

    def test_a_help_line_in_an_args_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = write_args(tmp_path / "move.args", *MOVE, f"--out={out}", "--help")
        code, stdout, stderr = run(capsys, "plan", args)
        assert (code, stderr) == (0, "")
        assert stdout.startswith("usage: flexmove plan [-h]") and not out.exists()


def one_error_line(code, stderr):
    return code == 2 and stderr.startswith("error: ") and stderr.count("\n") == 1


class TestMalformedInput:
    """Malformed JSON documents and trace files exit 2 with one line, never a traceback."""

    @pytest.mark.parametrize("field,value", [
        ("l", None), ("l", [0.305]), ("b", True), ("E", "2.1e11"), ("m_tip", {}),
        ("l", 1e-200), ("l", 1e200), ("E", 10**400),
    ], ids=["null", "list", "true", "string", "object", "l**3-underflow", "l**3-overflow",
            "huge-integer"])
    def test_beam_field_must_be_an_admissible_number(self, tmp_path, capsys, field, value):
        beam = tmp_path / "beam.json"
        beam.write_text(json.dumps(dict(BENCH_BEAM, **{field: value})))
        out = tmp_path / "plan.csv"
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--beam", str(beam), "--n", "2",
                              "--out", str(out))
        assert one_error_line(code, stderr), stderr
        assert not out.exists()

    @pytest.mark.parametrize("job", ["report", "plan"])
    @pytest.mark.parametrize("fields,message", [
        (dict(m_tip=1e-320), "tip mass m_tip = 1e-320 kg"),
        (dict(E=1e308), "error: beam dimensions put the stiffness outside the float range\n"),
        (dict(l=1e100, m_tip=1e300), "tip mass m_tip = 1e+300 kg"),
    ], ids=["light-tip", "stiff-strip", "long-strip-heavy-tip"])
    def test_a_beam_outside_the_float_range_names_its_fault(
            self, tmp_path, capsys, job, fields, message):
        # sqrt(stiffness / m_tip) overflows to inf or underflows to 0, and the error
        # names the tip mass; 3*E overflows to inf, and the error names the beam's
        # dimensions.  Neither names a k that neither job was given
        beam = tmp_path / "beam.json"
        beam.write_text(json.dumps(dict(BENCH_BEAM, **fields)))
        mass, out = repr(fields.get("m_tip", BENCH_BEAM["m_tip"])), tmp_path / "out.csv"
        argv = {
            "report": ("report", "--beam", str(beam), "--masses", mass, "--L", "0.41",
                       "--out", str(out)),
            "plan": ("plan", "--L", "0.41", "--beam", str(beam), "--mass", mass, "--n", "2",
                     "--out", str(out)),
        }[job]
        code, stdout, stderr = run(capsys, *argv)
        assert one_error_line(code, stderr), stderr
        assert message in stderr and "k must" not in stderr
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("source", [("--beam",)])
    def test_deeply_nested_json(self, tmp_path, capsys, source):
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 100_000 + "]" * 100_000)
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--n", "2", "--mass", "0.09",
                              *source, str(doc), "--out", str(tmp_path / "x.csv"))
        assert one_error_line(code, stderr), stderr
        assert "nested too deeply" in stderr

    @pytest.mark.parametrize("kind", ["beam", "trace"])
    @pytest.mark.parametrize("fault", ["syntax", "not-utf-8"])
    def test_an_unreadable_input_file_is_named(self, tmp_path, capsys, kind, fault):
        content = {
            ("beam", "syntax"): b'{"l": 0.305, ',
            ("beam", "not-utf-8"): b'{"l": 0.305, "b": \x80}',
            ("trace", "syntax"): b"t,a_tip\n0,0\n0.1,1,2\n",
            ("trace", "not-utf-8"): b"t,a_tip\n0,0\n0.1,\x80\n",
        }[kind, fault]
        path = tmp_path / f"{kind}.input"
        path.write_bytes(content)
        out = tmp_path / "out.csv"
        argv = {
            "beam": ("plan", "--L", "0.41", "--beam", str(path), "--n", "2", "--mass", "0.09",
                     "--out", str(out)),
            "trace": ("filter", "--in", str(path), "--out", str(out)),
        }[kind]
        code, _, stderr = run(capsys, *argv)
        assert one_error_line(code, stderr), stderr
        assert stderr.startswith(f"error: {path}: "), stderr
        assert not out.exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer digit limit")
    @pytest.mark.parametrize("kind", ["beam"])
    def test_an_integer_past_the_digit_limit_is_named(self, tmp_path, capsys, kind):
        # a 5001-digit integer: the JSON decoder's int() refuses it past the 4300-digit limit
        path = tmp_path / f"{kind}.json"
        path.write_text('{"l": 1%s}' % ("0" * 5000))
        out = tmp_path / "out.csv"
        code, _, stderr = run(capsys, "plan", "--L", "0.41", "--n", "2", "--mass", "0.09",
                              "--out", str(out), "--beam", str(path))
        assert one_error_line(code, stderr), stderr
        assert stderr.startswith(
            f"error: {path}: beam document holds an integer longer than this Python converts: "
            "Exceeds the limit"), stderr
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ("0,0\n", "a time series needs at least two samples"),
        ("0,0\nnan,1\n0.02,2\n", "time column must hold finite numbers"),
        ("0.02,0\n0.01,1\n0,2\n", "time column must be strictly increasing"),
        ("0,0\n0.01,1\n0.025,2\n0.03,3\n",
         "non-uniform sampling, time steps deviate more than 0.1 % from the median step 0.01 s"),
        ("0,0\n0.01,inf\n0.02,2\n", "value column must hold finite numbers"),
    ], ids=["one-row", "nan-stamp", "decreasing", "jittered", "inf-value"])
    def test_a_bad_trace_is_named_with_its_fault(self, tmp_path, capsys, rows, message):
        inp = tmp_path / "trace.csv"
        inp.write_text("t,a_tip\n" + rows)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(out))
        assert stderr == f"error: {inp}: {message}\n"
        assert (code, stdout) == (2, "") and not out.exists()

    @pytest.mark.parametrize("flag", ["--n", "--unmatched-n"])
    def test_report_multiple_must_be_finite(self, capsys, beam_json, flag):
        code, _, stderr = run(capsys, "report", "--beam", beam_json, "--masses", "0.09",
                              "--L", "0.41", flag, "inf")
        assert one_error_line(code, stderr), stderr
        assert "n must be a positive finite number, got inf" in stderr

    @pytest.mark.parametrize("argv,figure", [
        (("simulate", "--L", "1e200", "--k", "5.78", "--mass", "0.09", "--n", "2"), "the action"),
        (("sweep", "--L", "1e200", "--k", "5.78", "--mass", "0.09", "--n-from", "2",
          "--n-to", "3", "--step", "0.5", "--out", "s.csv"), "the action"),
        (("simulate", "--L", "0.41", "--k", "1e300", "--mass", "0.09", "--n", "2"),
         "the peak acceleration"),
        (("simulate", "--L", "1e-300", "--k", "1e155", "--n", "400", "--mass", "1"), "k*k"),
        (("simulate", "--L", "1e-300", "--k", "1e155", "--n", "400", "--mass", "1",
          "--trace-out", "t.csv"), "k*k"),
        (("sweep", "--L", "0.41", "--k", "1e-308", "--mass", "0.09", "--n-from", "2",
          "--n-to", "3", "--step", "0.5", "--out", "s.csv"), "the motion time t1"),
    ], ids=["simulate-L", "sweep-L", "simulate-k", "simulate-k*k", "simulate-k*k-trace",
            "sweep-t1"])
    def test_a_move_whose_figures_overflow(self, tmp_path, capsys, monkeypatch, argv, figure):
        # these raised OverflowError, printed "amplitude": NaN, or wrote t1 = inf
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, *argv)
        assert stderr == f"error: L, k, n and m put {figure} outside the float range\n"
        assert (code, stdout, list(tmp_path.iterdir())) == (2, "", [])

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_filter_rejects_non_finite_values(self, tmp_path, capsys, cell):
        # one NaN sample used to turn the whole filtered trace into NaN, with exit 0
        inp = tmp_path / "trace.csv"
        values = np.sin(np.arange(400) / 50.0)
        values[150] = cell
        write_csv(inp, ("t", "a_tip"), (np.arange(400) / 1500.0, values))
        out = tmp_path / "x.csv"
        code, _, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(out))
        assert stderr == f"error: {inp}: value column must hold finite numbers\n"
        assert code == 2 and not out.exists()

    def test_oversized_csv_field(self, tmp_path, capsys):
        inp = tmp_path / "trace.csv"
        inp.write_text("t,a_tip\n0,0\n" + "1" * 140_000 + ",1\n")
        code, _, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(tmp_path / "x.csv"))
        assert one_error_line(code, stderr), stderr
        assert f"{inp}: line 3: field larger than field limit" in stderr

    def test_filter_reads_its_own_output_under_a_quoted_label(self, tmp_path, capsys):
        inp = tmp_path / "trace.csv"
        t = np.arange(120) / 1500.0
        rows = zip(t.tolist(), np.sin(t).tolist())
        inp.write_text('t,"a,b"\n' + "".join(f"{x!r},{y!r}\n" for x, y in rows))
        once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
        assert run(capsys, "filter", "--in", str(inp), "--out", str(once))[0] == 0
        code, _, stderr = run(capsys, "filter", "--in", str(once), "--out", str(twice))
        assert code == 0, stderr
        assert once.read_text().startswith('t,"a,b"\n')
        assert read_numeric_csv(twice, n_columns=2)[0] == ["t", "a,b"]

    def test_line_break_in_a_quoted_header(self, tmp_path, capsys):
        inp = tmp_path / "trace.csv"
        inp.write_text('t,"a\nb",c\n0,0,0\n')
        code, _, stderr = run(capsys, "filter", "--in", str(inp), "--out", str(tmp_path / "x.csv"))
        assert one_error_line(code, stderr), stderr
        assert "expected 2 columns, found 3" in stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)

CSV_JUNK = st.one_of(st.text(max_size=20), st.sampled_from(
    ['"', '""', ",,", "\x00", '"a\nb"', "\r", "1,2,3", "nan,nan", "1e308,1", "x" * 140_000]))


def run_quietly(argv):
    """Run main(argv) and check the exit contract: 0, 1 or 2, and one line on failure.

    Output is captured here because capsys is not reset between hypothesis examples.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        assert stderr.getvalue().startswith("error: "), stderr.getvalue()
        assert stderr.getvalue().count("\n") == 1, stderr.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(sorted(BENCH_BEAM)), value=JSON_VALUES,
       command=st.sampled_from(["plan", "report"]))
def test_any_json_value_in_a_beam_field(tmp_path_factory, field, value, command):
    workdir = tmp_path_factory.mktemp("beam")
    beam = workdir / "beam.json"
    beam.write_text(json.dumps(dict(BENCH_BEAM, **{field: value})))
    if command == "plan":
        run_quietly(["plan", "--L", "0.41", "--beam", str(beam), "--n", "2", "--rate", "50",
                     "--out", str(workdir / "plan.csv")])
    else:
        run_quietly(["report", "--beam", str(beam), "--masses", "0.02,0.09", "--L", "0.41"])


#: a valid argv of each subcommand ({dir} is the example's directory), and the
#: flags whose values the fuzz varies
ARGS_BASES = {
    "plan": ([*MOVE, "--rate", "50", "--out", "{dir}/out.csv"],
             ["--L", "--k", "--n", "--mass", "--rate", "--exploratory"]),
    "simulate": ([*MOVE, "--step", "0.01"],
                 ["--L", "--k", "--n", "--mass", "--step", "--exploratory"]),
    "sweep": (["--L", "0.41", "--k", "5.78", "--mass", "0.09", "--n-from", "2", "--n-to", "3",
               "--step", "0.25", "--out", "{dir}/out.csv"],
              ["--L", "--k", "--mass", "--n-from", "--n-to", "--step"]),
    "filter": (["--in", "{dir}/tip.csv", "--out", "{dir}/out.csv"], ["--order", "--cutoff-hz"]),
    "report": (["--beam", "{dir}/beam.json", "--masses", "0.02,0.09", "--L", "0.41"],
               ["--masses", "--L", "--n", "--unmatched-n"]),
}
ARGS_NUMBERS = (st.integers(-3, 12) | st.floats(-3.0, 12.0).map(lambda x: round(x, 2))
                | st.sampled_from([1e-300, 1e300])).map(str)
ARGS_VALUES = ARGS_NUMBERS | st.sampled_from(["", "x", "nan", "inf", "0.02,,0.09", "--L", "@"])


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(ARGS_BASES)), data=st.data(),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_any_lines_in_an_args_file(tmp_path_factory, command, data, newline):
    # numbers stay coarse, so that a run that is accepted stays cheap; the lines vary
    workdir = tmp_path_factory.mktemp("args")
    path = workdir / "move.args"
    base, flags = ARGS_BASES[command]
    lines = [arg.format(dir=workdir).encode() for arg in base]
    flag_value = st.tuples(st.sampled_from(flags), ARGS_VALUES)
    line = st.one_of(  # one or two lines: --flag=value, --flag and value, a bare flag, other
        flag_value.map(lambda fv: [f"{fv[0]}={fv[1]}".encode()]),
        flag_value.map(lambda fv: [arg.encode() for arg in fv]),
        st.sampled_from(flags).map(lambda flag: [flag.encode()]),
        st.sampled_from([[b""], [b"  "], [f"@{path}".encode()], [b"--L=0.\x80"]]),
    )
    for at, extra in data.draw(st.lists(st.tuples(st.integers(0, len(lines)), line),
                                        max_size=3)):
        lines[at:at] = extra
    path.write_bytes(b"".join(arg + newline.encode() for arg in lines))
    if command == "filter":
        t = np.arange(120) / 1500.0
        write_csv(workdir / "tip.csv", ("t", "a_tip"), (t, np.sin(t)))
    elif command == "report":
        (workdir / "beam.json").write_text(json.dumps(BENCH_BEAM))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([command, f"@{path}"])
    stderr = stderr.getvalue()
    assert (code, stderr) == (0, "") or one_error_line(code, stderr), stderr
    if b"\x80" in b"".join(lines):
        assert stderr.startswith(f"error: {path}: 'utf-8' codec can't decode"), stderr
    elif f"@{path}".encode() in lines:  # an argument as written, which no flag accepts
        assert code == 2, stderr


@settings(max_examples=150, deadline=None)
@given(junk=st.lists(CSV_JUNK, min_size=1, max_size=4), at=st.integers(0, 120),
       header=st.booleans())
def test_any_text_in_a_trace_csv(tmp_path_factory, junk, at, header):
    t = np.arange(120) / 1500.0
    lines = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), np.sin(t).tolist())]
    lines[at:at] = junk
    if header:
        lines.insert(0, "t,a_tip")
    workdir = tmp_path_factory.mktemp("trace")
    inp = workdir / "trace.csv"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    run_quietly(["filter", "--in", str(inp), "--out", str(workdir / "filtered.csv")])


def argparse_vars(argv):
    """vars of build_parser()'s namespace for argv; None where argparse rejects argv or
    prints help."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except (ValueError, SystemExit):
            return None


def same_namespace(fast, expected):
    """Whether a _fast_args namespace holds expected's items; NaN equals NaN, and -0.0
    differs from 0.0, since the items are compared by repr."""
    return repr(sorted(vars(fast).items())) == repr(sorted(expected.items()))


#: a value of each flag type that converts, so that drawn argvs often parse
PLAIN_VALUES = {float: "0.5", int: "4", None: "out.csv"}
FLAG_VALUES = st.sampled_from(["0.41", "4", "-1", "nan", "1e400", "", "x", "1,,2", "0.02,0.09",
                               "@x", "-", "--L", "a=b"])


@st.composite
def table_argvs(draw):
    """An argv of one subcommand from its table: each required flag, left out one time
    in eight, and up to four more items (a flag with a value in either form, a bare
    flag, or a token no subcommand reads), in any order."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _COMMANDS[command][2]
    items = [[flag, PLAIN_VALUES.get(spec.type, "0.02,0.09")] for flag, spec in flags.items()
             if spec.required and draw(st.integers(0, 7))]
    flag = st.sampled_from(sorted(flags))
    items += draw(st.lists(st.one_of(
        st.tuples(flag, FLAG_VALUES).map(list),
        st.tuples(flag, FLAG_VALUES).map(lambda fv: ["=".join(fv)]),
        flag.map(lambda name: [name]),
        st.sampled_from([["--help"], ["-h"], ["--rat", "5"], ["--"], ["--no-such-flag"],
                         ["--exploratory=x"], ["x"], ["plan"]]),
    ), max_size=4))
    return [command, *(token for item in draw(st.permutations(items)) for token in item)]


@settings(max_examples=300, deadline=None)
@given(argv=table_argvs())
def test_the_fast_path_reads_argv_as_argparse_does(argv):
    fast = _fast_args(argv)
    if fast is not None:
        expected = argparse_vars(argv)
        assert expected is not None and same_namespace(fast, expected), (vars(fast), expected)


def test_the_fast_path_declines_what_argparse_reports():
    for argv in (["plan", "--help"], ["plan", *MOVE, "--out", "x.csv", "--rat", "5"],
                 ["plan", *MOVE, "--out"], ["plan", *MOVE, "--out", "x.csv", "--"],
                 ["plan", *MOVE, "--out", "x.csv", "--exploratory=x"],
                 ["plan", "--L", "-1", *MOVE[2:], "--out", "x.csv"], ["sweep", "--L", "1"],
                 ["filter", "--in", "a", "--out", "b", "--order", "4.0"], [], ["--help"]):
        assert _fast_args(argv) is None, argv


def test_every_golden_and_readme_argv_takes_the_fast_path(tmp_path, monkeypatch):
    # so that the fast path cannot quietly hand the traffic it exists for to argparse
    monkeypatch.chdir(tmp_path)
    (tmp_path / "move.args").write_text("".join(arg + "\n" for arg in README_ARGS_FILE))
    argvs = [argv for argv, _ in GOLDEN_CASES.values()]
    argvs += [_expand_args(shlex.split(line)[1:]) for line in README_COMMANDS]
    assert len(argvs) >= 14
    for argv in argvs:
        fast = _fast_args(argv)
        assert fast is not None, argv
        assert same_namespace(fast, argparse_vars(argv)), argv


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    # only the process entry freezes, after main returns; the tests and the bench
    # tracer call main in a process that goes on
    before = gc.get_freeze_count()
    assert run(capsys, "plan", *MOVE, "--out", str(tmp_path / "x.csv"))[0] == 0
    assert run(capsys, "plan", "--no-such-flag")[0] == 2
    assert gc.get_freeze_count() == before


def test_the_entry_freezes_after_main_returns_and_returns_its_status(monkeypatch):
    calls = []
    monkeypatch.setattr(flexmove.__main__, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert flexmove.__main__.run() == 3
    assert calls == ["main", "freeze"]


#: the module and function of the `flexmove` console script
CONSOLE_SCRIPT = re.search(r'^flexmove = "([\w.]+):(\w+)"$',
                           (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(),
                           re.MULTILINE).groups()


@pytest.mark.parametrize("launch", [
    ("-m", "flexmove"),
    ("-c", "import sys; from {0} import {1}; sys.exit({1}())".format(*CONSOLE_SCRIPT)),
], ids=["python-m", "console-script"])
def test_a_cli_process_keeps_its_status_and_its_output(tmp_path, beam_json, launch):
    # each status of the exit contract, through a pipe: stdout complete (here past
    # a pipe's buffer) and stderr one line, as main gives them in process
    masses = ",".join(f"{0.01 + 1e-4 * i:.4f}" for i in range(2000))
    cases = [
        (("report", "--beam", beam_json, "--masses", masses, "--L", "0.41"), 0),
        (("filter", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.csv")), 1),
        (("plan", "--no-such-flag"), 2),
    ]
    assert CONSOLE_SCRIPT == ("flexmove.__main__", "run")
    for argv, status in cases:
        proc = subprocess.run([sys.executable, *launch, *argv], capture_output=True, text=True,
                              env=child_env(), timeout=60)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            assert main(argv) == status
        assert proc.returncode == status, proc.stderr
        assert (proc.stdout, proc.stderr) == (stdout.getvalue(), stderr.getvalue())
        assert proc.stderr.count("\n") == (status != 0)
        assert len(proc.stdout) > 64 * 1024 or status != 0


@pytest.mark.parametrize("command", ["plan", "simulate", "sweep", "report", "filter"])
def test_a_closed_stdout_is_an_io_error(tmp_path, beam_json, command):
    # with fd 1 closed Python sets sys.stdout to None, and print drops the text with
    # exit 0; filter prints nothing, so it loses nothing
    t = np.arange(120) / 1500.0
    write_csv(tmp_path / "tip.csv", ("t", "a_tip"), (t, np.sin(t)))
    out = ("--out", str(tmp_path / "out.csv"))
    argv = {"plan": (*MOVE, *out), "simulate": MOVE,
            "sweep": (*MOVE[:4], *MOVE[6:], "--n-from", "2", "--n-to", "3", "--step", "1", *out),
            "report": ("--beam", beam_json, "--masses", "0.09", "--L", "0.41"),
            "filter": ("--in", str(tmp_path / "tip.csv"), *out)}[command]
    proc = subprocess.run([sys.executable, "-m", "flexmove", command, *argv],
                          stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60,
                          preexec_fn=lambda: os.close(1))
    if command == "filter":
        assert (proc.returncode, proc.stderr) == (0, "")
    else:
        assert (proc.returncode, proc.stderr) == (1, "error: standard output is closed\n")
