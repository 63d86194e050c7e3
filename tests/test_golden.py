"""Golden outputs: every subcommand on the bench move, byte for byte.

Stdout and each written file are hashed and compared with recorded digests,
so a change that alters any printed digit or CSV byte fails here.  A
deliberate change of an output format must update GOLDEN and say why.
"""

import hashlib
import json
import math

import pytest

from conftest import BENCH, BENCH_BEAM
from flexmove import MotionSpec, design_butterworth, filtfilt, save_trace, tip_trace
from flexmove.cli import main

MOVE = ["--L", repr(BENCH["L"]), "--k", repr(BENCH["k"]), "--n", repr(BENCH["n"]),
        "--mass", repr(BENCH["m"])]

CASES = {
    "plan": (["plan", *MOVE, "--rate", "1500", "--out", "setpoints.csv"], ("setpoints.csv",)),
    # a rate whose grid misses t1 by a fraction of a step, and a longer move
    "plan-rate-333.3": (["plan", "--L", repr(BENCH["L"]), "--k", repr(BENCH["k"]), "--n", "3",
                         "--mass", repr(BENCH["m"]), "--rate", "333.3", "--out", "setpoints.csv"],
                        ("setpoints.csv",)),
    "plan-beam": (["plan", "--L", repr(BENCH["L"]), "--beam", "beam.json", "--n", repr(BENCH["n"]),
                   "--rate", "4000", "--out", "setpoints.csv"], ("setpoints.csv",)),
    "simulate": (["simulate", *MOVE, "--trace-out", "relative.csv"], ("relative.csv",)),
    "sweep": (["sweep", "--L", repr(BENCH["L"]), "--k", repr(BENCH["k"]),
               "--mass", repr(BENCH["m"]), "--n-from", "1.5", "--n-to", "4",
               "--step", "0.25", "--out", "sweep.csv"], ("sweep.csv",)),
    "filter": (["filter", "--in", "tip.csv", "--out", "filtered.csv", "--order", "4",
                "--cutoff-hz", "20"], ("filtered.csv",)),
    "report": (["report", "--beam", "beam.json", "--masses", "0.02,0.06,0.075,0.09",
                "--L", repr(BENCH["L"]), "--out", "table.csv"], ("table.csv",)),
}

GOLDEN = {
    "filter": {
        "stdout":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "filtered.csv":
            "f5fb5fa1baf8c2f246083990066f237711d98abea7df6fb81c1bee10d2a30502",
    },
    "plan": {
        "stdout":
            "8948e7c9102f146a95f7e6dcd2e6eee8f5d5ebeab6de26eff68638cb4a4aa028",
        "setpoints.csv":
            "7efa994d3201f708f5335034dc2bf03179713d8a0ed034995470fd1ea42075fa",
    },
    "plan-beam": {
        "stdout":
            "12248da560ff1ff4a179e27d66058d50275e37ddccaddf8c17e0c26071436289",
        "setpoints.csv":
            "eddf9f984a74ee10e3a658a5de4d86c456fc87c8589f59f9cdbe26ec5ef056d4",
    },
    "plan-rate-333.3": {
        "stdout":
            "28cd8a576a52f2b71f8684260ce74102162922316a4a32298895961056d92b58",
        "setpoints.csv":
            "1b4542cd779864d0b4c58cd85cc9ee76bd0131c0e12d692be2c18e98c3a28d34",
    },
    "report": {
        "stdout":
            "cd61536b67f865bd5d52b94a44572b7920a4ba95b041062227c07f4288fc1ed2",
        "table.csv":
            "531dfdb4254ad56c020ee947d635191c18d03b5fd28ab4bff935752bbb06730c",
    },
    "simulate": {
        "stdout":
            "f3633eddff0b88c12c6a526d71530a10b3fd2183d1916eeaf89fced3b168032e",
        "relative.csv":
            "12719177e544506cb590b6065b3972f73939a46c6d56ecb73f36080fdfb94df0",
    },
    "sweep": {
        "stdout":
            "5cc9a6fa1a6281149bf8247a89b34a693c967ad2842150765daa239e6fc09c46",
        "sweep.csv":
            "a155e0f2f74c392e66b746faabae4cc3d467af45824f91a7eb3bc7c8b82521b5",
    },
}


def tip_csv() -> str:
    """The bench move's tip acceleration at 1500 Hz plus a 150 Hz ripple."""
    p = BENCH["k"] / BENCH["n"]
    peak = BENCH["L"] * p * p / (2.0 * math.pi)
    rows = ["t,a_tip"]
    for i in range(3262):
        t = i / 1500.0
        value = peak * math.sin(p * t) + 0.05 * math.sin(2.0 * math.pi * 150.0 * t)
        rows.append(f"{t!r},{value!r}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    argv, outputs = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tip.csv").write_text(tip_csv())
    (tmp_path / "beam.json").write_text(json.dumps(BENCH_BEAM))
    assert main(argv) == 0
    found = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for out in outputs:
        found[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert found == GOLDEN[name]


#: save_trace of the library trace path that no CLI case reaches: tip_trace's
#: time column, and filtfilt passing it through
TRACE_GOLDEN = {
    "tip": "2b53ec4abaee9b42027fee9577018b2b483abd8993bee6cc67e80aeb76c7c5ba",
    "tip-filtered": "09dc790a9a165a404e9f2c61514681045dddfcc314866922b6bbe199889ebf6e",
}


def test_golden_trace(tmp_path):
    tip = tip_trace(MotionSpec(**BENCH), 1500.0)
    found = {}
    for name, series in (("tip", tip),
                         ("tip-filtered", filtfilt(design_butterworth(4, 20.0, 1500.0), tip))):
        save_trace(tmp_path / "trace.csv", series)
        found[name] = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert found == TRACE_GOLDEN
