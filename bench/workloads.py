"""Seeded job lists for the benchmark workloads, and the witnesses that check each job.

A workload turns (seed, job index) into one `flexmove` CLI invocation: its
argument vector, the input files the benchmark writes for it, and the numbers
the witness needs.  The benchmark makes every input itself with numpy, so the
program never produces its own test inputs.

Witnesses recompute each answer from the paper's closed forms (or, for the
filter, from scipy.signal) and compare numerically, never byte for byte, so a
change of CSV formatting does not count as a wrong answer.

Job sizes follow a van der Corput sequence, rotated by a small seeded shift:
any prefix of a job list covers the size range evenly, so the median job of a
run does not depend on how many jobs fit into the run, and every seed sees
nearly the same sizes.  The seed draws everything else (L, k, masses, beams,
grids, rates, cutoffs, signals).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

#: residual amplitude a strict move may leave, as a fraction of L (the CLI's tolerance)
QUIESCENCE_FACTOR = 1e-6
#: RK4 against closed form at the CLI's default step, metres (acceptance criterion C2)
ORACLE_TOL = 1e-8
#: CSV cells carry 12 significant digits; compare relative to a column's scale
CSV_REL_TOL = 1e-10
#: the sweep's energy column is a 100 000-interval Simpson quadrature
ENERGY_REL_TOL = 1e-8
#: zero-phase filter against the scipy.signal reference, relative to the signal scale
FILTER_REL_TOL = 1e-9
#: odd-reflection pad per end, in multiples of the filter order (the CLI's documented padding)
FILTER_PAD_FACTOR = 3
#: how close a swept multiple must sit to an integer to be a strict move
INTEGER_N_TOL = 1e-9
#: seeded rotation of the size sequences stays below 1/32 of the size range
MAX_SHIFT_DIVISOR = 32.0


def strata(i: int, shift: float, base: int = 2) -> float:
    """Point i of the van der Corput sequence in `base`, rotated by shift, in [0, 1).

    Two parameters of one job drawn in different prime bases stay uncorrelated.
    """
    x, denom = 0.0, 1.0
    while i:
        denom *= base
        i, digit = divmod(i, base)
        x += digit / denom
    return (x + shift) % 1.0


def centred(u: float) -> float:
    """Map [0, 1) onto [0, 1) with most points near 1/2, keeping both ends reachable.

    Sizes drawn this way put several jobs close to the median size, so the
    median job time of a run does not hinge on one job."""
    d = 2.0 * u - 1.0
    return 0.5 + 0.5 * d * abs(d)


def beam_frequency(doc: dict, m: float) -> float:
    """Cantilever tip-mass angular frequency sqrt(3*E*I/l**3 / m), I = b*h**3/12."""
    second_moment = doc["b"] * doc["h"] ** 3 / 12.0
    return math.sqrt(3.0 * doc["E"] * second_moment / doc["l"] ** 3 / m)


def endpoint(L: float, k: float, n: float) -> tuple[float, float]:
    """Closed-form relative displacement and velocity at the end of the move."""
    p = k / n
    gain = L * p * p / (TWO_PI * (k * k - p * p))
    theta = TWO_PI * (n - math.floor(n))
    return gain * (p / k) * math.sin(theta), gain * p * (math.cos(theta) - 1.0)


def residual(L: float, k: float, n: float) -> float:
    x_end, v_end = endpoint(L, k, n)
    return math.hypot(x_end, v_end / k)


def relative_motion(L: float, k: float, n: float, t: np.ndarray):
    """Closed-form relative displacement, velocity and acceleration of the payload."""
    p = k / n
    gain = L * p * p / (TWO_PI * (k * k - p * p))
    sin_k, sin_p = np.sin(k * t), np.sin(p * t)
    x = gain * (p / k * sin_k - sin_p)
    v = gain * p * (np.cos(k * t) - np.cos(p * t))
    a = gain * p * (p * sin_p - k * sin_k)
    return x, v, a


@dataclass
class Job:
    kind: str                   # CLI subcommand
    argv: list[str]             # arguments after `flexmove`, file names relative to the job directory
    params: dict                # the values the witness and the traced probes need
    inputs: dict = field(default_factory=dict)   # file name -> bytes, or a writer taking the path
    outputs: tuple = ()         # file names the job writes


def _num(x: float) -> str:
    # repr round-trips, so the CLI parses exactly the float the witness uses
    return repr(float(x))


def _load_csv(path: Path, header: tuple[str, ...]) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if tuple(first.split(",")) != header:
        raise ValueError(f"header {first!r}, expected {','.join(header)}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(name: str, got: np.ndarray, want: np.ndarray, atol: float) -> None:
    err = float(np.max(np.abs(got - want))) if len(want) else 0.0
    if not err <= atol:
        raise ValueError(f"{name} deviates by {err:.3e} (allowed {atol:.3e})")


def _csv_close(name: str, got: np.ndarray, want: np.ndarray) -> None:
    _close(name, got, want, CSV_REL_TOL * max(float(np.max(np.abs(want))), 1e-300))


def _beam_doc(rng: np.random.Generator) -> dict:
    """A steel-like strip near the paper's bench cantilever (l=0.305, b=0.013, h=0.5e-3)."""
    return {"l": float(rng.uniform(0.22, 0.38)), "b": float(rng.uniform(0.010, 0.020)),
            "h": float(rng.uniform(0.4e-3, 0.6e-3)), "E": float(rng.uniform(1.9e11, 2.1e11))}


class Workload:
    name = ""
    stream = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.shift = np.random.default_rng([seed, self.stream]).random(2) / MAX_SHIFT_DIVISOR

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream, i])

    def job(self, i: int) -> Job:
        raise NotImplementedError

    def check(self, job: Job, workdir: Path, stdout: str) -> None:
        """Raise ValueError when the job's output is wrong."""
        getattr(self, f"_check_{job.kind}")(job, workdir, stdout)

    # -- witnesses shared by workloads -------------------------------------------------

    def _check_plan(self, job, workdir, stdout):
        P = job.params
        L, k, n, rate = P["L"], P["k"], P["n"], P["rate"]
        p = k / n
        t1 = TWO_PI / p
        data = _load_csv(workdir / "setpoints.csv", ("t", "s", "v", "a"))
        count = len(data)
        slack = 1e-9 / rate
        if not ((count - 1) / rate <= t1 + slack and count / rate > t1 - slack):
            raise ValueError(f"{count} setpoints do not cover [0, t1={t1:.12g}] at {rate:g} Hz")
        t = np.arange(count) / rate
        _csv_close("t", data[:, 0], t)
        _csv_close("s", data[:, 1], L / TWO_PI * (p * t - np.sin(p * t)))
        _csv_close("v", data[:, 2], L * p / TWO_PI * (1.0 - np.cos(p * t)))
        _csv_close("a", data[:, 3], L * p * p / TWO_PI * np.sin(p * t))
        if "t1 = " not in stdout:
            raise ValueError("plan did not print t1")

    def _check_simulate(self, job, workdir, stdout):
        P = job.params
        L, k, n = P["L"], P["k"], P["n"]
        report = json.loads(stdout)
        if P["exploratory"]:
            x_end, v_end = endpoint(L, k, n)
            if report["quiescent"]:
                raise ValueError("an exploratory move was labelled quiescent")
            if abs(report["x_end"] - x_end) > ORACLE_TOL or abs(report["v_end"] - v_end) > ORACLE_TOL * k:
                raise ValueError(f"endpoint ({report['x_end']:.6e}, {report['v_end']:.6e}) "
                                 f"differs from closed form ({x_end:.6e}, {v_end:.6e})")
        elif not (report["quiescent"] is True and report["amplitude"] <= QUIESCENCE_FACTOR * L):
            raise ValueError(f"strict move not quiescent: amplitude {report['amplitude']:.3e}")
        if P["trace_out"]:
            data = _load_csv(workdir / "relative.csv", ("t", "x_r", "v_r", "a_r"))
            t = data[:, 0]
            if len(t) != P["steps"] + 1 or abs(t[-1] - TWO_PI * n / k) > 1e-9 * t[-1]:
                raise ValueError(f"trace has {len(t)} rows ending at {t[-1]:.12g} s")
            x, v, a = relative_motion(L, k, n, t)
            _close("x_r", data[:, 1], x, ORACLE_TOL)
            _close("v_r", data[:, 2], v, ORACLE_TOL * k)
            _close("a_r", data[:, 3], a, ORACLE_TOL * k * k)

    def _check_report(self, job, workdir, stdout):
        P = job.params
        data = _load_csv(workdir / "amplitudes.csv",
                         ("mass", "k", "matched_amplitude", "unmatched_amplitude"))
        masses = np.asarray(P["masses"])
        ks = np.array([beam_frequency(P["beam"], m) for m in masses])
        _csv_close("mass", data[:, 0], masses)
        _csv_close("k", data[:, 1], ks)
        _close("matched_amplitude", data[:, 2], np.zeros(len(ks)), 1e-12 * P["L"])
        _csv_close("unmatched_amplitude", data[:, 3],
                   np.array([residual(P["L"], k, P["unmatched_n"]) for k in ks]))
        if "residual tip oscillation amplitude" not in stdout:
            raise ValueError("report did not print its table")


class MoveCycle(Workload):
    """Everyday per-move traffic: small plan, simulate and report jobs in turn."""

    name = "move_cycle"
    stream = 1
    kinds = ("plan", "simulate", "report")

    def job(self, i):
        kind = self.kinds[i % 3]
        j = i // 3
        rng = self.rng(i)
        L = float(rng.uniform(0.1, 1.0))
        mass = float(rng.uniform(0.02, 0.1))
        if kind == "plan":
            n = float(rng.integers(2, 5))
            rate = 500.0 + 3500.0 * strata(j, self.shift[0])
            P = dict(L=L, n=n, m=mass, rate=rate)
            argv = ["plan", "--L", _num(L), "--n", _num(n), "--mass", _num(mass),
                    "--rate", _num(rate), "--out", "setpoints.csv"]
            inputs = {}
            if j % 2:
                doc = _beam_doc(rng)
                P.update(beam=doc, k=beam_frequency(doc, mass))
                argv += ["--beam", "beam.json"]
                inputs["beam.json"] = json.dumps(doc).encode()
            else:
                P["k"] = float(rng.uniform(4.0, 12.0))
                argv += ["--k", _num(P["k"])]
            return Job(kind, argv, P, inputs, ("setpoints.csv",))
        if kind == "simulate":
            k = float(rng.uniform(4.0, 12.0))
            exploratory = bool(j % 2)
            if exploratory:
                n = float(rng.integers(1, 6)) + float(rng.uniform(0.1, 0.9))
                n = max(n, 1.2)
            else:
                n = float(rng.integers(2, 6))
            trace_out = bool((j // 2) % 2)
            P = dict(L=L, k=k, n=n, m=mass, exploratory=exploratory, trace_out=trace_out,
                     steps=20_000)
            argv = ["simulate", "--L", _num(L), "--k", _num(k), "--n", _num(n),
                    "--mass", _num(mass)]
            if exploratory:
                argv.append("--exploratory")
            outputs = ()
            if trace_out:
                argv += ["--trace-out", "relative.csv"]
                outputs = ("relative.csv",)
            return Job(kind, argv, P, {}, outputs)
        doc = _beam_doc(rng)
        count = 4 + min(4, int(5 * strata(j, self.shift[1])))
        masses = sorted(float(m) for m in rng.uniform(0.02, 0.1, count))
        n = float(rng.integers(2, 4))
        unmatched = n + float(rng.uniform(0.2, 0.8))
        P = dict(L=L, beam=doc, masses=masses, n=n, unmatched_n=unmatched)
        argv = ["report", "--beam", "beam.json", "--masses", ",".join(_num(m) for m in masses),
                "--L", _num(L), "--n", _num(n), "--unmatched-n", _num(unmatched),
                "--out", "amplitudes.csv"]
        return Job(kind, argv, P, {"beam.json": json.dumps(doc).encode()},
                   ("amplitudes.csv",))


class NSweep(Workload):
    """Timing sweeps of 100 to 400 rows: the drive-cost quadrature path."""

    name = "n_sweep"
    stream = 2

    def job(self, i):
        rng = self.rng(i)
        L = float(rng.uniform(0.1, 1.0))
        k = float(rng.uniform(3.0, 15.0))
        mass = float(rng.uniform(0.02, 0.1))
        rows = 100 + int(round(300 * centred(strata(i, self.shift[0]))))
        step = float(rng.uniform(0.005, 0.02))
        n_from = float(rng.uniform(1.05, 2.5))
        # half a step of headroom keeps the row count clear of rounding at the far end
        n_to = n_from + (rows - 0.5) * step
        P = dict(L=L, k=k, m=mass, rows=rows, step=step, n_from=n_from, n_to=n_to)
        argv = ["sweep", "--L", _num(L), "--k", _num(k), "--mass", _num(mass),
                "--n-from", _num(n_from), "--n-to", _num(n_to), "--step", _num(step),
                "--out", "sweep.csv"]
        return Job("sweep", argv, P, {}, ("sweep.csv",))

    def _check_sweep(self, job, workdir, stdout):
        P = job.params
        L, k, m = P["L"], P["k"], P["m"]
        data = _load_csv(workdir / "sweep.csv",
                         ("n", "t1", "residual", "energy", "quiescent"))
        if len(data) != P["rows"]:
            raise ValueError(f"{len(data)} rows, expected {P['rows']}")
        n = P["n_from"] + np.arange(P["rows"]) * P["step"]
        near = np.round(n)
        strict = (np.abs(n - near) <= INTEGER_N_TOL * np.maximum(1.0, n)) & (near >= 2)
        p = k / n
        _csv_close("n", data[:, 0], n)
        _csv_close("t1", data[:, 1], TWO_PI / p)
        want = np.array([0.0 if s else residual(L, k, x) for s, x in zip(strict, n)])
        _close("residual", data[:, 2], want, CSV_REL_TOL * max(float(np.max(want)), L))
        energy = m * L * L * p * p / math.pi ** 2
        _close("energy", data[:, 3] / energy, np.ones(len(n)), ENERGY_REL_TOL)
        if not np.array_equal(data[:, 4], strict.astype(float)):
            raise ValueError("quiescent flags differ from the integer multiples")
        if f"wrote {P['rows']} rows" not in stdout:
            raise ValueError("sweep did not report its row count")


def write_trace_csv(path: Path, t: np.ndarray, values: np.ndarray) -> None:
    """A `t,a_tip` trace at 12 significant digits, as a data logger would write it."""
    rows = "\n".join(["%.12g,%.12g" % row for row in zip(t.tolist(), values.tolist())])
    Path(path).write_text("t,a_tip\n" + rows + "\n", encoding="utf-8")


def reference_filtfilt(x: np.ndarray, order: int, cutoff_hz: float, rate_hz: float) -> np.ndarray:
    """scipy.signal Butterworth sections run forward and backward with the CLI's
    odd padding (FILTER_PAD_FACTOR * order samples per end) and first-sample offset."""
    from scipy.signal import butter, sosfilt

    sos = butter(order, cutoff_hz, btype="low", fs=rate_hz, output="sos")

    def cascade(y):
        return sosfilt(sos, y - y[0]) + y[0]

    pad = FILTER_PAD_FACTOR * order
    head = 2.0 * x[0] - x[pad:0:-1]
    tail = 2.0 * x[-1] - x[-2:-pad - 2:-1]
    padded = np.concatenate((head, x, tail))
    return cascade(cascade(padded)[::-1])[::-1][pad:-pad]


class TraceFilter(Workload):
    """Zero-phase filtering of long tip traces: the CSV read and filter path."""

    name = "trace_filter"
    stream = 3
    orders = (2, 4, 6, 8)

    def job(self, i):
        rng = self.rng(i)
        samples = 50_000 + int(round(250_000 * centred(strata(i, self.shift[0]))))
        order = self.orders[int(4 * strata(i, self.shift[1], base=3))]
        rate = float(rng.uniform(500.0, 5000.0))
        cutoff = rate * 10.0 ** float(rng.uniform(math.log10(0.004), math.log10(0.1)))
        P = dict(samples=samples, order=order, rate=rate, cutoff=cutoff)
        argv = ["filter", "--in", "tip.csv", "--out", "filtered.csv", "--order", str(order),
                "--cutoff-hz", _num(cutoff)]
        return Job("filter", argv, P, {"tip.csv": lambda path: self._make_trace(rng, P, path)},
                   ("filtered.csv",))

    @staticmethod
    def _make_trace(rng, P, path):
        """Tip acceleration of a ringing payload: a slow sine move, a decaying
        oscillation and sensor noise."""
        t = np.arange(P["samples"]) / P["rate"]
        span = t[-1]
        move = 2.0 * np.sin(TWO_PI * t / span)
        ring = 0.5 * np.exp(-t / span) * np.sin(float(rng.uniform(3.0, 30.0)) * t)
        noise = float(rng.uniform(0.01, 0.1)) * rng.standard_normal(len(t))
        write_trace_csv(path, t, move + ring + noise)

    def _check_filter(self, job, workdir, stdout):
        P = job.params
        raw = _load_csv(workdir / "tip.csv", ("t", "a_tip"))
        out = _load_csv(workdir / "filtered.csv", ("t", "a_tip"))
        if out.shape != raw.shape:
            raise ValueError(f"filtered trace has shape {out.shape}, input {raw.shape}")
        if not np.array_equal(out[:, 0], raw[:, 0]):
            raise ValueError("filtered trace changed the time stamps")
        rate = 1.0 / float(np.median(np.diff(raw[:, 0])))
        want = reference_filtfilt(raw[:, 1], P["order"], P["cutoff"], rate)
        _close("a_tip", out[:, 1], want, FILTER_REL_TOL * float(np.max(np.abs(raw[:, 1]))))


WORKLOADS = {cls.name: cls for cls in (MoveCycle, NSweep, TraceFilter)}


def write_inputs(job: Job, workdir: Path) -> None:
    for name, content in job.inputs.items():
        path = workdir / name
        if callable(content):
            content(path)
        else:
            path.write_bytes(content)


def output_digests(job: Job, workdir: Path) -> dict:
    """sha256 of each output file, kept for information; witnesses do not use them."""
    digests = {}
    for name in job.outputs:
        path = workdir / name
        if path.exists():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()
