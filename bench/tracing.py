"""Traced in-process replay of a job list, with spans around every layer the CLI reaches.

Timing is taken from outside the program; nothing in `src/` changes.  Each job
first runs once as a `cli.main(argv)` span.  Then the public functions that
the subcommand reaches are called again on the same inputs, each in its own
span.  Where a public function calls another public function (`sweep_n` calls
`energy_figure` and `final_relative_state`; `residual_report` calls
`action_value`; every CSV writer calls `write_csv`), the inner name is
replaced for the duration of the outer call by a wrapper that opens a child
span, so the inner share is measured rather than assumed.

A span is [id, parent, job, name, start, end, failed].  Spans stay in memory
until the run ends.  The layer of a span is the module its name starts with;
a layer's self time is the duration of its spans minus their child spans.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads as W

#: layers in the order of the package's modules; `import` comes from -X importtime
LAYERS = ("import", "cli", "beam", "motion", "oscillator", "analysis", "filters", "timeseries")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._raising = None

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._stack[-1] if self._stack else None, self.job, name,
                  time.perf_counter(), None, False]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        except BaseException as exc:
            record[6] = True
            if exc is not self._raising:     # charge the error to the innermost span only
                self._raising = exc
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def wrap(self, owner, attr: str, name: str | None = None, count=None):
        """Replace owner.attr by a wrapper that opens span `name` (if given) and
        adds count(args, result) to the counters; restore it on exit."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)


def _written(args, result):
    path, _, columns = args
    return {"timeseries.rows_written": len(columns[0]),
            "timeseries.bytes_written": os.path.getsize(path)}


def _read(args, result):
    return {"timeseries.rows_read": len(result[1][0]),
            "timeseries.bytes_read": os.path.getsize(args[0])}


def _writes(t: Tracer, module):
    return t.wrap(module, "write_csv", "timeseries.write_csv", _written)


# -- probes: the public functions each subcommand reaches, on the job's inputs ------------


def _parse(t, fm, job):
    t.call("cli.parse", lambda: fm.cli.build_parser().parse_args(job.argv))


def _spec(t, fm, P, exploratory=False):
    if "beam" in P:
        beam = t.call("beam.load_beam", fm.beam.load_beam, "beam.json", tip_mass=P["m"])
        return t.call("motion.MotionSpec", fm.motion.MotionSpec.from_beam, beam,
                      L=P["L"], n=P["n"], exploratory=exploratory)
    return t.call("motion.MotionSpec", fm.motion.MotionSpec, L=P["L"], k=P["k"], n=P["n"],
                  m=P["m"], exploratory=exploratory)


def probe_plan(t, fm, job):
    P = job.params
    _parse(t, fm, job)
    spec = _spec(t, fm, P)
    table = t.call("motion.sample_uniform", spec.sample_uniform, P["rate"])
    t.counts["motion.setpoint_rows"] += len(table)
    with _writes(t, fm.motion):
        t.call("motion.SetpointTable.write_csv", table.write_csv, "probe.csv")
    t.call("cli.render", lambda: [fm.timeseries.fmt(x)
                                  for x in (spec.t1, spec.p, spec.peak_acceleration)])


def probe_simulate(t, fm, job):
    P = job.params
    osc = fm.oscillator
    _parse(t, fm, job)
    spec = _spec(t, fm, P, exploratory=P["exploratory"])
    trace = t.call("oscillator.simulate_relative", osc.simulate_relative, spec)
    t.counts["oscillator.rk4_steps"] += len(trace) - 1
    with t.wrap(osc, "action_value", "oscillator.action_value"), \
            t.wrap(osc, "simpson_grid", count=lambda a, r: {"oscillator.quad_points": len(r)}):
        report = t.call("oscillator.residual_report", osc.residual_report, spec, trace)
    if P["trace_out"]:
        with _writes(t, osc):
            t.call("oscillator.write_relative_trace", osc.write_relative_trace,
                   "probe.csv", spec, trace)
    t.call("cli.render", lambda: json.dumps(report.as_dict(), indent=2))


def probe_report(t, fm, job):
    P = job.params
    an = fm.analysis
    _parse(t, fm, job)
    beam = t.call("beam.load_beam", fm.beam.load_beam, "beam.json", tip_mass=P["masses"][0])
    with t.wrap(an, "final_relative_state", "oscillator.final_relative_state"):
        table = t.call("analysis.amplitude_table", an.amplitude_table, P["masses"], beam,
                       L=P["L"], n=P["n"], unmatched_n=P["unmatched_n"])
    with _writes(t, an):
        t.call("analysis.AmplitudeTable.write_csv", table.write_csv, "probe.csv")
    t.call("cli.render", table.to_text)


def probe_sweep(t, fm, job):
    P = job.params
    an = fm.analysis
    _parse(t, fm, job)
    with t.wrap(an, "energy_figure", "analysis.energy_figure"), \
            t.wrap(an, "simpson_grid", count=lambda a, r: {"analysis.quad_points": len(r)}), \
            t.wrap(an, "final_relative_state", "oscillator.final_relative_state"):
        result = t.call("analysis.sweep_n", an.sweep_n, L=P["L"], k=P["k"], m=P["m"],
                        n_from=P["n_from"], n_to=P["n_to"], step=P["step"])
    t.counts["analysis.sweep_rows"] += len(result)
    with _writes(t, an):
        t.call("analysis.SweepResult.write_csv", result.write_csv, "probe.csv")
    t.call("cli.render", lambda: f"wrote {len(result)} rows to probe.csv")


def probe_filter(t, fm, job):
    P = job.params
    ts = fm.timeseries
    _parse(t, fm, job)
    with t.wrap(ts, "read_numeric_csv", "timeseries.read_numeric_csv", _read):
        series = t.call("timeseries.load_trace", ts.load_trace, "tip.csv")
    design = t.call("filters.design_butterworth", fm.filters.design_butterworth,
                    order=P["order"], cutoff_hz=P["cutoff"], rate_hz=series.rate)
    filtered = t.call("filters.filtfilt", fm.filters.filtfilt, design, series)
    t.counts["filters.samples"] += len(series)
    padded = len(series) + 2 * W.FILTER_PAD_FACTOR * P["order"]
    t.counts["filters.section_passes"] += 2 * (P["order"] // 2) * padded
    with _writes(t, ts):
        t.call("timeseries.save_trace", ts.save_trace, "probe.csv", filtered)


PROBES = {"plan": probe_plan, "simulate": probe_simulate, "report": probe_report,
          "sweep": probe_sweep, "filter": probe_filter}


def modules() -> SimpleNamespace:
    """The package's modules by layer name, imported from the checkout under test."""
    return SimpleNamespace(**{layer: importlib.import_module(f"flexmove.{layer}")
                              for layer in LAYERS[1:]})


def replay(workload, jobs: int, workdir: Path, deadline: float):
    """Run jobs 0..jobs-1 in process, each as a cli.main span followed by its probes.

    Returns (tracer, per-job results).  A job fails when cli.main exits non-zero,
    its output fails the witness, or a probe raises.
    """
    fm = modules()
    # keep the benchmark's own objects out of the collector's way, as in a fresh process
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    results = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for i in range(jobs):
            if i and time.perf_counter() > deadline:
                break
            job = workload.job(i)
            W.write_inputs(job, workdir)
            tracer.job = i
            out = io.StringIO()
            problem = None
            with tracer.span("job"):
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = tracer.call("cli.main", fm.cli.main, job.argv)
                    if code != 0:
                        problem = f"cli.main returned {code}"
                    else:
                        workload.check(job, workdir, out.getvalue())
                except (Exception, SystemExit) as exc:
                    problem = f"cli.main: {type(exc).__name__}: {exc}"
                try:
                    PROBES[job.kind](tracer, fm, job)
                except Exception as exc:
                    problem = problem or f"probe: {type(exc).__name__}: {exc}"
            results.append({"job": i, "kind": job.kind, "ok": problem is None,
                            "detail": problem})
            W.clear(workdir)
    finally:
        os.chdir(cwd)
        gc.unfreeze()
    return tracer, results


def summarize(tracer: Tracer, jobs: int) -> tuple[dict, dict]:
    """Per-layer metrics: times as mean seconds per replayed job, counts as run
    totals, rates as count per second of the span that does the work."""
    spans = tracer.spans
    children = Counter()
    for sid, parent, _, name, start, end, _ in spans:
        if parent is not None:
            children[parent] += end - start
    total = Counter()
    calls: dict[str, list[float]] = {}
    layer_self = Counter()
    for sid, parent, _, name, start, end, _ in spans:
        dur = end - start
        total[name] += dur
        calls.setdefault(name, []).append(dur)
        if name not in ("job", "cli.main"):
            layer_self[name.split(".")[0]] += dur - children[sid]
    per_job = max(jobs, 1)
    c = tracer.counts

    def rate(count_key, span_name):
        return c[count_key] / total[span_name] if total[span_name] > 0 else 0.0

    main = calls.get("cli.main", [])
    m = {
        "cli.main_p50_s": (statistics.median(main) if main else 0.0, "s"),
        "cli.self_s": (layer_self["cli"] / per_job, "s"),
        "beam.load_beam_s": (total["beam.load_beam"] / per_job, "s"),
        "motion.sample_uniform_s": (total["motion.sample_uniform"] / per_job, "s"),
        "motion.setpoint_rows": (c["motion.setpoint_rows"], "count"),
        "oscillator.rk4_s": (total["oscillator.simulate_relative"] / per_job, "s"),
        "oscillator.rk4_steps": (c["oscillator.rk4_steps"], "count"),
        "oscillator.rk4_steps_per_s": (rate("oscillator.rk4_steps", "oscillator.simulate_relative"), "1/s"),
        "oscillator.residual_report_s": (total["oscillator.residual_report"] / per_job, "s"),
        "oscillator.action_value_s": (total["oscillator.action_value"] / per_job, "s"),
        "oscillator.quad_points": (c["oscillator.quad_points"], "count"),
        "oscillator.write_trace_s": (total["oscillator.write_relative_trace"] / per_job, "s"),
        "analysis.sweep_s": (total["analysis.sweep_n"] / per_job, "s"),
        "analysis.sweep_rows": (c["analysis.sweep_rows"], "count"),
        "analysis.rows_per_s": (rate("analysis.sweep_rows", "analysis.sweep_n"), "1/s"),
        "analysis.energy_figure_s": (total["analysis.energy_figure"] / per_job, "s"),
        "analysis.quad_points": (c["analysis.quad_points"], "count"),
        "analysis.amplitude_table_s": (total["analysis.amplitude_table"] / per_job, "s"),
        "filters.filtfilt_s": (total["filters.filtfilt"] / per_job, "s"),
        "filters.samples": (c["filters.samples"], "count"),
        "filters.samples_per_s": (rate("filters.samples", "filters.filtfilt"), "1/s"),
        "filters.section_passes": (c["filters.section_passes"], "count"),
        "timeseries.write_s": (total["timeseries.write_csv"] / per_job, "s"),
        "timeseries.rows_written": (c["timeseries.rows_written"], "count"),
        "timeseries.bytes_written": (c["timeseries.bytes_written"], "B"),
        "timeseries.write_rows_per_s": (rate("timeseries.rows_written", "timeseries.write_csv"), "1/s"),
        "timeseries.read_s": (total["timeseries.read_numeric_csv"] / per_job, "s"),
        "timeseries.rows_read": (c["timeseries.rows_read"], "count"),
        "timeseries.bytes_read": (c["timeseries.bytes_read"], "B"),
        "timeseries.read_rows_per_s": (rate("timeseries.rows_read", "timeseries.read_numeric_csv"), "1/s"),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
    probe_self = sum(layer_self.values())
    main_total = sum(main)
    m["trace.coverage"] = (probe_self / main_total if main_total else 0.0, "ratio")
    detail = {
        "jobs": jobs,
        "layer_self_s_per_job": {k: v / per_job for k, v in sorted(layer_self.items())},
        "per_call": {name: {"calls": len(d), "total_s": sum(d), "median_s": statistics.median(d)}
                     for name, d in sorted(calls.items())},
        "counts": dict(sorted(c.items())),
    }
    return m, detail
