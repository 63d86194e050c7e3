#!/usr/bin/env python3
"""End-to-end benchmark of the flexmove CLI, with a traced per-layer replay.

    python3 bench/run.py --workload move_cycle --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it benchmarks the package under `src/`
there.  Load is a closed loop with one client: the benchmark starts the next
`python -m flexmove ...` job only after the previous one has exited, so at most
one job runs at a time.  Each job's output is checked against a reference the
benchmark computes itself; a wrong answer counts as a failed job.

--trace 0 times the jobs and reports the end-to-end metrics.  --trace 1 spends
half the run on the same timed loop and then replays those jobs in process
with spans around every layer (see tracing.py), and reports the per-layer
metrics.  The last line of standard output is one JSON object; the full run
record, with provenance and per-job results, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent

#: fresh `import flexmove` processes timed per run, spread over the timed loop so
#: that they see the same machine as the jobs; setup_s is their median
SETUP_SAMPLES = 9
#: `-X importtime` profiles per traced run; import.* metrics are their medians
IMPORTTIME_SAMPLES = 3
#: the timed loop runs until --seconds have passed and at least this many jobs
#: are done: job_wall_tail_s needs ten samples beyond it, and on the heavy
#: workloads this minimum makes every run time the same job sizes
MIN_JOBS = 13
#: the timed loop never starts a job after this much wall time
LOOP_CAP_S = 90.0
#: a job that runs longer than this is killed and counted as failed
JOB_TIMEOUT_S = 30.0
#: ROADMAP baseline (2 vCPU, Python 3.11.7), for the traced run's reconciliation block
BASELINE = {"residual_report_ms": 9.0, "sweep_row_ms": 7.8, "filtfilt_150k_order4_ms": 422.0,
            "save_trace_150k_ms": 430.0, "load_trace_150k_ms": 277.0}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed(cmd, cwd, env):
    """Run one child to completion; return (process, wall s, cpu s, peak rss of any child KiB)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(cmd, -9, exc.stdout or "", f"timeout after {JOB_TIMEOUT_S} s")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, wall, cpu, after.ru_maxrss


def setup_sample(env, workdir) -> float:
    proc, wall, _, _ = timed([sys.executable, "-c", "import flexmove"], workdir, env)
    if proc.returncode != 0:
        raise RuntimeError(f"import flexmove failed: {proc.stderr.strip()[-500:]}")
    return wall


def parse_importtime(text: str) -> dict:
    """flexmove's cumulative import time, the part spent importing scipy (cumulative
    time of every scipy module not imported by another scipy module) and the
    number of modules `import flexmove` loads."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cumulative, raw = line.split("|", 2)
        name = raw.strip()
        entries.append((len(raw) - len(raw.lstrip()), name, int(cumulative) * 1e-6))
    flexmove_s = scipy_s = 0.0
    modules = 0
    stack = []      # (indent, inside scipy, inside flexmove); reversed output is pre-order
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        in_scipy, in_flexmove = stack[-1][1:] if stack else (False, False)
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not in_scipy:
            scipy_s += cumulative
        if name == "flexmove":
            flexmove_s = cumulative
        in_flexmove = in_flexmove or name == "flexmove"
        modules += in_flexmove
        stack.append((indent, in_scipy or is_scipy, in_flexmove))
    return {"flexmove_s": flexmove_s, "scipy_s": scipy_s, "modules": modules}


def import_profile(env, workdir) -> tuple[list[dict], int]:
    """Parsed `-X importtime` profiles, and the number of imports that failed."""
    profiles, errors = [], 0
    for _ in range(IMPORTTIME_SAMPLES):
        proc, _, _, _ = timed([sys.executable, "-X", "importtime", "-c", "import flexmove"],
                              workdir, env)
        if proc.returncode == 0:
            profiles.append(parse_importtime(proc.stderr))
        else:
            errors += 1
    return profiles, errors


def run_one(workload, i, workdir, env) -> dict:
    job = workload.job(i)
    W.write_inputs(job, workdir)
    proc, wall, cpu, maxrss = timed([sys.executable, "-m", "flexmove", *job.argv], workdir, env)
    problem = None
    if proc.returncode != 0:
        problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    else:
        try:
            workload.check(job, workdir, proc.stdout)
        except (ValueError, KeyError, OSError) as exc:
            problem = f"witness: {type(exc).__name__}: {exc}"
    record = {"job": i, "kind": job.kind, "argv": job.argv, "wall_s": wall, "cpu_s": cpu,
              "maxrss_kib": maxrss, "ok": problem is None, "detail": problem,
              "sha256": W.output_digests(job, workdir)}
    W.clear(workdir)
    return record


def closed_loop(workload, workdir, env, seconds: float, min_jobs: int):
    """One client: start job i+1 when job i has exited.  Busy time is the sum of the
    job intervals; input generation, witness checks and the setup samples happen
    between them.  Returns (jobs, busy seconds, setup sample walls)."""
    jobs, setup, busy = [], [], 0.0
    started = time.perf_counter()
    while (busy < seconds or len(jobs) < min_jobs) and time.perf_counter() - started < LOOP_CAP_S:
        if busy >= len(setup) * seconds / SETUP_SAMPLES and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(env, workdir))
        rec = run_one(workload, len(jobs), workdir, env)
        busy += rec["wall_s"]
        jobs.append(rec)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(env, workdir))
    return jobs, busy, setup


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    the 11th largest.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1), 10


def end_to_end(jobs: list, busy: float, setup: list[float]) -> tuple[dict, dict]:
    walls = [j["wall_s"] for j in jobs]
    tail_value, tail_pct, beyond = tail(walls)
    failed = sum(not j["ok"] for j in jobs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_wall_p50_s": (statistics.median(walls), "s"),
        "job_wall_tail_s": (tail_value, "s"),
        "jobs_per_s": (len(jobs) / busy, "1/s"),
        "job_cpu_p50_s": (statistics.median(j["cpu_s"] for j in jobs), "s"),
        "peak_rss_mb": (max(j["maxrss_kib"] for j in jobs) / 1024.0, "MB"),
        "failed_frac": (failed / len(jobs), "ratio"),
    }
    info = {"jobs": len(jobs), "busy_s": busy, "setup_samples": len(setup),
            "tail_percentile": tail_pct, "tail_samples_beyond": beyond}
    return metrics, info


def reconcile(detail: dict) -> dict:
    """Scale the traced per-call figures to the ROADMAP baseline configurations."""
    calls, counts = detail["per_call"], detail["counts"]

    def total(name):
        return calls.get(name, {}).get("total_s", 0.0)

    out = {}
    if "oscillator.residual_report" in calls:
        out["residual_report_ms"] = 1e3 * calls["oscillator.residual_report"]["median_s"]
    if counts.get("analysis.sweep_rows"):
        out["sweep_row_ms"] = 1e3 * total("analysis.sweep_n") / counts["analysis.sweep_rows"]
    if counts.get("filters.section_passes"):
        per_pass = total("filters.filtfilt") / counts["filters.section_passes"]
        out["filtfilt_150k_order4_ms"] = 1e3 * per_pass * 2 * 2 * (150_000 + 2 * W.FILTER_PAD_FACTOR * 4)
    if counts.get("timeseries.rows_read"):
        out["load_trace_150k_ms"] = 1e3 * total("timeseries.load_trace") / counts["timeseries.rows_read"] * 150_000
        out["save_trace_150k_ms"] = 1e3 * total("timeseries.save_trace") / counts["timeseries.rows_read"] * 150_000
    return {key: {"traced": value, "baseline": BASELINE[key], "ratio": value / BASELINE[key]}
            for key, value in out.items()}


def provenance(args) -> dict:
    import scipy

    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "load": "closed loop, one client, one job at a time",
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM, unwind normally: subprocess.run kills and waits for the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "flexmove" / "__init__.py").is_file():
        print(f"error: no flexmove package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench_config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = W.WORKLOADS[args.workload](args.seed)
    env = child_env()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".bench_work"))
    record = {"provenance": provenance(args)}
    try:
        # the CLI imports every module, so this compiles the .pyc files before anything is timed
        warm, _, _, _ = timed([sys.executable, "-m", "flexmove", "--help"], workdir, env)
        if warm.returncode != 0:
            print(f"warning: warm-up failed: {warm.stderr.strip()[-300:]}", file=sys.stderr)
        seconds = args.seconds / 2 if args.trace else args.seconds
        jobs, busy, setup = closed_loop(workload, workdir, env, seconds,
                                        1 if args.trace else MIN_JOBS)
        e2e, info = end_to_end(jobs, busy, setup)
        record.update(end_to_end={k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                      timed=info, setup_walls_s=setup, jobs=jobs)
        attempted = len(jobs)
        failed = sum(not j["ok"] for j in jobs)
        if args.trace:
            profiles, import_errors = import_profile(env, workdir)
            sys.path.insert(0, str(ROOT / "src"))
            deadline = time.perf_counter() + 2 * args.seconds
            tracer, replayed = tracing.replay(workload, len(jobs), workdir, deadline)
            layers, detail = tracing.summarize(tracer, len(replayed))
            for key in ("flexmove_s", "scipy_s", "modules"):
                layers[f"import.{key}"] = (statistics.median(p[key] for p in profiles)
                                           if profiles else 0, "count" if key == "modules" else "s")
            layers["import.errors"] = (import_errors, "count")
            attempted += len(replayed) + IMPORTTIME_SAMPLES
            failed += sum(not r["ok"] for r in replayed) + import_errors
            # the traced cli.main runs in an already-imported process; the timed job
            # minus a fresh import is the same work, so their gap is the tracing overhead
            overhead = {"cli_main_p50_s": layers["cli.main_p50_s"][0],
                        "job_wall_p50_minus_setup_s": e2e["job_wall_p50_s"][0] - e2e["setup_s"][0]}
            overhead["difference_s"] = overhead["cli_main_p50_s"] - overhead["job_wall_p50_minus_setup_s"]
            record.update(per_layer={k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
                          trace=dict(detail, replayed=replayed, overhead=overhead,
                                     reconcile=reconcile(detail), waiting_s=None,
                                     waiting_note="single-threaded program, no queues: "
                                                  "no layer waits on another"),
                          import_profiles=profiles)
            spans = tracer.spans
        wanted = bench_config["per_layer" if args.trace else "end_to_end"]
        source = record["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: source[m["name"]] for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if args.trace:
        (out / f"{stem}_spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "job", "name", "start_s", "end_s", "failed"],
             "spans": spans}))
    for name, entry in sorted(record["end_to_end"].items()) + sorted(record.get("per_layer", {}).items()):
        print(f"{name:34s} {entry['value']:.6g} {entry['unit']}")
    print(f"timed jobs: {info['jobs']}, tail percentile: p{info['tail_percentile']:.1f} "
          f"({info['tail_samples_beyond']} beyond)")
    if args.trace:
        o = record["trace"]["overhead"]
        print(f"tracing overhead: traced cli.main p50 {o['cli_main_p50_s']:.4f} s, "
              f"job_wall_p50_s - setup_s {o['job_wall_p50_minus_setup_s']:.4f} s")
        for key, r in record["trace"]["reconcile"].items():
            print(f"baseline {key}: traced {r['traced']:.2f}, ROADMAP {r['baseline']:.1f} "
                  f"(ratio {r['ratio']:.2f})")
    print(f"record: {out / stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
