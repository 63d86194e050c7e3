#!/usr/bin/env python3
"""Bench experiment: matched versus mistimed moves of a strip-mounted payload.

For each carried mass the script plans the frequency-matched move (n = 2) and
a mistimed one (n = 2.5), simulates both, writes the accelerometer-style tip
traces (raw and zero-phase filtered), and prints the residual amplitudes with
their suppression ratio.  All outputs are CSV; point your plotter at them.
"""

import argparse
import json
from pathlib import Path

from flexmove import (BeamSpec, MotionSpec, amplitude_table, design_butterworth,
                      filtfilt, residual_report, save_trace, simulate_relative,
                      suppression_ratio, tip_trace, write_relative_trace)

BENCH_STRIP = BeamSpec(l=0.305, b=0.013, h=0.5e-3, E=2.1e11, m_tip=0.09)
BENCH_MASSES = (0.02, 0.06, 0.075, 0.09)
BENCH_L = 0.41


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for CSV outputs")
    parser.add_argument("--rate", type=float, default=1500.0, help="trace sample rate [Hz]")
    parser.add_argument("--mistimed-n", type=float, default=2.5)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    design = design_butterworth(4, 20.0, args.rate)

    print(f"{'mass [kg]':>10} {'k [rad/s]':>10} {'matched amp [m]':>16} "
          f"{'mistimed amp [m]':>17} {'ratio':>10}")
    for mass in BENCH_MASSES:
        beam = BeamSpec(l=BENCH_STRIP.l, b=BENCH_STRIP.b, h=BENCH_STRIP.h,
                        E=BENCH_STRIP.E, m_tip=mass)
        matched_spec = MotionSpec.from_beam(beam, L=BENCH_L, n=2.0)
        mistimed_spec = MotionSpec(L=BENCH_L, k=beam.frequency, n=args.mistimed_n,
                                   m=mass, exploratory=True)
        relative = {"matched": simulate_relative(matched_spec),
                    "mistimed": simulate_relative(mistimed_spec)}
        matched = residual_report(matched_spec, relative["matched"])
        mistimed = residual_report(mistimed_spec, relative["mistimed"])
        print(f"{mass:>10.3f} {beam.frequency:>10.3f} {matched.amplitude:>16.3e} "
              f"{mistimed.amplitude:>17.3e} {suppression_ratio(matched, mistimed):>10.1f}")

        tag = f"m{mass:g}".replace(".", "p")
        for name, spec in (("matched", matched_spec), ("mistimed", mistimed_spec)):
            trace = tip_trace(spec, args.rate)
            save_trace(outdir / f"tip_{name}_{tag}.csv", trace)
            save_trace(outdir / f"tip_{name}_{tag}_filtered.csv", filtfilt(design, trace))
            write_relative_trace(outdir / f"relative_{name}_{tag}.csv", spec, relative[name])
        (outdir / f"report_{tag}.json").write_text(
            json.dumps({"matched": matched.as_dict(), "mistimed": mistimed.as_dict()},
                       indent=2) + "\n")

    table = amplitude_table(BENCH_MASSES, BENCH_STRIP, L=BENCH_L,
                            unmatched_n=args.mistimed_n)
    table.write_csv(outdir / "amplitude_table.csv")
    print()
    print(table.to_text())
    print(f"\nCSV outputs in {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
