"""Command-line surface: plan setpoints, simulate, sweep, filter and report.

All quantities are SI.  Flags override values from an optional JSON config
document (--config), whose keys are the long flag names with dashes turned
into underscores (``in``, ``n_from``, ``cutoff_hz``).  Every validation
failure, argument errors included, exits with status 2 and a one-line
diagnostic; I/O failures exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import _carried_masses, amplitude_table, sweep_n
from .beam import load_beam, read_json_object
from .filters import design_butterworth, filtfilt
from .motion import MotionSpec
from .oscillator import residual_report, simulate_relative, write_relative_trace
from .timeseries import fmt, load_trace, save_trace


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises usage errors as ValueError instead of exiting."""

    def __init__(self, *args, **kwargs):  # a flag or config key is spelled in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", help="JSON config document; flags override it")


#: config keys that may hold a string (masses: its comma-separated form); the
#: others take JSON numbers, or true/false for a bare flag
_TEXT_KEYS = frozenset({"in", "out", "beam", "trace_out", "masses"})


def _config_flags(doc: dict) -> list[str]:
    """Flag tokens for a config document: key -> --key with _ turned into -.

    true becomes a bare flag, false and null are left out, and a list of
    masses is joined with commas.  Any other string, list or object where a
    number belongs is an argument error, and so is a help or config key.
    """
    tokens = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if key in ("help", "config"):  # argparse would exit on one and ignore the other
            raise ValueError(f"argument {flag}: a config document may not hold the key {key!r}")
        if value is True:
            tokens.append(flag)
        elif key == "masses" and isinstance(value, list) and all(
                type(item) in (int, float) for item in value):  # type() also rules out bool
            tokens.append(f"{flag}={','.join(str(item) for item in value)}")
        elif type(value) in (int, float) or isinstance(value, str) and key in _TEXT_KEYS:
            tokens.append(f"{flag}={value}")
        elif value is not False and value is not None:
            kind = {str: "a string", list: "a list"}.get(type(value), "an object")
            raise ValueError(f"argument {flag}: config value has the wrong JSON type ({kind})")
    return tokens


def _with_config(argv: list[str]) -> list[str]:
    """Splice the --config document in right after the subcommand, ahead of the
    user's flags, so that the user's flags win."""
    path = _CONFIG.parse_known_args(argv)[0].config
    if path is None:
        return argv
    return argv[:1] + _config_flags(read_json_object(path, "config")) + argv[1:]


def _payload(args) -> tuple[float, float]:
    """Natural frequency and mass from exactly one of --k and --beam.

    --mass overrides the beam document's tip mass and is required with --k.
    """
    if args.k is not None and args.beam is not None:
        raise ValueError("give exactly one frequency source: --k or --beam, not both")
    if args.beam is not None:
        beam = load_beam(args.beam, tip_mass=args.mass)
        return beam.frequency, beam.m_tip
    if args.k is None:
        raise ValueError("a frequency source is required: --k or --beam")
    if args.mass is None:
        raise ValueError("missing required option --mass (carried object mass)")
    return args.k, args.mass


def _naming_flag(flag: str, build, *args, **kwargs):
    """build(*args, **kwargs), where MotionSpec's advice to pass exploratory=True
    names the subcommand's own flag instead."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(str(exc).replace("pass exploratory=True", f"pass {flag}")) from None


def _resolve_spec(args) -> MotionSpec:
    k, m = _payload(args)
    return _naming_flag("--exploratory", MotionSpec, L=args.L, k=k, n=args.n, m=m,
                        exploratory=args.exploratory)


def _cmd_plan(args) -> int:
    spec = _resolve_spec(args)
    spec.sample_uniform(args.rate).write_csv(args.out)
    print(f"t1 = {fmt(spec.t1)} s")
    print(f"p = {fmt(spec.p)} rad/s")
    print(f"peak acceleration = {fmt(spec.peak_acceleration)} m/s^2")
    return 0


def _cmd_simulate(args) -> int:
    spec = _resolve_spec(args)
    trace = simulate_relative(spec, args.step)
    report = residual_report(spec, trace)
    if args.trace_out is not None:
        write_relative_trace(args.trace_out, spec, trace)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    k, m = _payload(args)
    result = sweep_n(L=args.L, k=k, m=m, n_from=args.n_from, n_to=args.n_to, step=args.step)
    result.write_csv(args.out)
    print(f"wrote {len(result)} rows to {args.out}")
    return 0


def _cmd_filter(args) -> int:
    series = load_trace(args.infile)
    design = design_butterworth(order=args.order, cutoff_hz=args.cutoff_hz,
                                rate_hz=series.rate)
    save_trace(args.out, filtfilt(design, series))
    return 0


def _cmd_report(args) -> int:
    masses = _carried_masses(args.masses)  # load_beam would name a bad first mass m_tip
    table = _naming_flag("--unmatched-n", amplitude_table, masses,
                         load_beam(args.beam, tip_mass=masses[0]),
                         L=args.L, n=args.n, unmatched_n=args.unmatched_n)
    if args.out is not None:
        table.write_csv(args.out)
    print(table.to_text())
    return 0


def float_list(text: str) -> list[float]:
    """Comma-separated numbers, empty items skipped (the --masses type)."""
    return [float(item) for item in text.split(",") if item.strip()]


def _add_payload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--L", type=float, required=True, help="displacement of the move [m]")
    parser.add_argument("--k", type=float, help="payload natural angular frequency [rad/s]")
    parser.add_argument("--beam", help="JSON beam document supplying the frequency")
    parser.add_argument("--mass", type=float, help="carried object mass [kg] (default: beam m_tip)")


def _add_motion_arguments(parser: argparse.ArgumentParser) -> None:
    _add_payload_arguments(parser)
    parser.add_argument("--n", type=float, required=True,
                        help="period multiple t1/t_c (integer >= 2 unless --exploratory)")
    parser.add_argument("--exploratory", action="store_true",
                        help="allow non-integer n > 1 (move will not end quiescent)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flexmove",
        description="Plan and analyse oscillation-free moves of flexible payloads.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", parents=[_CONFIG],
                          help="write a t,s,v,a setpoint CSV for one move")
    _add_motion_arguments(plan)
    plan.add_argument("--rate", type=float, default=1500.0,
                      help="setpoint sample rate [Hz] (default 1500)")
    plan.add_argument("--out", required=True, help="output CSV path")
    plan.set_defaults(handler=_cmd_plan)

    simulate = sub.add_parser("simulate", parents=[_CONFIG],
                              help="integrate the relative motion and report quiescence")
    _add_motion_arguments(simulate)
    simulate.add_argument("--step", type=float, help="RK4 time step [s] (default t1/20000)")
    simulate.add_argument("--trace-out", dest="trace_out", help="optional t,x_r,v_r,a_r CSV path")
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = sub.add_parser("sweep", parents=[_CONFIG],
                           help="scan the period multiple and tabulate residuals")
    _add_payload_arguments(sweep)
    sweep.add_argument("--n-from", dest="n_from", type=float, required=True,
                       help="first period multiple (> 1)")
    sweep.add_argument("--n-to", dest="n_to", type=float, required=True,
                       help="last period multiple")
    sweep.add_argument("--step", type=float, required=True, help="multiple increment")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(handler=_cmd_sweep)

    filt = sub.add_parser("filter", parents=[_CONFIG],
                          help="zero-phase low-pass a t,<value> trace CSV")
    filt.add_argument("--in", dest="infile", required=True, help="input trace CSV")
    filt.add_argument("--out", required=True, help="output trace CSV")
    filt.add_argument("--order", type=int, default=4,
                      help="filter order (2, 4, 6 or 8; default 4)")
    filt.add_argument("--cutoff-hz", dest="cutoff_hz", type=float, default=20.0,
                      help="cutoff frequency [Hz] (default 20)")
    filt.set_defaults(handler=_cmd_filter)

    report = sub.add_parser("report", parents=[_CONFIG],
                            help="matched vs mistimed amplitude table across masses")
    report.add_argument("--beam", required=True,
                        help="JSON beam document (geometry and material)")
    report.add_argument("--masses", type=float_list, required=True,
                        help="comma-separated carried masses [kg]")
    report.add_argument("--L", type=float, required=True, help="displacement of the move [m]")
    report.add_argument("--n", type=float, default=2.0,
                        help="matched period multiple (default 2)")
    report.add_argument("--unmatched-n", dest="unmatched_n", type=float, default=2.5,
                        help="mistimed period multiple (default 2.5)")
    report.add_argument("--out", help="optional CSV output path")
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return args.handler(args)
    except (ValueError, OSError) as exc:  # a message may quote input with line breaks
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1

