"""Command-line surface: plan setpoints, simulate, sweep, filter and report.

All quantities are SI.  An argument ``@path`` stands for the lines of that
UTF-8 file, one argument a line, so that a flag after it overrides the file's.
Every validation failure, argument errors included, exits with status 2 and a
one-line diagnostic; I/O failures, a closed standard output among them, exit
with status 1.

Each subcommand's flags are declared once, in ``_COMMANDS``.  A plain argv is
read from that table directly; argparse, built from the same table, is loaded
only for the rest (help and argument errors), so its texts are the ones shown.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from types import SimpleNamespace

from .analysis import _carried_masses, amplitude_table, sweep_n
from .beam import load_beam
from .filters import design_butterworth, filtfilt
from .motion import MotionSpec
from .oscillator import residual_report, simulate_relative, write_relative_trace
from .timeseries import fmt, load_trace, save_trace


def _expand_args(argv) -> list[str]:
    """argv with each ``@path`` argument replaced by the lines of that UTF-8 file.

    Each line is one argument and blank lines are skipped.  Files do not nest:
    a line of a file that starts with ``@`` is an argument as written.
    """
    expanded = []
    for arg in argv:
        if not arg.startswith("@"):
            expanded.append(arg)
            continue
        with open(arg[1:], encoding="utf-8") as fh:
            try:
                expanded += [line for line in fh.read().split("\n") if line.strip()]
            except UnicodeDecodeError as exc:  # a ValueError that does not name the file
                raise ValueError(f"{arg[1:]}: {exc}") from None
    return expanded


def _print(*lines: str) -> None:
    """Print lines to standard output; a closed one is an I/O error, not lost text."""
    if sys.stdout is None:  # Python's stand-in when the process starts with fd 1 closed
        raise OSError("standard output is closed")
    print(*lines, sep="\n")


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
    _print(f"t1 = {fmt(spec.t1)} s", f"p = {fmt(spec.p)} rad/s",
           f"peak acceleration = {fmt(spec.peak_acceleration)} m/s^2")
    return 0


def _cmd_simulate(args) -> int:
    spec = _resolve_spec(args)
    trace = simulate_relative(spec, args.step)
    report = residual_report(spec, trace)
    if args.trace_out is not None:
        write_relative_trace(args.trace_out, spec, trace)
    import json  # only simulate prints JSON

    _print(json.dumps(report.as_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    k, m = _payload(args)
    result = sweep_n(L=args.L, k=k, m=m, n_from=args.n_from, n_to=args.n_to, step=args.step)
    result.write_csv(args.out)
    _print(f"wrote {len(result)} rows to {args.out}")
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
    _print(table.to_text())
    return 0


def float_list(text: str) -> list[float]:
    """Comma-separated numbers, empty items skipped (the --masses type)."""
    return [float(item) for item in text.split(",") if item.strip()]


#: one flag of a subcommand: where its value goes (dest) and how it is read; a type
#: of None keeps the value as written, and a store_true flag is True when given
_Flag = namedtuple("_Flag", "dest type default required store_true help",
                   defaults=(None, None, False, False, ""))


_PAYLOAD = {
    "--L": _Flag("L", float, required=True, help="displacement of the move [m]"),
    "--k": _Flag("k", float, help="payload natural angular frequency [rad/s]"),
    "--beam": _Flag("beam", help="JSON beam document supplying the frequency"),
    "--mass": _Flag("mass", float, help="carried object mass [kg] (default: beam m_tip)"),
}

_MOTION = {
    **_PAYLOAD,
    "--n": _Flag("n", float, required=True,
                 help="period multiple t1/t_c (integer >= 2 unless --exploratory)"),
    "--exploratory": _Flag("exploratory", default=False, store_true=True,
                           help="allow non-integer n > 1 (move will not end quiescent)"),
}

#: each subcommand's help line, handler and flags, in the order the help lists them
_COMMANDS = {
    "plan": ("write a t,s,v,a setpoint CSV for one move", _cmd_plan, {
        **_MOTION,
        "--rate": _Flag("rate", float, 1500.0,
                        help="setpoint sample rate [Hz] (default 1500)"),
        "--out": _Flag("out", required=True, help="output CSV path"),
    }),
    "simulate": ("integrate the relative motion and report quiescence", _cmd_simulate, {
        **_MOTION,
        "--step": _Flag("step", float, help="RK4 time step [s] (default t1/20000)"),
        "--trace-out": _Flag("trace_out", help="optional t,x_r,v_r,a_r CSV path"),
    }),
    "sweep": ("scan the period multiple and tabulate residuals", _cmd_sweep, {
        **_PAYLOAD,
        "--n-from": _Flag("n_from", float, required=True, help="first period multiple (> 1)"),
        "--n-to": _Flag("n_to", float, required=True, help="last period multiple"),
        "--step": _Flag("step", float, required=True, help="multiple increment"),
        "--out": _Flag("out", required=True, help="output CSV path"),
    }),
    "filter": ("zero-phase low-pass a t,<value> trace CSV", _cmd_filter, {
        "--in": _Flag("infile", required=True, help="input trace CSV"),
        "--out": _Flag("out", required=True, help="output trace CSV"),
        "--order": _Flag("order", int, 4, help="filter order (2, 4, 6 or 8; default 4)"),
        "--cutoff-hz": _Flag("cutoff_hz", float, 20.0,
                             help="cutoff frequency [Hz] (default 20)"),
    }),
    "report": ("matched vs mistimed amplitude table across masses", _cmd_report, {
        "--beam": _Flag("beam", required=True, help="JSON beam document (geometry and material)"),
        "--masses": _Flag("masses", float_list, required=True,
                          help="comma-separated carried masses [kg]"),
        "--L": _PAYLOAD["--L"],
        "--n": _Flag("n", float, 2.0, help="matched period multiple (default 2)"),
        "--unmatched-n": _Flag("unmatched_n", float, 2.5,
                               help="mistimed period multiple (default 2.5)"),
        "--out": _Flag("out", help="optional CSV output path"),
    }),
}


def build_parser():
    """The argparse parser of _COMMANDS, whose errors raise ValueError instead of exiting."""
    import argparse  # only help and argument errors get this far

    class Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):  # a flag is spelled in full
            super().__init__(*args, allow_abbrev=False, **kwargs)

        def error(self, message):
            raise ValueError(message)

    parser = Parser(
        prog="flexmove",
        description="Plan and analyse oscillation-free moves of flexible payloads.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, handler, flags) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=help_line)
        for flag, spec in flags.items():
            if spec.store_true:
                subparser.add_argument(flag, dest=spec.dest, action="store_true", help=spec.help)
            else:
                subparser.add_argument(flag, dest=spec.dest, type=spec.type, default=spec.default,
                                       required=spec.required, help=spec.help)
        subparser.set_defaults(handler=handler)
    return parser


def _fast_args(argv):
    """The namespace build_parser() makes of argv, read without argparse; None when
    argv is not a subcommand followed by its flags, each with a value that converts.

    A value follows its flag as the next argument, unless it starts with "-", or
    shares it as ``--flag=value``; a later value of a flag wins.  What this does
    not read (help, an unknown or abbreviated flag, a missing value, "--") is left
    to argparse, so its messages and exit codes are argparse's own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, flags = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            return None
        if spec.store_true:
            if eq:
                return None
            given[spec.dest] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        try:
            given[spec.dest] = value if spec.type is None else spec.type(value)
        except ValueError:
            return None
    if any(spec.required and spec.dest not in given for spec in flags.values()):
        return None
    defaults = {spec.dest: spec.default for spec in flags.values()}
    return SimpleNamespace(command=argv[0], **(defaults | given), handler=handler)


def main(argv=None) -> int:
    try:
        argv = _expand_args(sys.argv[1:] if argv is None else argv)
        args = _fast_args(argv)
        if args is None:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:  # the help action, after printing the help
                return exc.code
        return args.handler(args)
    except (ValueError, OSError) as exc:  # a message may quote input with line breaks
        print("error:", " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1

