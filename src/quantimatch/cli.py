"""Command line front end.

Subcommands share the automaton and signal flags:

    quantimatch tracevalue --spec a.tsa --semiring supinf --cost r --signal trace.txt
    quantimatch monitor    --spec a.tsa --semiring tropical --cost t --signal -
    quantimatch query      --spec a.tsa --semiring supinf --cost r --query 3 15
    quantimatch grid       --spec a.tsa --semiring boolean --cost b --grid 0.5

`monitor` consumes the signal row by row and prints match rows as they
are found; the other commands read the whole signal first.  Exit
codes: 0 success, 1 malformed input, 2 evaluation failure, 64 usage
error (including a cost/semiring mismatch).
"""

import argparse
import os
import sys
from fractions import Fraction

from . import semiring as semirings
from .automaton import (
    CostKind,
    EvaluationError,
    PairingError,
    ParseError,
    WeightedAutomaton,
    parse_automaton,
)
from .engine import OnlineMatcher, trace_value
from .matchset import format_piece, format_time, format_value
from .signals import SignalFormatError, parse_signal, read_stream

USAGE_EXIT = 64


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="quantimatch",
        description="Quantitative timed pattern matching over "
        "piecewise-constant signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = {
        "tracevalue": "value of the automaton over the whole signal",
        "monitor": "stream the signal, printing match rows as they appear",
        "query": "match value at one (T, TPRIME) point",
        "grid": "tab-separated match values on a regular grid",
    }
    for name, help_text in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--spec", required=True, help="automaton description file")
        sp.add_argument(
            "--semiring",
            required=True,
            choices=["boolean", "supinf", "tropical"],
            help="value domain",
        )
        sp.add_argument(
            "--cost",
            required=True,
            choices=["b", "r", "t"],
            help="cost kind: b satisfaction, r minimal margin, t summed margin",
        )
        sp.add_argument(
            "--signal", default="-", help="signal file, or - for stdin (default)"
        )
        if name == "query":
            sp.add_argument(
                "--query", required=True, nargs=2, metavar=("T", "TPRIME"),
                help="match window endpoints",
            )
        if name == "grid":
            sp.add_argument(
                "--grid", required=True, metavar="DELTA", help="grid spacing"
            )
    return parser


def _fail(code: int, message: str) -> int:
    print(f"quantimatch: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # Reader went away (e.g. piped into head).  Point stdout at
        # /dev/null so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec_text = fh.read()
    except OSError as exc:
        return _fail(1, f"cannot read {args.spec}: {exc}")
    try:
        automaton = parse_automaton(spec_text)
    except ParseError as exc:
        return _fail(1, f"{args.spec}: {exc}")
    try:
        wa = WeightedAutomaton(
            automaton, semirings.get(args.semiring), CostKind.from_code(args.cost)
        )
    except PairingError as exc:
        return _fail(USAGE_EXIT, str(exc))

    if args.command == "monitor":
        return _run_monitor(args, wa)

    if args.signal == "-":
        signal_text = sys.stdin.read()
    else:
        try:
            with open(args.signal, encoding="utf-8") as fh:
                signal_text = fh.read()
        except OSError as exc:
            return _fail(1, f"cannot read {args.signal}: {exc}")
    try:
        sig = parse_signal(signal_text)
    except SignalFormatError as exc:
        return _fail(1, str(exc))

    if args.command == "tracevalue":
        try:
            print(format_value(trace_value(sig, wa)))
        except EvaluationError as exc:
            return _fail(2, str(exc))
        return 0

    # usage errors are reported before any evaluation
    if args.command == "query":
        try:
            t, tp = Fraction(args.query[0]), Fraction(args.query[1])
        except (ValueError, ZeroDivisionError):
            return _fail(USAGE_EXIT, "query times must be rational numbers")
        if not 0 <= t < tp <= sig.duration:
            return _fail(USAGE_EXIT, f"need 0 <= T < TPRIME <= {format_time(sig.duration)}")
    else:
        try:
            delta = Fraction(args.grid)
        except (ValueError, ZeroDivisionError):
            return _fail(USAGE_EXIT, "grid spacing must be a rational number")
        if delta <= 0:
            return _fail(USAGE_EXIT, "grid spacing must be positive")

    matcher = OnlineMatcher(wa)
    try:
        for seg in sig:
            matcher.feed(seg)
    except EvaluationError as exc:
        return _fail(2, str(exc))
    if args.command == "query":
        print(format_value(matcher.matchset.query(t, tp)))
    else:
        matcher.matchset.export_grid(sys.stdout, delta)
    return 0


def _run_monitor(args, wa: WeightedAutomaton) -> int:
    if args.signal == "-":
        close = None
        lines = iter(sys.stdin.readline, "")
    else:
        try:
            close = open(args.signal, encoding="utf-8")
        except OSError as exc:
            return _fail(1, f"cannot read {args.signal}: {exc}")
        lines = close
    matcher = OnlineMatcher(wa)
    try:
        for seg in read_stream(lines):
            sys.stdout.write("".join(format_piece(p) + "\n" for p in matcher.feed(seg)))
            sys.stdout.flush()
    except SignalFormatError as exc:
        sys.stdout.flush()
        return _fail(1, str(exc))
    except EvaluationError as exc:
        sys.stdout.flush()
        return _fail(2, str(exc))
    finally:
        if close is not None:
            close.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
