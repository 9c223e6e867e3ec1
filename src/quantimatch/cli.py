"""Command line front end.

Subcommands share the automaton and signal flags:

    quantimatch tracevalue --spec a.tsa --semiring supinf --cost r --signal trace.txt
    quantimatch monitor    --spec a.tsa --semiring tropical --cost t --signal -
    quantimatch query      --spec a.tsa --semiring supinf --cost r --query 3 15
    quantimatch grid       --spec a.tsa --semiring boolean --cost b --grid 0.5

Every command reads the signal row by row; `monitor` prints a segment's
match rows as soon as it is read.  Exit codes: 0 success, 1 unreadable
(missing or not UTF-8) or malformed input, or stdout not writable (a
closed pipe is not an error), 2 evaluation failure, 64 usage error
(including a cost/semiring mismatch).
"""

import argparse
import functools
import os
import sys
from contextlib import nullcontext
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
from .signals import Signal, SignalFormatError, read_stream

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
            choices=list(semirings.SEMIRINGS),
            help="value domain",
        )
        sp.add_argument(
            "--cost",
            required=True,
            choices=[kind.value for kind in CostKind],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building one takes about as long
    as a small command, and parsing leaves it unchanged."""
    return build_parser()


def _fail(code: int, message: str) -> int:
    print(f"quantimatch: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Reader went away (e.g. piped into head).
        _drop_stdout()
        return 0
    except OSError as exc:
        # Any other failed write of stdout, e.g. a full disk.
        _drop_stdout()
        return _fail(1, f"cannot write stdout: {exc}")


def _drop_stdout() -> None:
    """Point stdout at /dev/null, so that the interpreter's final flush
    of what could not be written stays quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            automaton = parse_automaton(fh.read())
        wa = WeightedAutomaton(
            automaton, semirings.get(args.semiring), CostKind.from_code(args.cost)
        )
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(1, f"cannot read {args.spec}: {exc}")
    except ParseError as exc:
        return _fail(1, f"{args.spec}: {exc}")
    except PairingError as exc:
        return _fail(USAGE_EXIT, str(exc))

    lines = _lines(args.signal)
    try:
        segments = read_stream(lines)
        if args.command == "monitor":
            matcher = OnlineMatcher(wa)
            for seg in segments:
                sys.stdout.write("".join(format_piece(p) + "\n" for p in matcher.feed(seg)))
                sys.stdout.flush()
            return 0
        sig = Signal(segments)
        if args.command == "tracevalue":
            print(format_value(trace_value(sig, wa)))
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
        for seg in sig:
            matcher.feed(seg)
        if args.command == "query":
            print(format_value(matcher.matchset.query(t, tp)))
        else:
            matcher.matchset.export_grid(sys.stdout, delta)
        return 0
    except (_Unreadable, SignalFormatError) as exc:
        return _fail(1, str(exc))
    except EvaluationError as exc:
        return _fail(2, str(exc))
    finally:
        lines.close()


class _Unreadable(Exception):
    """The signal could not be opened or decoded; the message names it."""


def _lines(path: str):
    """The signal file's lines, or stdin's for `-` (left open), as they
    are read; a failed open or read, not a failed write, is `_Unreadable`."""
    try:
        with nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
            yield from iter(fh.readline, "")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Unreadable(f"cannot read {path}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
