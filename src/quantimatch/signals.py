"""Piecewise-constant signals and the absorbing value-sequence algebra.

A signal is a finite sequence of (valuation, duration) segments with
exact rational durations.  Signal values are doubles; time arithmetic
is kept exact so that zone bounds derived from boundary sums can be
compared and deduplicated reliably.

Valuations are stored as tuples of (name, value) pairs sorted by name,
which makes them hashable and cheap to compare.  Value sequences are
tuples of valuations in which no two adjacent entries are equal; the
`absorbing_concat` seam rule maintains that invariant.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable, Iterator, Mapping

Valuation = tuple[tuple[str, float], ...]
ValueSeq = tuple[Valuation, ...]

EMPTY_SEQ: ValueSeq = ()


class SignalFormatError(ValueError):
    """Malformed signal text; `lineno` is 1-based."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def valuation(values: Mapping[str, float]) -> Valuation:
    return tuple(sorted((name, float(v)) for name, v in values.items()))


def value_of(a: Valuation, name: str) -> float:
    for n, v in a:
        if n == name:
            return v
    raise KeyError(name)


@dataclass(frozen=True)
class Segment:
    values: Valuation
    duration: Fraction

    def __post_init__(self):
        if isinstance(self.duration, bool) or not isinstance(self.duration, (int, Fraction)):
            raise ValueError(f"segment duration {self.duration!r} is not an int or Fraction")
        if not self.duration > 0:
            raise ValueError(f"segment duration must be positive, got {self.duration}")
        names = [name for name, _ in self.values]
        if any(a >= b for a, b in zip(names, names[1:])):
            raise ValueError(f"segment variable names {tuple(names)} are not strictly increasing")
        for name, v in self.values:
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"segment value {name}={v!r} is not a real number")
            if not math.isfinite(v):
                raise ValueError(f"segment value {name}={v} is not finite")


def check_variables(seg: Segment, names: tuple[str, ...] | None) -> tuple[str, ...]:
    """The variable names of `seg`; unless it comes first, they must be `names`."""
    seg_names = tuple(n for n, _ in seg.values)
    if names is not None and seg_names != names:
        raise ValueError(
            f"segment variable set {seg_names} differs from the first segment's {names}"
        )
    return seg_names


def segment(values: Mapping[str, float], duration) -> Segment:
    """Convenience constructor taking a plain mapping and any rational."""
    return Segment(valuation(values), Fraction(duration))


def absorbing_concat(a: ValueSeq, b: ValueSeq) -> ValueSeq:
    """Concatenate, collapsing an equal pair at the seam; ε is the identity."""
    if a and b and a[-1] == b[0]:
        return a + b[1:]
    return a + b


class Signal:
    """Immutable segment sequence with cached cumulative boundary times."""

    __slots__ = ("segments", "boundaries")

    def __init__(self, segments: Iterable[Segment]):
        segs = tuple(segments)
        names = None
        for s in segs:
            names = check_variables(s, names)
        bounds = [Fraction(0)]
        for s in segs:
            bounds.append(bounds[-1] + s.duration)
        self.segments = segs
        self.boundaries = tuple(bounds)

    @property
    def duration(self) -> Fraction:
        return self.boundaries[-1]

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __repr__(self) -> str:
        parts = " ".join(f"{dict(s.values)}^{s.duration}" for s in self.segments)
        return f"Signal({parts})"

    def restrict(self, t, t_prime) -> "Signal":
        """Sub-signal on [t, t'); duration of the result is exactly t'-t.
        A bool or non-finite bound is rejected like one outside the domain."""
        bad = isinstance(t, bool) or isinstance(t_prime, bool)
        try:
            t, t_prime = Fraction(t), Fraction(t_prime)
        except (OverflowError, ValueError, ZeroDivisionError):  # inf, NaN, "1/0"
            bad = True
        if bad or not 0 <= t < t_prime <= self.duration:
            raise ValueError(
                f"restriction window [{t},{t_prime}) outside domain [0,{self.duration}]"
            )
        k = bisect_right(self.boundaries, t) - 1
        l = bisect_left(self.boundaries, t_prime) - 1
        if k == l:
            return Signal([Segment(self.segments[k].values, t_prime - t)])
        first = Segment(self.segments[k].values, self.boundaries[k + 1] - t)
        last = Segment(self.segments[l].values, t_prime - self.boundaries[l])
        return Signal([first, *self.segments[k + 1 : l], last])


def _parse_duration(field: str, lineno: int) -> Fraction:
    try:
        return Fraction(field)
    except (ValueError, ZeroDivisionError):
        raise SignalFormatError(lineno, f"bad duration {field!r}") from None


def _parse_value(field: str, lineno: int) -> float:
    try:
        return float(field)
    except ValueError:
        raise SignalFormatError(lineno, f"bad value {field!r}") from None


def read_stream(lines: Iterable[str]) -> Iterator[Segment]:
    """Yield one segment per data row of the signal text format.

    Format: `#`-prefixed lines are comments, the first remaining line is
    a header of variable names, and every later line is
    `duration v1 v2 ...` with one value per header variable.  Durations
    accept decimal or p/q literals; values are decimals.  Blank lines
    are skipped.  Syntax errors are reported here; a duration that is
    not positive or a value that is not finite is rejected by `Segment`,
    whose message is passed on with the line number.
    """
    header: tuple[str, ...] | None = None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(set(fields)) != len(fields):
                raise SignalFormatError(lineno, "duplicate variable in header")
            header = tuple(fields)
            continue
        if len(fields) != len(header) + 1:
            raise SignalFormatError(
                lineno, f"expected {len(header) + 1} fields, got {len(fields)}"
            )
        dur = _parse_duration(fields[0], lineno)
        vals = [_parse_value(f, lineno) for f in fields[1:]]
        try:
            seg = Segment(tuple(sorted(zip(header, vals))), dur)
        except ValueError as exc:
            raise SignalFormatError(lineno, str(exc)) from None
        yield seg
    if header is None:
        raise SignalFormatError(0, "missing header line")


def parse_signal(text: str) -> Signal:
    return Signal(read_stream(text.splitlines()))
