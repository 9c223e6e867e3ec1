"""Match sets: semiring values over regions of the match plane.

A region is a two-dimensional zone over the coordinates (t, t') of a
match start and end.  The online matcher yields, for each segment
(b_{k-1}, b_k], the rows whose regions have t' in that interval; such a
row is final, as every later segment only yields rows with a later t'.
The match set keeps those rows as one batch per segment, in the order
they arrived, so a point query reads only the batch whose interval holds
t' and folds every region there containing the point.  A query reads
its window once as ints a / q, b / q (an int or `Fraction` time as it
is, any other through `Fraction()`), checks it against the horizon and
finds the batch by an int binary search over the segment ends, kept as
(numerator, denominator) pairs.  It tests each row against the six
off-diagonal entries of its 3x3 region, `zone.contains` unrolled, with
2a * den and 2b * den computed once per row: int arithmetic alone, with
no `Fraction` built or compared for an int or `Fraction` window.

Rows are rendered as text a row at a time (`format_piece`), but one
segment's rows share few distinct bounds: segment boundaries and guard
offsets at one time scale.  So the text of a bound, an int over the
time scale, comes from a memo keyed on both ints and bounded to the
1024 most recently used pairs.  A bounded memo loses little: the bounds
a stream's rows carry drift forward with it, so old ones are not asked
for again.  A batch is ordered by `zone_sort_key`, which reads the six
off-diagonal entries of a region.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import zone as zn
from .semiring import INF, Semiring


def format_time(x) -> str:
    """Rationals rendered as integers, exact decimals, or p/q."""
    if x == INF:
        return "inf"
    f = Fraction(x)
    return _format_ratio(f.numerator, f.denominator)


def _format_ratio(num: int, den: int) -> str:
    # num/den in lowest terms, den positive
    if den == 1:
        return str(num)
    rest = den
    d2 = d5 = 0
    while rest % 2 == 0:
        rest //= 2
        d2 += 1
    while rest % 5 == 0:
        rest //= 5
        d5 += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(d2, d5)
    scaled = abs(num) * 10**digits // den
    whole, frac = divmod(scaled, 10**digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).rjust(digits, '0')}"


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    if v == int(v):
        return str(int(v))
    return repr(v)


def zone_sort_key(z: tuple):
    """Structural ordering of 3x3 regions at one time scale, for
    deterministic output: entry by entry, by value, then weak before
    strict, with INF last.  Flipping the low bit of an encoded bound,
    2v + weak, gives 2v + strict, which orders exactly so.  The key reads
    the six off-diagonal entries only: the diagonal is always (0, weak)."""
    _, a, b, c, _, d, e, f, _ = z
    inf = zn.INF
    return (
        a if a is inf else a ^ 1, b if b is inf else b ^ 1, c if c is inf else c ^ 1,
        d if d is inf else d ^ 1, e if e is inf else e ^ 1, f if f is inf else f ^ 1,
    )


@functools.lru_cache(maxsize=1024)
def _bound_time(v: int, den: int) -> str:
    g = math.gcd(v, den)
    return _format_ratio(v // g, den // g)


def _interval(lo, hi, den) -> str:
    # encoded entries: lo bounds the negated coordinate, hi the plain
    # one, which alone may be INF
    left = "[" if lo & 1 else "("
    if hi is zn.INF:
        return f"{left}{_bound_time(-(lo >> 1), den)},inf)"
    right = "]" if hi & 1 else ")"
    return f"{left}{_bound_time(-(lo >> 1), den)},{_bound_time(hi >> 1, den)}{right}"


class MatchPiece(NamedTuple):
    """A value on a region of the (t, t') plane.  `den` is the time scale
    the region was computed at: its int bounds count units of 1/den.  As
    a named tuple it is immutable, hashable and cheap to build, and it
    compares equal to the plain tuple of its fields."""

    region: tuple  # zone.py's flat 3x3 bound tuple over (0, t, t')
    value: object
    den: int


def format_piece(piece: MatchPiece) -> str:
    d, den = piece.region, piece.den
    t_iv = _interval(d[1], d[3], den)
    tp_iv = _interval(d[2], d[6], den)
    diff_iv = _interval(d[5], d[7], den)
    return f"t in {t_iv}, t' in {tp_iv}, t'-t in {diff_iv} : {format_value(piece.value)}"


def _ratio(x) -> tuple:
    """The time x as ints (numerator, positive denominator).  An int or a
    Fraction is read as it is; any other value but a bool goes through
    `Fraction()`.  A bool, an infinite or NaN float and a string that is
    no rational, "1/0" among them, raise ValueError."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:
        return x.numerator, x.denominator
    if isinstance(x, bool):
        raise ValueError(f"{x} is a bool, not a number")
    try:
        f = Fraction(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"{x} is not a finite rational") from None
    return f.numerator, f.denominator


class MatchSet:
    """The rows of a segment stream, one batch per segment.

    Batch k holds the rows whose regions have t' in (b_{k-1}, b_k],
    b_k being the k-th segment end, in the order they were inserted.
    """

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self._ends: list = []  # increasing segment ends b_k, as int pairs (num, den)
        self._batches: list = []  # rows with t' in (b_{k-1}, b_k]

    @property
    def horizon(self) -> Fraction:
        """The end of the last batch: no query may end past it."""
        return Fraction(*self._ends[-1]) if self._ends else Fraction(0)

    def __len__(self) -> int:
        return sum(map(len, self._batches))

    def insert(self, end, rows) -> None:
        """Append the batch of rows for the segment ending at `end`,
        which must lie past the horizon; a bool or a non-finite end is
        rejected, as by `query`."""
        end = Fraction(*_ratio(end))
        if not end > self.horizon:
            raise ValueError(f"batch end {end} is not past the horizon {self.horizon}")
        self._ends.append((end.numerator, end.denominator))
        self._batches.append(tuple(rows))

    def pieces(self) -> list:
        """Every row, batch by batch."""
        return [p for batch in self._batches for p in batch]

    def query(self, t, t_prime):
        """Fold every region containing the point (t, t'), which must not
        end past the horizon: later segments may still match there."""
        ends = self._ends
        try:
            (tn, td), (pn, pd) = _ratio(t), _ratio(t_prime)
        except ValueError:  # a bool, infinite or NaN time
            inside = False
        else:
            # the window as a / q, b / q
            q = math.lcm(td, pd)
            a, b = tn * (q // td), pn * (q // pd)
            hn, hd = ends[-1] if ends else (0, 1)
            inside = 0 <= a < b and b * hd <= hn * q
        if not inside:
            raise ValueError(f"need 0 <= t < t' <= {self.horizon}, got ({t}, {t_prime})")
        # the batch whose interval (b_{k-1}, b_k] holds t', right end
        # included: the first end n / d with b / q <= n / d
        lo, hi = 0, len(ends) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            n, d = ends[mid]
            if b * d <= n * q:
                hi = mid
            else:
                lo = mid + 1
        # zone.contains unrolled over a region's six off-diagonal entries:
        # in units of a row's bounds, t = a * den / q and t' = b * den / q,
        # and c_i - c_j meets the entry e iff 2(c_i - c_j) * q < (e & -2) *
        # q + (e & 1), where x and y are 2t * q and 2t' * q.  Entries 1 and
        # 2 bound -t and -t', which no zone leaves unbounded.
        inf = zn.INF
        a2, b2 = 2 * a, 2 * b
        hits = []
        for p in self._batches[lo]:
            _, e1, e2, e3, _, e5, e6, e7, _ = p.region
            x, y = a2 * p.den, b2 * p.den
            if (
                -x < (e1 & -2) * q + (e1 & 1)
                and -y < (e2 & -2) * q + (e2 & 1)
                and (e3 is inf or x < (e3 & -2) * q + (e3 & 1))
                and (e6 is inf or y < (e6 & -2) * q + (e6 & 1))
                and (e5 is inf or x - y < (e5 & -2) * q + (e5 & 1))
                and (e7 is inf or y - x < (e7 & -2) * q + (e7 & 1))
            ):
                hits.append(p.value)
        return self.semiring.big_oplus(hits)

    def export_grid(self, stream, delta) -> None:
        """Tab-separated t, t', value samples on a delta grid."""
        try:
            num, den = _ratio(delta)
        except ValueError:  # a bool, infinite or NaN spacing
            num = 0
        if num <= 0:
            raise ValueError("delta must be positive")
        delta = Fraction(num, den)
        stream.write("t\tt'\tvalue\n")
        n = int(self.horizon / delta)
        times = [i * delta for i in range(n + 1)]
        labels = [format_time(x) for x in times]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                value = self.query(times[i], times[j])
                stream.write(f"{labels[i]}\t{labels[j]}\t{format_value(value)}\n")
