"""Match sets: semiring values aggregated over regions of the match plane.

A region is a two-dimensional zone over the coordinates (t, t') of a
match start and end.  Regions from different harvests may overlap; a
point query folds every region containing the point, so the stored
table never needs geometric splitting.

The engine computes regions at an integer time scale; `scaled_piece`,
the one place where a region's bounds become rationals, turns each into
a `MatchPiece` over a denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


def zone_sort_key(z: zn.Zone, den: int = 1):
    """Structural ordering of zones whose bounds are numerators over
    `den`, for deterministic output: entry by entry, by value, then weak
    before strict, with INF last."""
    if den == 1:
        return tuple(zn.decode(e) for e in z.dbm)
    return tuple(
        (zn.INF, True) if e is zn.INF else (Fraction(e >> 1, den), not e & 1)
        for e in z.dbm
    )


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


@dataclass(frozen=True)
class MatchPiece:
    """A value on a region of the (t, t') plane.  The region's int bounds
    are numerators over the positive int `den`, in lowest terms: no
    integer above 1 divides `den` and every finite bound, so equal
    regions have equal pieces."""

    region: zn.Zone
    value: object
    den: int


def scaled_piece(region: zn.Zone, value, scale: int) -> MatchPiece:
    """The piece for a nonempty `region` computed at time scale `scale`,
    whose bounds count units of 1/scale."""
    d = region.dbm
    g = math.gcd(scale, *[e >> 1 for e in d if e is not zn.INF])
    if g != 1:
        # e & -2 is twice the bound's value, which g divides; dividing
        # every bound by the same positive g keeps the zone canonical
        region = zn.Zone(region.clocks, tuple(
            e if e is zn.INF else (e & -2) // g + (e & 1) for e in d
        ))
    return MatchPiece(region, value, scale // g)


def format_piece(piece: MatchPiece) -> str:
    d, den = piece.region.dbm, piece.den  # row-major 3x3 over (0, t, t')
    t_iv = _interval(d[1], d[3], den)
    tp_iv = _interval(d[2], d[6], den)
    diff_iv = _interval(d[5], d[7], den)
    return f"t in {t_iv}, t' in {tp_iv}, t'-t in {diff_iv} : {format_value(piece.value)}"


class MatchSet:
    """Insertion-merged map from match-plane regions to semiring values."""

    def __init__(self, semiring: Semiring):
        self.semiring = semiring
        self._pieces: dict = {}  # (region, den) -> value
        self.horizon = Fraction(0)

    def __len__(self) -> int:
        return len(self._pieces)

    def insert(self, piece: MatchPiece) -> bool:
        """Fold a piece in; True when the stored table changed."""
        value = piece.value
        if piece.region.dbm is None or value == self.semiring.zero:
            return False
        key = (piece.region, piece.den)
        old = self._pieces.get(key)
        if old is None:
            self._pieces[key] = value
            return True
        merged = self.semiring.oplus(old, value)
        if merged == old:
            return False
        self._pieces[key] = merged
        return True

    def pieces(self) -> list:
        return [
            MatchPiece(r, v, den)
            for (r, den), v in sorted(
                self._pieces.items(), key=lambda kv: zone_sort_key(*kv[0])
            )
        ]

    def query(self, t, t_prime):
        """Fold every region containing the point (t, t'), which must not
        end past the horizon: later segments may still match there."""
        t, tp = Fraction(t), Fraction(t_prime)
        if not 0 <= t < tp <= self.horizon:
            raise ValueError(f"need 0 <= t < t' <= {self.horizon}, got ({t}, {tp})")
        return self.semiring.big_oplus(
            v for (r, den), v in self._pieces.items() if zn.contains(r, (t, tp), den)
        )

    def export_grid(self, stream, delta) -> None:
        """Tab-separated t, t', value samples on a delta grid."""
        delta = Fraction(delta)
        if delta <= 0:
            raise ValueError("delta must be positive")
        stream.write("t\tt'\tvalue\n")
        n = int(self.horizon / delta)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                value = self.query(i * delta, j * delta)
                stream.write(
                    f"{format_time(i * delta)}\t{format_time(j * delta)}\t"
                    f"{format_value(value)}\n"
                )
