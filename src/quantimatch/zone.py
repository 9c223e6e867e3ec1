"""Difference-bound matrices over a named clock list, one int per bound.

A zone is the set of nonnegative clock valuations satisfying a
conjunction of constraints `c_i - c_j < d` or `<= d`.  Index 0 is the
constant-zero reference, so the bound on `c_i - c_j` caps clock i from
above when j = 0 and from below when i = 0.

`Zone.dbm` holds the matrix row-major as a flat tuple of n*n entries,
n = len(clocks) + 1: entry `i*n + j` bounds `c_i - c_j`.  A bound
`(v, strict)` is the single int `2v` when strict and `2v + 1` when weak,
the encoding of the UPPAAL DBM library (Bengtsson & Yi, "Timed Automata:
Semantics, Algorithms and Tools", LNCS 3098, 2004).  The absent bound is
the one sentinel `INF`, a float infinity above every int, told apart
by identity (`e is INF`).  On finite entries bound addition is
`a + b - ((a | b) & 1)` and "tighter than" is plain `<`; `(0, weak)`
is 1.

Every bound is an integer: the engine rescales time until every segment
boundary and guard constant is one (`engine.time_scale`).  So `make`,
`constrain` and `point_zone` take int constants and `scale` a positive
int.  A match-set row keeps the time scale its zone was computed at
beside it (`matchset.MatchPiece.den`); `contains` reads bounds over such
a denominator.

`Zone.m` decodes the matrix into rows of `(value, strict)` pairs (value
an int, or `INF`) for readers outside the kernel; no operation here
uses it.

Zone objects are immutable and canonical (all-pairs tightened), which
makes structural equality coincide with set equality; the empty zone
carries `dbm = None` (so `m` is None too).  Every public operation
returns such a zone, mostly via O(n^2) incremental tightening rather
than a full Floyd-Warshall pass.

The engine's two per-state operations skip even that.  `elapse` waits
into a segment (prev, cur] of the time clock and returns the open band
and the wall at cur; it requires the time clock to be at most cur
(else ValueError).  Then every bound it adds passes through row 0 and
column 0, which it rewrites from the time clock's row and column in
O(n), where `up` and two `clamp_time` calls take four `constrain`
passes.  Only a zone that reaches cur without being pinned there needs
one more O(n^2) pass; engine zones never do.  `free` forgets clocks,
keeping only c >= 0 on each, in O(n) per clock.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

INF = float("inf")


def encode(value, strict: bool):
    """The int for the bound (value, strict); `value` an int, or INF."""
    if value == INF:
        return INF
    return 2 * value + (not strict)


def decode(e) -> tuple:
    """The (value, strict) pair of an entry."""
    if e is INF:
        return (INF, True)
    return (e >> 1, not e & 1)


def _add(a, b):
    """Bound addition, absorbing at INF; `constrain` inlines it."""
    if a is INF or b is INF:
        return INF
    return a + b - ((a | b) & 1)


class Zone:
    """Canonical DBM; construct via the module-level factories."""

    __slots__ = ("clocks", "dbm", "_hash")

    def __init__(self, clocks: tuple[str, ...], dbm):
        self.clocks = clocks
        self.dbm = dbm
        self._hash = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Zone)
            and self.dbm == other.dbm
            and self.clocks == other.clocks
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.clocks, self.dbm))
        return h

    @property
    def m(self):
        """The matrix as rows of decoded (value, strict) pairs, or None."""
        d = self.dbm
        if d is None:
            return None
        n = len(self.clocks) + 1
        pairs = [decode(e) for e in d]
        return tuple(tuple(pairs[i * n:(i + 1) * n]) for i in range(n))

    def __repr__(self) -> str:
        m = self.m
        if m is None:
            return "Zone(empty)"
        parts = []
        for i, name in enumerate(self.clocks, 1):
            lo, los = m[0][i]
            hi, his = m[i][0]
            left = "(" if los else "["
            right = ")" if his else "]"
            parts.append(f"{name} in {left}{-lo},{hi}{right}")
        return f"Zone({', '.join(parts)})"


def _full_canonicalize(clocks, rows: list) -> Zone:
    n = len(clocks) + 1
    for k in range(n):
        rk = k * n
        for i in range(n):
            ik = rows[i * n + k]
            if ik is INF:
                continue
            ri = i * n
            for j in range(n):
                cand = _add(ik, rows[rk + j])
                if cand < rows[ri + j]:
                    rows[ri + j] = cand
    for i in range(0, n * n, n + 1):
        if rows[i] < 1:
            return Zone(clocks, None)
        rows[i] = 1
    return Zone(clocks, tuple(rows))


def make(clocks: Sequence[str], constraints: Iterable[tuple] = ()) -> Zone:
    """Zone from constraints (i, j, value, strict) meaning c_i - c_j bound.

    Values are integers (or INF, no bound); any other value raises
    ValueError.  Clocks default to the nonnegative orthant with no upper
    bounds.
    """
    clocks = tuple(clocks)
    n = len(clocks) + 1
    rows = [INF] * (n * n)
    for i in range(n):
        rows[i * n + i] = 1
        rows[i] = 1
    for i, j, value, strict in constraints:
        if value == INF:
            continue
        if value != int(value):
            raise ValueError(f"zone constant {value} is not an integer")
        b = encode(int(value), strict)
        if b < rows[i * n + j]:
            rows[i * n + j] = b
    return _full_canonicalize(clocks, rows)


def canonicalize(z: Zone) -> Zone:
    """All-pairs tightening; public operations already return canonical zones."""
    if z.dbm is None:
        return z
    return _full_canonicalize(z.clocks, list(z.dbm))


def point_zone(clocks: Sequence[str], value: int = 0) -> Zone:
    """The single valuation with every clock equal to the int `value`."""
    clocks = tuple(clocks)
    n = len(clocks) + 1
    rows = [1] * (n * n)
    for i in range(1, n):
        rows[i * n] = 2 * value + 1
        rows[i] = 1 - 2 * value
    return Zone(clocks, tuple(rows))


def constrain(z: Zone, i: int, j: int, value: int, strict: bool) -> Zone:
    """Intersect with c_i - c_j <(=) value, an int; O(n^2) incremental
    tightening."""
    d = z.dbm
    if d is None:
        return z
    b = 2 * value + (not strict)
    n = len(z.clocks) + 1
    if d[i * n + j] <= b:
        return z
    ji = d[j * n + i]
    if ji is not INF and b + ji - ((b | ji) & 1) < 1:
        return Zone(z.clocks, None)
    rows = list(d)
    row_j = d[j * n:j * n + n]
    for p in range(n):
        pi = d[p * n + i]
        if pi is INF:
            continue
        head = pi + b - ((pi | b) & 1)
        base = p * n
        for k, x in enumerate(row_j, base):
            if x is not INF:
                cand = head + x - ((head | x) & 1)
                if cand < rows[k]:
                    rows[k] = cand
    return Zone(z.clocks, tuple(rows))


def intersect_guard(z: Zone, atoms: Iterable[tuple]) -> Zone:
    """Intersect with a conjunction of (clock_index, op, constant) atoms."""
    for i, op, k in atoms:
        if op == "<":
            z = constrain(z, i, 0, k, True)
        elif op == "<=":
            z = constrain(z, i, 0, k, False)
        elif op == ">":
            z = constrain(z, 0, i, -k, True)
        elif op == ">=":
            z = constrain(z, 0, i, -k, False)
        else:
            raise ValueError(f"unknown comparison {op!r}")
        if z.dbm is None:
            return z
    return z


def reset(z: Zone, indices: Iterable[int]) -> Zone:
    """Set the given clocks to 0; canonical form is preserved."""
    indices = tuple(indices)
    d = z.dbm
    if d is None or not indices:
        return z
    rows = list(d)
    n = len(z.clocks) + 1
    for c in indices:
        cn = c * n
        for j in range(n):
            rows[cn + j] = rows[j]
            rows[j * n + c] = rows[j * n]
        rows[cn + c] = 1
    return Zone(z.clocks, tuple(rows))


def up(z: Zone) -> Zone:
    """Strict time elapse: {nu + tau | nu in z, tau > 0}.

    Upper bounds vanish and every finite lower bound turns strict;
    difference bounds are unaffected.  The result is canonical, so no
    tightening pass is needed.
    """
    d = z.dbm
    if d is None:
        return z
    rows = list(d)
    n = len(z.clocks) + 1
    for i in range(1, n):
        rows[i * n] = INF
        lo = rows[i]
        if lo is not INF:
            rows[i] = lo & -2
    return Zone(z.clocks, tuple(rows))


def clamp_time(z: Zone, i: int, lo, hi, left_strict: bool = False, right_strict: bool = False) -> Zone:
    """Intersect with lo <(=) c_i <(=) hi; punctual windows use lo == hi."""
    z = constrain(z, 0, i, -lo, left_strict)
    return constrain(z, i, 0, hi, right_strict)


def elapse(z: Zone, t: int, prev: int, cur: int) -> tuple:
    """Wait from z into a segment (prev, cur] of the time clock c_t.

    Returns (band, wall): `up(z)` restricted to prev < c_t < cur and to
    c_t = cur, i.e. `clamp_time(up(z), t, prev, cur, True, True)` and
    `clamp_time(up(z), t, cur, cur)`.  Precondition: c_t <= cur on z,
    else ValueError.  The bounds the clamps add, c_t - 0 and 0 - c_t,
    both meet row 0 and column 0, so every path they shorten runs
    through there: each output rewrites row 0 from row t and column 0
    from column t, O(n) bound additions.  Only a zone that reaches
    c_t = cur without being pinned there loses points to the strict
    wait and has its differences re-tightened through row 0 and column
    0 as well, in O(n^2); engine zones lie either below cur or on it.
    """
    d = z.dbm
    if d is None:
        return z, z
    n = len(z.clocks) + 1
    tn = t * n
    top = 2 * cur + 1  # c_t <= cur
    if d[tn] > top:
        raise ValueError(f"clock {z.clocks[t - 1]} may exceed the boundary {cur}")
    touches = d[tn] == top
    row_t = d[tn:tn + n]
    col_t = d[t::n]
    # row 0 of up(z): every finite lower bound turns strict
    up0 = [e if e is INF else e & -2 for e in d[:n]]
    out = []
    for lo, hi in ((-2 * prev, 2 * cur), (1 - 2 * cur, top)):
        rows = list(d)
        for j in range(1, n):
            e = up0[j]
            x = row_t[j]
            if x is not INF:
                x = lo + x - ((lo | x) & 1)
                if x < e:
                    e = x
            rows[j] = e
        r = rows[t]  # the only way back to 0 is column t, so test 0 -> t -> 0
        if r + hi - ((r | hi) & 1) < 1:
            out.append(Zone(z.clocks, None))
            continue
        for i in range(1, n):
            x = col_t[i]
            rows[i * n] = x if x is INF else x + hi - ((x | hi) & 1)
        if touches:
            for i in range(1, n):
                a = rows[i * n]
                if a is INF:
                    continue
                base = i * n
                for j in range(1, n):
                    b = rows[j]
                    if b is not INF:
                        cand = a + b - ((a | b) & 1)
                        if cand < rows[base + j]:
                            rows[base + j] = cand
        out.append(Zone(z.clocks, tuple(rows)))
    return tuple(out)


def free(z: Zone, indices: Sequence[int]) -> Zone:
    """Forget the given clocks, keeping only c >= 0 on each: the
    projection of z onto the other clocks, extended by the freed ones.
    Canonical form is preserved."""
    d = z.dbm
    if d is None or not indices:
        return z
    rows = list(d)
    n = len(z.clocks) + 1
    for c in indices:
        cn = c * n
        for j in range(n):
            rows[cn + j] = INF
            rows[j * n + c] = rows[j * n]
        rows[cn + c] = 1
    return Zone(z.clocks, tuple(rows))


def project_match(z: Zone, t_idx: int, tp_idx: int) -> Zone:
    """Project onto the match coordinates (t, t') = (T - T', T).

    `t_idx` and `tp_idx` are the 1-based matrix indices of the absolute
    clock T and the match-start clock T'.  Selecting differences of
    canonical entries yields a canonical 3x3 matrix directly.
    """
    d = z.dbm
    if d is None:
        return Zone(("t", "t'"), None)
    n = len(z.clocks) + 1
    t, tp = t_idx * n, tp_idx * n
    rows = (
        1, d[tp + t_idx], d[t_idx],
        d[t + tp_idx], 1, d[tp_idx],
        d[t], d[tp], 1,
    )
    return Zone(("t", "t'"), rows)


def contains(z: Zone, values: Sequence, den: int = 1) -> bool:
    """Membership of the valuation (aligned with z.clocks) in the zone
    whose bounds are numerators over the positive int `den`."""
    d = z.dbm
    if d is None:
        return False
    point = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    # with q the lcm of the point's denominators and x_k its coordinates
    # times q * den, c_i - c_j meets the bound (v, strict) over den iff
    # x_i - x_j < v*q, or equals it and the bound is weak: iff
    # 2(x_i - x_j) < the bound's encoding over q * den
    q = math.lcm(*(v.denominator for v in point))
    xs = [0, *(2 * v.numerator * (q // v.denominator) * den for v in point)]
    n = len(xs)
    for i, xi in enumerate(xs):
        base = i * n
        for j, xj in enumerate(xs):
            e = d[base + j]
            if e is INF:
                continue
            if q != 1:
                e = (e & -2) * q + (e & 1)
            if xi - xj >= e:
                return False
    return True


def scale(z: Zone, k: int) -> Zone:
    """Multiply all finite bounds by the positive int k; stays canonical."""
    d = z.dbm
    if d is None:
        return z
    return Zone(z.clocks, tuple(e if e is INF else (e & -2) * k + (e & 1) for e in d))
