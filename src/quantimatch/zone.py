"""Difference-bound matrices over a named clock list.

A zone is the set of nonnegative clock valuations satisfying a
conjunction of constraints `c_i - c_j < d` or `<= d`.  The matrix entry
`m[i][j]` is the bound on `c_i - c_j` as a `(value, strict)` pair;
index 0 is the constant-zero reference, so `m[i][0]` caps clock i from
above and `m[0][i]` from below.  `value` is an exact rational (or int)
with `float('inf')` for the absent bound.

Zone objects are immutable and always canonical (all-pairs tightened),
which makes structural equality coincide with set equality; the empty
zone carries `m = None`.  Every public operation returns a canonical
zone, mostly via O(n^2) incremental tightening rather than a full
Floyd-Warshall pass.
"""

from __future__ import annotations

from typing import Iterable, Sequence

INF = float("inf")

Bound = tuple  # (value, strict)

BOUND_INF: Bound = (INF, True)
BOUND_ZERO: Bound = (0, False)


def bound_add(a: Bound, b: Bound) -> Bound:
    if a[0] == INF or b[0] == INF:
        return BOUND_INF
    return (a[0] + b[0], a[1] or b[1])


def bound_lt(a: Bound, b: Bound) -> bool:
    """a strictly tighter than b."""
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def bound_le(a: Bound, b: Bound) -> bool:
    """a at least as tight as b."""
    return a[0] < b[0] or (a[0] == b[0] and (a[1] or not b[1]))


class Zone:
    """Canonical DBM; construct via the module-level factories."""

    __slots__ = ("clocks", "m", "_hash")

    def __init__(self, clocks: tuple[str, ...], m):
        self.clocks = clocks
        self.m = m
        self._hash = hash((clocks, m))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Zone)
            and self.clocks == other.clocks
            and self.m == other.m
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.m is None:
            return "Zone(empty)"
        parts = []
        for i, name in enumerate(self.clocks, 1):
            lo, los = self.m[0][i]
            hi, his = self.m[i][0]
            left = "(" if los else "["
            right = ")" if his else "]"
            parts.append(f"{name} in {left}{-lo},{hi}{right}")
        return f"Zone({', '.join(parts)})"


def _freeze(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def _full_canonicalize(clocks, rows) -> Zone:
    n = len(rows)
    for k in range(n):
        rk = rows[k]
        for i in range(n):
            ik = rows[i][k]
            if ik[0] == INF:
                continue
            ri = rows[i]
            for j in range(n):
                kj = rk[j]
                if kj[0] == INF:
                    continue
                cand = (ik[0] + kj[0], ik[1] or kj[1])
                if bound_lt(cand, ri[j]):
                    ri[j] = cand
    for i in range(n):
        if bound_lt(rows[i][i], BOUND_ZERO):
            return Zone(clocks, None)
        rows[i][i] = BOUND_ZERO
    return Zone(clocks, _freeze(rows))


def make(clocks: Sequence[str], constraints: Iterable[tuple] = ()) -> Zone:
    """Zone from constraints (i, j, value, strict) meaning c_i - c_j bound.

    Clocks default to the nonnegative orthant with no upper bounds.
    """
    clocks = tuple(clocks)
    n = len(clocks) + 1
    rows = [[BOUND_INF] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = BOUND_ZERO
        if i:
            rows[0][i] = BOUND_ZERO
    for i, j, value, strict in constraints:
        b = (value, strict)
        if bound_lt(b, rows[i][j]):
            rows[i][j] = b
    return _full_canonicalize(clocks, rows)


def canonicalize(z: Zone) -> Zone:
    """All-pairs tightening; public operations already return canonical zones."""
    if z.m is None:
        return z
    return _full_canonicalize(z.clocks, [list(r) for r in z.m])


def point_zone(clocks: Sequence[str], value=0) -> Zone:
    """The single valuation with every clock equal to `value`."""
    clocks = tuple(clocks)
    n = len(clocks) + 1
    rows = [[BOUND_ZERO] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][0] = (value, False)
        rows[0][i] = (-value, False)
    return Zone(clocks, _freeze(rows))


def constrain(z: Zone, i: int, j: int, value, strict: bool) -> Zone:
    """Intersect with c_i - c_j <(=) value; O(n^2) incremental tightening."""
    if z.m is None:
        return z
    b = (value, strict)
    m = z.m
    if bound_le(m[i][j], b):
        return z
    if bound_lt(bound_add(b, m[j][i]), BOUND_ZERO):
        return Zone(z.clocks, None)
    rows = [list(r) for r in m]
    for p in range(len(rows)):
        pi = m[p][i]
        if pi[0] == INF:
            continue
        head = bound_add(pi, b)
        rp = rows[p]
        mj = m[j]
        for q in range(len(rows)):
            cand = bound_add(head, mj[q])
            if bound_lt(cand, rp[q]):
                rp[q] = cand
    return Zone(z.clocks, _freeze(rows))


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
        if z.m is None:
            return z
    return z


def reset(z: Zone, indices: Iterable[int]) -> Zone:
    """Set the given clocks to 0; canonical form is preserved."""
    indices = tuple(indices)
    if z.m is None or not indices:
        return z
    rows = [list(r) for r in z.m]
    n = len(rows)
    for c in indices:
        for j in range(n):
            rows[c][j] = rows[0][j]
            rows[j][c] = rows[j][0]
        rows[c][c] = BOUND_ZERO
    return Zone(z.clocks, _freeze(rows))


def up(z: Zone) -> Zone:
    """Strict time elapse: {nu + tau | nu in z, tau > 0}.

    Upper bounds vanish and every finite lower bound turns strict;
    difference bounds are unaffected.  The result is canonical, so no
    tightening pass is needed.
    """
    if z.m is None:
        return z
    rows = [list(r) for r in z.m]
    for i in range(1, len(rows)):
        rows[i][0] = BOUND_INF
        lo = rows[0][i]
        if lo[0] != INF and not lo[1]:
            rows[0][i] = (lo[0], True)
    return Zone(z.clocks, _freeze(rows))


def clamp_time(z: Zone, i: int, lo, hi, left_strict: bool = False, right_strict: bool = False) -> Zone:
    """Intersect with lo <(=) c_i <(=) hi; punctual windows use lo == hi."""
    z = constrain(z, 0, i, -lo, left_strict)
    return constrain(z, i, 0, hi, right_strict)


def project_match(z: Zone, t_idx: int, tp_idx: int) -> Zone:
    """Project onto the match coordinates (t, t') = (T - T', T).

    `t_idx` and `tp_idx` are the 1-based matrix indices of the absolute
    clock T and the match-start clock T'.  Selecting differences of
    canonical entries yields a canonical 3x3 matrix directly.
    """
    if z.m is None:
        return Zone(("t", "t'"), None)
    m = z.m
    rows = (
        (BOUND_ZERO, m[tp_idx][t_idx], m[0][t_idx]),
        (m[t_idx][tp_idx], BOUND_ZERO, m[0][tp_idx]),
        (m[t_idx][0], m[tp_idx][0], BOUND_ZERO),
    )
    return Zone(("t", "t'"), rows)


def contains(z: Zone, values: Sequence) -> bool:
    """Membership of the valuation (aligned with z.clocks) in the zone."""
    if z.m is None:
        return False
    vals = (0, *values)
    n = len(vals)
    for i in range(n):
        for j in range(n):
            b, strict = z.m[i][j]
            if b == INF:
                continue
            d = vals[i] - vals[j]
            if d > b or (strict and d == b):
                return False
    return True


def scale(z: Zone, factor) -> Zone:
    """Multiply all finite bounds by a positive factor; stays canonical."""
    if z.m is None:
        return z
    rows = tuple(
        tuple(b if b[0] == INF else (b[0] * factor, b[1]) for b in r) for r in z.m
    )
    return Zone(z.clocks, rows)
