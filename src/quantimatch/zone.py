"""Difference-bound matrices as flat tuples of ints, one int per bound.

A zone is the set of nonnegative clock valuations satisfying a
conjunction of constraints `c_i - c_j < d` or `<= d`.  Index 0 is the
constant-zero reference, so the bound on `c_i - c_j` caps clock i from
above when j = 0 and from below when i = 0.

A zone is its matrix, row-major as a flat tuple of n*n entries, n the
number of clocks plus one (`isqrt(len(z))`): entry `i*n + j` bounds
`c_i - c_j`.  A bound `(v, strict)` is the single int `2v` when strict
and `2v + 1` when weak, the encoding of the UPPAAL DBM library
(Bengtsson & Yi, "Timed Automata: Semantics, Algorithms and Tools",
LNCS 3098, 2004).  The absent bound is the one sentinel `INF`, a float
infinity above every int, told apart by identity (`e is INF`).  On
finite entries bound addition is `a + b - ((a | b) & 1)` and "tighter
than" is plain `<`; `(0, weak)` is 1.  The empty zone is `None`.
Clock names stay with the caller; `point_zone` reads only how many
there are.

Every bound is an integer: the engine rescales time until every segment
boundary and guard constant is one (`engine.time_scale`).  So
`point_zone` takes an int constant, `constrain` an encoded bound and
`scale` a positive int; `guard_bound` encodes a guard atom once, for
`constrain` to take as it is.  A match-set row keeps the time scale
its zone was computed at beside it (`matchset.MatchPiece.den`).  A
point is int numerators over one positive int denominator:
`contains(z, (x_1, ..., x_m), d)` tests the clock values x_k / d in
units of z's bounds, with int arithmetic alone, so a caller converts a
rational point once and tests it against many zones.  `contains` is the
general n-clock kernel; `matchset.MatchSet.query`'s row test specialises
it to 3x3 regions, unrolled over their six off-diagonal entries.

`matrix(z)` decodes a zone into rows of `(value, strict)` pairs (value
an int, or `INF`) for readers outside the kernel; no operation here
uses it.

Zones are canonical (all-pairs tightened), so structural equality, which
is tuple equality, coincides with set equality.  Every public operation
maps `None` to `None` and otherwise returns a canonical zone, by O(n^2)
incremental tightening at most, never a full Floyd-Warshall pass.

The engine's per-state operations skip even that.  `elapse` waits
into a segment (prev, cur] of the time clock and returns the open band
and the wall at cur; it requires the time clock to lie below cur (else
ValueError).  Then every bound it adds passes through row 0 and column
0, which it fills for both outputs in one pass over each, from the
time clock's row and column, where `up` and two `clamp_time` calls
take four `constrain` passes.  A move fires with one `constrain` per
guard bound and then one gather: resetting clocks and freeing them
(forgetting all but c >= 0) only copy rows and columns, so any mix of
both is one index map over the zone (`gather`), which `reset`
applies too.
"""

from __future__ import annotations

from math import isqrt
from operator import index, itemgetter
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


def matrix(z):
    """The zone as rows of decoded (value, strict) pairs, or None."""
    if z is None:
        return None
    n = isqrt(len(z))
    pairs = [decode(e) for e in z]
    return tuple(tuple(pairs[i * n:(i + 1) * n]) for i in range(n))


def point_zone(clocks: Sequence[str], value: int = 0):
    """The single valuation with every clock equal to the int `value`."""
    n = len(clocks) + 1
    rows = [1] * (n * n)
    for i in range(1, n):
        rows[i * n] = 2 * value + 1
        rows[i] = 1 - 2 * value
    return tuple(rows)


def constrain(z, i: int, j: int, b):
    """Intersect with the encoded bound b on c_i - c_j; O(n^2)
    incremental tightening."""
    if z is None:
        return z
    n = isqrt(len(z))
    if z[i * n + j] <= b:
        return z
    ji = z[j * n + i]
    if ji is not INF and b + ji - ((b | ji) & 1) < 1:
        return None
    rows = list(z)
    row_j = z[j * n:j * n + n]
    for p in range(n):
        pi = z[p * n + i]
        if pi is INF:
            continue
        head = pi + b - ((pi | b) & 1)
        base = p * n
        for k, x in enumerate(row_j, base):
            if x is not INF:
                cand = head + x - ((head | x) & 1)
                if cand < rows[k]:
                    rows[k] = cand
    return tuple(rows)


def guard_bound(i: int, op: str, k: int) -> tuple:
    """The guard atom `c_i op k`, k an int, as (i, j, b) for `constrain`."""
    if op == "<":
        return (i, 0, 2 * k)
    if op == "<=":
        return (i, 0, 2 * k + 1)
    if op == ">":
        return (0, i, -2 * k)
    if op == ">=":
        return (0, i, 1 - 2 * k)
    raise ValueError(f"unknown comparison {op!r}")


def intersect_guard(z, atoms: Iterable[tuple]):
    """Intersect with a conjunction of (clock_index, op, constant) atoms."""
    for atom in atoms:
        z = constrain(z, *guard_bound(*atom))
    return z


def gather(n: int, resets: Iterable[int] = (), dead: Iterable[int] = ()) -> tuple:
    """Reset the clocks `resets` of n x n zones, then free `dead`, as one index gather.

    Returns (get, pad) with the result `get(z + pad)`.  Resetting a
    clock copies row 0 and column 0 into its row and column; freeing
    one fills its row with INF, read at index n*n of the padded z, and
    copies column 0 into its column.  So each entry of the result is
    one entry of z, or INF, and `pad` is `(INF,)` only when a clock is
    freed.  Every diagonal entry reads z[0], which is 1 in every
    nonempty canonical zone.
    """
    resets = set(resets)
    dead = set(dead)
    at = [0 if c in resets else c for c in range(n)]  # row and column read after the resets
    idx = []
    for i in range(n):
        for j in range(n):
            if i == j:
                idx.append(0)
            elif i in dead:
                idx.append(n * n)
            elif j in dead:
                idx.append(at[i] * n)
            else:
                idx.append(at[i] * n + at[j])
    return itemgetter(*idx), ((INF,) if dead else ())


def reset(z, indices: Iterable[int]):
    """Set the given clocks to 0; canonical form is preserved."""
    indices = tuple(indices)
    if z is None or not indices:
        return z
    get, _ = gather(isqrt(len(z)), indices)
    return get(z)


def up(z):
    """Strict time elapse: {nu + tau | nu in z, tau > 0}.

    Upper bounds vanish and every finite lower bound turns strict;
    difference bounds are unaffected.  The result is canonical, so no
    tightening pass is needed.
    """
    if z is None:
        return z
    rows = list(z)
    n = isqrt(len(z))
    for i in range(1, n):
        rows[i * n] = INF
        lo = rows[i]
        if lo is not INF:
            rows[i] = lo & -2
    return tuple(rows)


def clamp_time(z, i: int, lo, hi, left_strict: bool = False, right_strict: bool = False):
    """Intersect with lo <(=) c_i <(=) hi; punctual windows use lo == hi."""
    z = constrain(z, 0, i, encode(-lo, left_strict))
    return constrain(z, i, 0, encode(hi, right_strict))


def elapse(z, t: int, prev: int, cur: int) -> tuple:
    """Wait from z into a segment (prev, cur] of the time clock c_t.

    Returns (band, wall): `up(z)` restricted to prev < c_t < cur and to
    c_t = cur, i.e. `clamp_time(up(z), t, prev, cur, True, True)` and
    `clamp_time(up(z), t, cur, cur)`.  Precondition: c_t < cur on z,
    else ValueError.  The bounds the clamps add, c_t - 0 and 0 - c_t,
    both meet row 0 and column 0, so every path they shorten runs
    through there: both outputs are z with row 0 rewritten from row t
    and column 0 from column t, filled together in one pass over each,
    O(n) bound additions.  Since no point of z reaches cur, the strict
    wait loses none, and no difference bound changes.
    """
    if z is None:
        return z, z
    n = isqrt(len(z))
    tn = t * n
    c2 = 2 * cur  # c_t < cur, and also the strict bound c_t - 0 < cur
    if z[tn] > c2:
        raise ValueError(f"clock {t} may reach the boundary {cur}")
    p2 = 2 * prev
    band = list(z)
    wall = list(z)
    # row 0: a lower bound turns strict on waiting (clocks are
    # nonnegative, so row 0 is finite), then meets 0 - c_t < -prev
    # (band) or <= -cur (wall) through row t
    for j in range(1, n):
        e = z[j] & -2
        x = z[tn + j]
        if x is INF:
            band[j] = wall[j] = e
        else:
            lo = (x & -2) - p2
            band[j] = lo if lo < e else e
            lo = x - c2
            wall[j] = lo if lo < e else e
    # column 0: c_i - 0 through column t, with c_t - 0 < cur (band) or
    # <= cur (wall)
    for i in range(n, n * n, n):
        x = z[i + t]
        if x is INF:
            band[i] = wall[i] = INF
        else:
            band[i] = (x & -2) + c2
            wall[i] = x + c2
    # the only way back to 0 is column t, so test 0 -> t -> 0: row 0's
    # entry at t is even in the band and odd in the wall, so adding
    # the bound c_t - 0 (2cur, or 2cur + 1) is adding 2cur either way
    return (
        None if band[t] + c2 < 1 else tuple(band),
        None if wall[t] + c2 < 1 else tuple(wall),
    )


def project_match(z, t_idx: int, tp_idx: int):
    """Project onto the match coordinates (t, t') = (T - T', T).

    `t_idx` and `tp_idx` are the 1-based matrix indices of the absolute
    clock T and the match-start clock T'.  Selecting differences of
    canonical entries yields a canonical 3x3 matrix directly.
    """
    if z is None:
        return z
    n = isqrt(len(z))
    t, tp = t_idx * n, tp_idx * n
    return (
        1, z[tp + t_idx], z[t_idx],
        z[t + tp_idx], 1, z[tp_idx],
        z[t], z[tp], 1,
    )


def contains(z, numerators: Sequence[int], den: int = 1) -> bool:
    """Membership in z of the point whose clocks, in order, are
    `numerators[k] / den` in units of z's bounds.  The numerators and
    the positive `den` are ints; any other type raises TypeError."""
    den = index(den)
    xs = [0, *map(index, numerators)]
    if z is None:
        return False
    # c_i - c_j meets the bound (v, strict) iff x_i - x_j < v*den, or
    # equals it and the bound is weak: iff 2(x_i - x_j) < 2v*den + weak,
    # the bound's encoding over den
    k = 0
    for xi in xs:
        for xj in xs:
            e = z[k]
            k += 1
            if e is not INF and 2 * (xi - xj) >= (e & -2) * den + (e & 1):
                return False
    return True


def scale(z, k: int):
    """Multiply all finite bounds by the positive int k; stays canonical."""
    if z is None:
        return z
    return tuple(e if e is INF else (e & -2) * k + (e & 1) for e in z)
