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

Every bound is an integer: the engine rescales time, segment by segment,
until every boundary so far and every guard constant is one.  So
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

The engine's per-state operations skip even that.  Waiting up to a
boundary cur of the time clock yields the band below cur and the wall
at cur; it requires the time clock to lie below cur (else ValueError).
Then every bound it adds passes through row 0 and column 0, which it
fills for both outputs in one pass over each, from the time clock's
row and column, where `up` and two `clamp_time` calls take four
`constrain` passes.  A move fires with one `constrain` per guard bound
and then one gather: resetting clocks and freeing them (forgetting all
but c >= 0) only copy rows and columns, so any mix of both is one index
map over the zone (`gather`), which `reset` applies too.

Since n and every index in those steps are fixed once per automaton,
both are compiled into straight-line kernels of fixed-index int
arithmetic: `elapse_kernel(n, t, dead)` unrolls the wait and frees
the clocks `dead` as `gather` would, and `fire_kernel(n, positions,
indices)` unrolls a move's guard tightenings, at the (i, j) positions
its bounds take, and its gather into one tuple display.
`floor_kernel(vecs)` unrolls the engine's test of a zone's clock floors
against caps, one row-0 comparison per capped clock.  The bounds
themselves are arguments of the factory a fire or floor kernel is, so
a rescale closes over new ones and compiles nothing.  Kernels are
cached process-wide on those ints alone (n, t, dead clocks, index
pairs, gather indices, capped clocks): automata of one shape share
them, and no spec text enters generated source.  A kernel takes a
nonempty canonical zone and skips what that makes known: row 0 and the
diagonal are finite, and a tightening leaves its bound's row j and
column i as they are.  `constrain` stays the generic operation.
"""

from __future__ import annotations

import functools
from math import isqrt
from operator import index
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
    """Reset the clocks `resets` of n x n zones, then free `dead`, as one index map.

    Returns the n*n indices `idx` with entry k of the result
    `(z + (INF,))[idx[k]]`.  Resetting a clock copies row 0 and column
    0 into its row and column; freeing one fills its row with INF, read
    at index n*n, and copies column 0 into its column.  So each entry
    of the result is one entry of z, or INF.  Every diagonal entry reads
    z[0], which is 1 in every nonempty canonical zone.
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
    return tuple(idx)


def reset(z, indices: Iterable[int]):
    """Set the given clocks to 0; canonical form is preserved."""
    indices = tuple(indices)
    if z is None or not indices:
        return z
    return tuple([z[k] for k in gather(isqrt(len(z)), indices)])


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


def _compile(lines: list, name: str):
    """Define the function `name` from generated source lines, built
    from ints alone.  Its one global is `INF`, bound to this module's
    sentinel itself, since entries are told apart by `is INF`: an equal
    fresh infinity would pass every equality check and still break
    `scale` and `decode`."""
    namespace = {"INF": INF}
    exec(compile("\n".join(lines) + "\n", f"<zone.{name}>", "exec"), namespace)
    return namespace[name]


def _finite(n: int, k: int) -> bool:
    """Entry k of every nonempty canonical n x n zone is finite: row 0
    bounds -c_j, and clocks are nonnegative; the diagonal is 1."""
    return k < n or k % (n + 1) == 0


@functools.lru_cache(maxsize=256)
def elapse_kernel(n: int, t: int, dead: tuple):
    """The wait from an n x n zone up to a boundary cur of the time
    clock c_t, unrolled, freeing the clocks `dead` (indices other than
    0 and t): a function `elapse(z, cur)` of a nonempty canonical z with
    c_t < cur (else ValueError), returning (band, wall), `up(z)`
    restricted to c_t < cur and to c_t = cur, i.e.
    `clamp_time(up(z), t, 0, cur, True, True)` and
    `clamp_time(up(z), t, cur, cur)`, each with `dead` freed as
    `gather(n, (), dead)` frees them.  Both are nonempty, since every
    point of z lies below cur and waits up to it.  A z with prev <= c_t
    waits into (prev, cur] this way, as `up` alone keeps c_t > prev.

    The bounds the clamps add, c_t - 0 and 0 - c_t, both meet row 0 and
    column 0, so every path they shorten runs through there: both
    outputs are z with row 0 rewritten from row t and column 0 from
    column t, O(n) bound additions.  Since no point of z reaches cur,
    the strict wait loses none, and no difference bound changes; nor
    does the band's row 0, whose lower bounds only turn strict.  Row t
    is finite, as c_t < cur and row 0 bounds it.  Freeing a dead clock
    d then only fills its row with INF and copies the output's own
    column 0 into its column, with c_d >= 0 in row 0, so the wait's
    entries (0, d) and (d, 0) are never computed.  With `dead` empty
    this is the plain wait.
    """
    a = [f"a{k}" for k in range(n * n)]
    tn = t * n
    band, wall = a[:], a[:]
    lines = [
        "def elapse(z, cur):",
        f"    {', '.join(a)}, = z",
        "    c2 = 2 * cur  # c_t < cur, and also the strict bound c_t - 0 < cur",
        f"    if {a[tn]} > c2:",
        f"        raise ValueError(f'clock {t} may reach the boundary {{cur}}')",
    ]
    # row 0: a lower bound turns strict on waiting; the wall's then
    # meets 0 - c_t <= -cur through row t
    for j in range(1, n):
        if j in dead:
            continue
        band[j], wall[j] = f"b{j}", f"w{j}"
        lines += [
            f"    b{j} = {a[j]} & -2",
            f"    lo = {a[tn + j]} - c2",
            f"    w{j} = lo if lo < b{j} else b{j}",
        ]
    # column 0: c_i - 0 through column t, with c_t - 0 < cur (band) or
    # <= cur (wall)
    for i in range(n, n * n, n):
        if i // n in dead:
            continue
        band[i], wall[i] = f"b{i}", f"w{i}"
        x = a[i + t]
        if _finite(n, i + t):
            lines += [f"    b{i} = ({x} & -2) + c2", f"    w{i} = {x} + c2"]
        else:
            lines += [
                f"    if {x} is INF:",
                f"        b{i} = w{i} = INF",
                "    else:",
                f"        b{i} = ({x} & -2) + c2",
                f"        w{i} = {x} + c2",
            ]
    # off the diagonal, a dead clock's row reads INF, and its column the
    # output's own column 0, with c_d >= 0 in row 0
    for out in (band, wall):
        for k in range(n * n):
            i, j = divmod(k, n)
            if i != j and i in dead:
                out[k] = "INF"
            elif i != j and j in dead:
                out[k] = "1" if i == 0 else out[i * n]
    lines.append(f"    return ({', '.join(band)}), ({', '.join(wall)})")
    return _compile(lines, "elapse")


def _tighten(n: int, i: int, j: int, b: str) -> list:
    """Source lines of `constrain(z, i, j, b)` on the locals a0, a1, ...
    of a nonempty canonical z, unrolled; they return None on emptiness.

    Row j and column i keep their values, since the bound closes no
    negative cycle, and so does the diagonal: those entries are neither
    written nor tested, and the rest are updated in place."""
    a = [f"a{k}" for k in range(n * n)]
    ij, ji = i * n + j, j * n + i
    guard = "" if _finite(n, ji) else "x is not INF and "
    lines = [
        f"if {a[ij]} > {b}:",
        f"    x = {a[ji]}",
        f"    if {guard}{b} + x - (({b} | x) & 1) < 1:",
        "        return None",
    ]
    for p in range(n):
        if p == j:
            continue
        pi = p * n + i
        if p == i:  # the diagonal entry is 1, so the head is b itself
            lines.append(f"    h = {b}")
            pad = "    "
        elif _finite(n, pi):
            lines.append(f"    h = {a[pi]} + {b} - (({a[pi]} | {b}) & 1)")
            pad = "    "
        else:
            lines += [
                f"    h = {a[pi]}",
                "    if h is not INF:",
                f"        h = h + {b} - ((h | {b}) & 1)",
            ]
            pad = "        "
        for k in range(n):
            if k in (i, p):
                continue
            y, pk = a[j * n + k], a[p * n + k]
            if k == j:  # h plus the diagonal entry 1 is h
                lines.append(f"{pad}if h < {pk}: {pk} = h")
            elif _finite(n, j * n + k):
                lines += [f"{pad}c = h + {y} - ((h | {y}) & 1)",
                          f"{pad}if c < {pk}: {pk} = c"]
            else:
                lines += [f"{pad}if {y} is not INF:",
                          f"{pad}    c = h + {y} - ((h | {y}) & 1)",
                          f"{pad}    if c < {pk}: {pk} = c"]
    return lines


@functools.lru_cache(maxsize=256)
def fire_kernel(n: int, bounds: tuple, indices: tuple):
    """A move's firing on n x n zones, unrolled: returns a factory that
    takes one encoded bound per (i, j) pair of `bounds` and returns
    `fire(z)`, the nonempty canonical z constrained by each bound in
    turn (`constrain`), then gathered by `indices` (`gather`); None
    when a bound empties it.  A later bound reads the zone an earlier
    one tightened.  The factory builds a closure and compiles nothing,
    so a move rescales at the cost of a call.
    """
    params = [f"b{m}" for m in range(len(bounds))]
    a = [f"a{k}" for k in range(n * n)] + ["INF"]  # index n*n reads INF
    lines = [f"def factory({', '.join(params)}):", "    def fire(z):",
             f"        {', '.join(a[:-1])}, = z"]
    for (i, j), b in zip(bounds, params):
        lines += ["        " + line for line in _tighten(n, i, j, b)]
    lines += [f"        return ({', '.join(a[k] for k in indices)},)", "    return fire"]
    return _compile(lines, "factory")


@functools.lru_cache(maxsize=256)
def floor_kernel(vecs: tuple):
    """A test of a zone's clock floors, unrolled: `vecs` holds nonempty
    tuples of clock indices, and the returned factory takes one encoded
    bound per index, in that order, and returns `under(z)`, true when
    for some tuple every row-0 entry z[i] is at least its bound.  Row 0
    bounds -c_i, so z[i] >= 2 * -k says the floor of c_i is at most k.
    Like `fire_kernel`'s, the factory compiles nothing.
    """
    params = [f"b{m}" for m in range(sum(map(len, vecs)))]
    bounds = iter(params)
    test = " or ".join(" and ".join(f"z[{i}] >= {next(bounds)}" for i in vec) for vec in vecs)
    lines = [f"def factory({', '.join(params)}):", "    def under(z):",
             f"        return {test}", "    return under"]
    return _compile(lines, "factory")


def project_match(z, t_idx: int, tp_idx: int):
    """Project onto the match coordinates (t, t') = (T - T', T).

    `t_idx` and `tp_idx` are the 1-based matrix indices of the absolute
    clock T and the match-start clock T'.  Selecting differences of
    canonical entries yields a canonical 3x3 matrix directly.  The
    matcher selects them with one gather over `match_indices`.
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


def match_indices(n: int, t_idx: int, tp_idx: int) -> tuple:
    """`project_match` of n x n zones as one index map: entry k of the
    projection is z[idx[k]].  Each diagonal entry reads z[0], which is 1
    in every nonempty canonical zone, so an `operator.itemgetter` over
    these indices equals `project_match` on any such zone."""
    t, tp = t_idx * n, tp_idx * n
    return (0, tp + t_idx, t_idx, t + tp_idx, 0, tp_idx, t, tp, 0)


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
