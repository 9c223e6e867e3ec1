"""Shared fixtures: reference automata, reference signals, random
instances, and zone constructors and references that the engine never
calls."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from quantimatch.automaton import (
    Atom,
    Automaton,
    CostKind,
    Location,
    Transition,
    WeightedAutomaton,
    parse_automaton,
)
from quantimatch.semiring import BOOLEAN, SUPINF, TROPICAL
from quantimatch.signals import EMPTY_SEQ, Signal, segment
from quantimatch.zone import INF, clamp_time, elapse_kernel, encode, gather, point_zone, up

# Two-step overshoot pattern: leave a low region quickly (c < 5), then
# reach the high region within the deadline (c < 10).
OVERSHOOT_SPEC = """
var x;
clock c;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c};
edge l1 -> l2 when c < 10;
"""
# the overshoot pattern with a back edge: every move graph is cyclic
CYCLIC_SPEC = OVERSHOOT_SPEC + "edge l1 -> l0 when c < 5 reset {c};\n"
# two clocks and a self-loop on l1, whose location bucket is cyclic
TWO_CLOCK_SPEC = """var x;
clock c, d;
location l0 init [x < 15];
location l1 [x > 5];
location l2 accept [true];
edge l0 -> l1 when c < 5 reset {c, d};
edge l1 -> l1 when d > 2 reset {d};
edge l1 -> l2 when c < 10 && d < 4;
"""
# a self-looping branch from which no path reaches acceptance
DEAD_BRANCH_SPEC = OVERSHOOT_SPEC + (
    "location l3 [x < 3];\n"
    "edge l0 -> l3 when c > 1;\n"
    "edge l3 -> l3 when c < 4 reset {c};\n"
)

PAIRINGS = (
    (BOOLEAN, CostKind.SAT),
    (SUPINF, CostKind.MIN_MARGIN),
    (TROPICAL, CostKind.SUM_MARGIN),
)


@pytest.fixture
def fig_automaton():
    return parse_automaton(OVERSHOOT_SPEC)


@pytest.fixture
def wa_boolean(fig_automaton):
    return WeightedAutomaton(fig_automaton, BOOLEAN, CostKind.SAT)


@pytest.fixture
def wa_supinf(fig_automaton):
    return WeightedAutomaton(fig_automaton, SUPINF, CostKind.MIN_MARGIN)


@pytest.fixture
def wa_tropical(fig_automaton):
    return WeightedAutomaton(fig_automaton, TROPICAL, CostKind.SUM_MARGIN)


@pytest.fixture
def two_step_signal():
    # {x=7}^3.5 {x=12}^3.5
    return Signal([segment({"x": 7.0}, Fraction(7, 2)), segment({"x": 12.0}, Fraction(7, 2))])


@pytest.fixture
def short_signal():
    # {x=10}^2.5 {x=40}^1 {x=60}^3
    return Signal(
        [
            segment({"x": 10.0}, Fraction(5, 2)),
            segment({"x": 40.0}, 1),
            segment({"x": 60.0}, 3),
        ]
    )


@pytest.fixture
def long_signal():
    # {x=10}^7.5 {x=40}^10 {x=60}^13
    return Signal(
        [
            segment({"x": 10.0}, Fraction(15, 2)),
            segment({"x": 40.0}, 10),
            segment({"x": 60.0}, 13),
        ]
    )


def random_signal(rng, max_segments=5, max_denominator=4, lo=-2, hi=14):
    """Piecewise-constant signal; adjacent values always differ."""
    count = rng.randint(1, max_segments)
    segs = []
    prev = None
    for _ in range(count):
        v = float(rng.randint(lo, hi))
        while v == prev:
            v = float(rng.randint(lo, hi))
        prev = v
        dur = Fraction(rng.randint(1, 10), rng.randint(1, max_denominator))
        segs.append(segment({"x": v}, dur))
    return Signal(segs)


def _random_atoms(rng, var, count, lo, hi):
    ops = ("<", "<=", ">", ">=")
    return tuple(
        Atom(var, rng.choice(ops), Fraction(rng.randint(lo, hi))) for _ in range(count)
    )


def random_automaton(rng, dag=False, max_locations=4, max_clocks=2, extra_edges=2, guard_lo=0):
    """Small one-variable automaton with integer guard constants from
    `guard_lo` to 8.

    `dag=True` keeps every edge strictly forward so each run uses a
    transition at most once (what the enumerating reference matcher
    assumes).
    """
    n = rng.randint(2, max_locations)
    clocks = ("c", "d", "e")[: rng.randint(1, max_clocks)]
    locations = []
    for i in range(n):
        locations.append(
            Location(
                name=f"l{i}",
                label=_random_atoms(rng, "x", rng.randint(0, 2), -2, 14),
                initial=(i == 0),
                accepting=(i == n - 1 or rng.random() < 0.2),
            )
        )
    edges = [(i, i + 1) for i in range(n - 1)]
    for _ in range(rng.randint(0, extra_edges)):
        if dag:
            i = rng.randint(0, n - 2)
            j = rng.randint(i + 1, n - 1)
        else:
            i = rng.randint(0, n - 1)
            j = rng.randint(0, n - 1)
        edges.append((i, j))
    transitions = []
    seen = set()
    for i, j in edges:
        key = (i, j, len(transitions)) if not dag else (i, j)
        if dag and key in seen:
            continue
        seen.add(key)
        guard = _random_atoms(rng, rng.choice(clocks), rng.randint(0, 2), guard_lo, 8)
        resets = tuple(c for c in clocks if rng.random() < 0.4)
        transitions.append(Transition(f"l{i}", guard, resets, f"l{j}"))
    return Automaton(("x",), clocks, tuple(locations), tuple(transitions))


def weighted_variants(a):
    """The automaton under all three cost/semiring pairings."""
    return [WeightedAutomaton(a, sr, kind) for sr, kind in PAIRINGS]


def flat(table):
    """A grouped weight table {location: {sequence: {zone: weight}}} as
    {(location, zone, sequence): weight}."""
    return {
        (loc, z, q): w
        for loc, groups in table.items()
        for q, zs in groups.items()
        for z, w in zs.items()
    }


def initial_weight(ctx):
    """The table a fold over `ctx` starts from: each initial location at
    time 0 with every clock 0, weighted one."""
    z0 = point_zone(ctx.clock_names, 0)
    return {l.name: {EMPTY_SEQ: {z0: ctx.semiring.one}} for l in ctx.automaton.initial_locations}


def add_bounds(a, b):
    """Bound addition on encoded entries, absorbing at INF; `constrain`
    inlines it."""
    if a is INF or b is INF:
        return INF
    return a + b - ((a | b) & 1)


def _full_canonicalize(rows: list):
    n = isqrt(len(rows))
    for k in range(n):
        rk = k * n
        for i in range(n):
            ik = rows[i * n + k]
            if ik is INF:
                continue
            ri = i * n
            for j in range(n):
                cand = add_bounds(ik, rows[rk + j])
                if cand < rows[ri + j]:
                    rows[ri + j] = cand
    for i in range(0, n * n, n + 1):
        if rows[i] < 1:
            return None
        rows[i] = 1
    return tuple(rows)


def make(clocks, constraints=()):
    """Zone from constraints (i, j, value, strict) meaning c_i - c_j bound.

    Values are integers (or INF, no bound); any other value raises
    ValueError.  Clocks default to the nonnegative orthant with no upper
    bounds.
    """
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
    return _full_canonicalize(rows)


def canonicalize(z):
    """All-pairs tightening (Floyd-Warshall): the canonical form that
    every zone operation must return."""
    if z is None:
        return z
    return _full_canonicalize(list(z))


def elapse(z, t, cur):
    """The wait from z up to cur of its time clock t, by the kernel
    `elapse_kernel` compiles for z's size, freeing no clock; an empty z
    waits into nothing."""
    if z is None:
        return z, z
    return elapse_kernel(isqrt(len(z)), t, ())(z, cur)


def elapse_by_clamps(z, t, prev, cur):
    """The wait from z into (prev, cur] of its time clock t by `up` and
    two `clamp_time` calls: the band prev < T < cur and the wall T = cur.
    The reference the wait kernel is checked against."""
    u = up(z)
    return clamp_time(u, t, prev, cur, True, True), clamp_time(u, t, cur, cur)


def free(z, indices):
    """Forget the given clocks, keeping only c >= 0 on each: the
    projection of z onto the other clocks, extended by the freed ones.
    The reference a move's gather is checked against."""
    if z is None or not indices:
        return z
    padded = z + (INF,)
    return tuple([padded[k] for k in gather(isqrt(len(z)), (), indices)])
