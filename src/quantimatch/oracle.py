"""Reference implementations used to cross-check the engine.

Everything here favors directness over speed: path sums by explicit
unrolling, the whole-trace transition system (`reachable_graph`) built
in one pass over all segment boundaries instead of folded segment by
segment, matching decided by enumerating transition sequences and
firing-time placements, feasibility by Fourier-Motzkin elimination
over exact rationals.  Intended for small inputs in tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import engine
from . import zone as zn
from .automaton import Automaton, EvaluationError, WeightedAutomaton, cost_value
from .semiring import INF, Semiring
from .signals import EMPTY_SEQ, Signal, absorbing_concat, value_of


BF_MAX_EDGES = 64  # the longest path bf_shortest_distance sums


def bf_shortest_distance(nodes, edges, sources, semiring: Semiring) -> dict:
    """Sum the weights of every path of at most BF_MAX_EDGES edges."""
    sr = semiring
    total = {v: sources.get(v, sr.zero) for v in nodes}
    layer = dict(sources)
    for _ in range(BF_MAX_EDGES):
        nxt: dict = {}
        for u, v, w in edges:
            du = layer.get(u, sr.zero)
            if du == sr.zero or w == sr.zero:
                continue
            contrib = sr.otimes(du, w)
            nxt[v] = sr.oplus(nxt[v], contrib) if v in nxt else contrib
        if not nxt:
            break
        layer = nxt
        for v, w in layer.items():
            total[v] = sr.oplus(total[v], w)
    return {v: w for v, w in total.items() if w != sr.zero}


def symbolic_successors(ctx: engine.EngineContext, state: tuple, bounds, vals):
    """Moves of one state relative to the scaled segment boundaries.

    Returns (successor, weight, kind) triples with kind "fire" or
    "elapse".  A state pinned at a boundary waits into the following
    segment; an unpinned state waits within its own segment only while
    its sequence is still empty (later waits from the same origin are
    subsumed by longer direct ones); any state with a nonempty sequence
    may fire.
    """
    sr = ctx.semiring
    t = ctx.t_index
    loc, z, seq = state
    moves = []
    if seq:
        w = cost_value(ctx.kind, ctx.labels[loc], seq)
        if w != sr.zero:
            idx = {c: i for i, c in enumerate(ctx.clock_names, 1)}
            for tr in ctx.automaton.transitions:
                if tr.source != loc:
                    continue
                guard = [(idx[at.var], at.op, int(at.const) * ctx.scale) for at in tr.guard]
                z2 = zn.intersect_guard(z, guard)
                if z2 is None:
                    continue
                succ = (tr.target, zn.reset(z2, [idx[c] for c in tr.resets]), EMPTY_SEQ)
                moves.append((succ, w, "fire"))
    m = zn.matrix(z)
    hi = m[t][0]
    lo = m[0][t]
    if not hi[1] and not lo[1] and hi[0] == -lo[0]:
        k = bisect_left(bounds, hi[0])
    elif not seq:
        k = bisect_right(bounds, -lo[0]) - 1
    else:
        k = None
    if k is not None and k < len(vals):
        zu = zn.up(z)
        seq2 = absorbing_concat(seq, (vals[k],))
        band = zn.clamp_time(zu, t, bounds[k], bounds[k + 1], True, True)
        if band is not None:
            moves.append(((loc, band, seq2), sr.one, "elapse"))
        wall = zn.clamp_time(zu, t, bounds[k + 1], bounds[k + 1])
        if wall is not None:
            moves.append(((loc, wall, seq2), sr.one, "elapse"))
    return moves


def time_scale(sig: Signal) -> int:
    """Smallest integer multiplier that makes every boundary integral."""
    return math.lcm(*(b.denominator for b in sig.boundaries))


@dataclass
class ReachableGraph:
    nodes: dict  # state -> aggregated weight of paths from the initial states
    edges: list  # (source, target, weight, kind)
    initial: tuple
    accepting: tuple
    scale: int
    clock_names: tuple


def reachable_graph(sig: Signal, wa: WeightedAutomaton) -> ReachableGraph:
    """The whole-trace transition system, for inspection and checking.

    Time is scaled once (`time_scale`) and nothing is pruned, so state
    count grows quickly with trace length: this is meant for small
    inputs, while `trace_value` folds segment by segment.
    """
    if len(sig) == 0:
        raise EvaluationError("empty signal")
    ctx = engine.EngineContext(wa, time_scale(sig))
    sr = ctx.semiring
    bounds = [int(b * ctx.scale) for b in sig.boundaries]
    vals = [s.values for s in sig.segments]
    z0 = zn.point_zone(ctx.clock_names, 0)
    initial = tuple((l.name, z0, EMPTY_SEQ) for l in ctx.automaton.initial_locations)

    seen = set(initial)
    stack = list(initial)
    edges = []
    while stack:
        state = stack.pop()
        for succ, w, kind in symbolic_successors(ctx, state, bounds, vals):
            edges.append((state, succ, w, kind))
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)

    sources = {state: sr.one for state in initial}
    dist = engine.shortest_distance(seen, [(u, v, w) for u, v, w, _ in edges], sources, sr)
    # the states fired into an accepting location with T = end exactly
    end, t = bounds[-1], ctx.t_index
    accepting = tuple(
        (loc, z, seq) for loc, z, seq in seen
        if seq == EMPTY_SEQ and loc in ctx.accepting
        and (m := zn.matrix(z))[t][0] == (end, False) and m[0][t] == (-end, False)
    )
    nodes = {state: dist.get(state, sr.zero) for state in seen}
    return ReachableGraph(nodes, edges, initial, accepting, ctx.scale, ctx.clock_names)


def check_incremental(sig: Signal, wa: WeightedAutomaton):
    """Fold-by-segments value and whole-graph value; these must agree."""
    g = reachable_graph(sig, wa)
    whole = wa.semiring.big_oplus(g.nodes[s] for s in g.accepting)
    return engine.trace_value(sig, wa), whole


def arrangement_points(sig: Signal, matchset) -> list:
    """Segment boundaries, region endpoints, and midpoints in between."""
    coords = set(sig.boundaries)
    for piece in matchset.pieces():
        m = zn.matrix(piece.region)
        for i in (1, 2):
            if m[i][0][0] != INF:
                coords.add(Fraction(m[i][0][0], piece.den))
            if m[0][i][0] != INF:
                coords.add(Fraction(-m[0][i][0], piece.den))
    pts = sorted(c for c in coords if 0 <= c <= sig.duration)
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return sorted(set(pts) | set(mids))


def check_qtpm_pointwise(sig: Signal, wa: WeightedAutomaton) -> list:
    """Match-set queries versus direct evaluation of each restriction.

    Samples the cross product of the arrangement points and returns
    the mismatches as (t, t', queried, recomputed) tuples; an empty
    list means the check passed.
    """
    matcher = engine.OnlineMatcher(wa)
    for seg in sig:
        matcher.feed(seg)
    ms = matcher.matchset
    pts = arrangement_points(sig, ms)
    bad = []
    for t in pts:
        for tp in pts:
            if not 0 <= t < tp <= sig.duration:
                continue
            got = ms.query(t, tp)
            want = engine.trace_value(sig.restrict(t, tp), wa)
            if got != want:
                bad.append((t, tp, got, want))
    return bad


def _simple_paths(a: Automaton) -> list:
    """Transition sequences from an initial to an accepting location,
    never reusing a transition."""
    out: dict = {}
    for tr in a.transitions:
        out.setdefault(tr.source, []).append(tr)
    paths: list = []

    def walk(loc, used, acc):
        if acc and a.location(loc).accepting:
            paths.append(tuple(acc))
        for tr in out.get(loc, ()):
            if tr in used:
                continue
            walk(tr.target, used | {tr}, acc + [tr])

    for l in a.initial_locations:
        walk(l.name, frozenset(), [])
    return paths


def _sat(atom, vals) -> bool:
    v = value_of(vals, atom.var)
    d = atom.const
    if atom.op == "<":
        return v < d
    if atom.op == "<=":
        return v <= d
    if atom.op == ">":
        return v > d
    return v >= d


def _fm_feasible(ineqs: list, variables: list) -> bool:
    """Feasibility of strict/weak inequalities `sum coeff*x <= rhs`."""
    for v in variables:
        pos = [q for q in ineqs if q[0].get(v) == 1]
        neg = [q for q in ineqs if q[0].get(v) == -1]
        rest = [q for q in ineqs if v not in q[0]]
        for cp, bp, sp in pos:
            for cn, bn, sn in neg:
                coeffs: dict = {}
                for c in (cp, cn):
                    for var, co in c.items():
                        if var == v:
                            continue
                        coeffs[var] = coeffs.get(var, 0) + co
                rest.append(
                    ({var: co for var, co in coeffs.items() if co}, bp + bn, sp or sn)
                )
        ineqs = rest
    for coeffs, rhs, strict in ineqs:
        if not coeffs and (rhs < 0 or (rhs == 0 and strict)):
            return False
    return True


def accepts_subsignal(a: Automaton, sig: Signal, t, t_prime) -> bool:
    """Qualitative matching decided from first principles.

    A run fits the window [t, t') when some transition sequence fires
    at times t < th_1 < ... < th_k = t', every fired guard holds for
    the clocks (all zero at t), and each dwelt location's constraint
    holds on every signal segment the dwell overlaps.  Firing times
    are placed over the boundary arrangement of the window; every
    placement is checked with exact rational elimination.  Path
    enumeration assumes an acyclic transition graph.
    """
    t, tp = Fraction(t), Fraction(t_prime)
    if not 0 <= t < tp <= sig.duration:
        raise ValueError("window outside the signal domain")
    bounds = sig.boundaries
    segvals = [s.values for s in sig.segments]
    pts = [t] + [b for b in bounds if t < b < tp] + [tp]
    last = len(pts) - 1
    labels = {l.name: l.label for l in a.locations}

    def anchor_right(cell: int) -> int:
        # first signal segment a dwell starting in this cell overlaps
        return bisect_right(bounds, pts[cell // 2]) - 1

    def end_left(cell: int) -> int:
        # last signal segment a dwell ending in this cell overlaps
        if cell % 2 == 0:
            return bisect_left(bounds, pts[cell // 2]) - 1
        return bisect_right(bounds, pts[cell // 2]) - 1

    def labels_ok(path, cells) -> bool:
        prev = 0  # th_0 sits at t, the leftmost arrangement point
        for i, tr in enumerate(path):
            label = labels[tr.source]
            for m in range(anchor_right(prev), end_left(cells[i]) + 1):
                if not all(_sat(at, segvals[m]) for at in label):
                    return False
            prev = cells[i]
        return True

    def feasible(path, cells) -> bool:
        ineqs: list = []
        ok = True

        def term(i):
            # th_i as (coefficient dict, constant)
            if i == 0:
                return {}, t
            c = cells[i - 1]
            if c % 2 == 0:
                return {}, pts[c // 2]
            return {i: 1}, Fraction(0)

        def add_le(i, j, delta, strict):
            # th_i - th_j <= delta (or strictly below)
            nonlocal ok
            ci, ki = term(i)
            cj, kj = term(j)
            coeffs = dict(ci)
            for var, co in cj.items():
                coeffs[var] = coeffs.get(var, 0) - co
            coeffs = {v: c for v, c in coeffs.items() if c}
            rhs = delta - ki + kj
            if coeffs:
                ineqs.append((coeffs, rhs, strict))
            elif rhs < 0 or (rhs == 0 and strict):
                ok = False

        free = []
        for i, c in enumerate(cells, start=1):
            if c % 2 == 1:
                free.append(i)
                ineqs.append(({i: 1}, pts[c // 2 + 1], True))
                ineqs.append(({i: -1}, -pts[c // 2], True))
        for i in range(1, len(cells) + 1):
            add_le(i - 1, i, Fraction(0), True)  # strict firing order
        reset_at = {c: 0 for c in a.clocks}  # 0 stands for the window start
        for i, tr in enumerate(path, start=1):
            for at in tr.guard:
                j = reset_at[at.var]
                if at.op == "<":
                    add_le(i, j, at.const, True)
                elif at.op == "<=":
                    add_le(i, j, at.const, False)
                elif at.op == ">":
                    add_le(j, i, -at.const, True)
                else:
                    add_le(j, i, -at.const, False)
            for c in tr.resets:
                reset_at[c] = i
        return ok and _fm_feasible(ineqs, free)

    inner = range(1, 2 * last)
    for path in _simple_paths(a):
        k = len(path)
        for combo in combinations_with_replacement(inner, k - 1):
            if any(c % 2 == 0 and combo.count(c) > 1 for c in set(combo)):
                continue
            cells = combo + (2 * last,)
            if labels_ok(path, cells) and feasible(path, cells):
                return True
    return False
