"""The online fold: weighted reachability over timed symbolic automata.

The engine advances a weight table across one signal segment at a
time.  A state is a location, a clock zone and the value sequence
recorded since its last transition; the table maps each to a semiring
value, grouped as {location: {value sequence: {zone: value}}}, so each
sequence is stored, extended and costed once per group, and a state
costs one zone-keyed dict operation.  Time is rescaled so that every
segment boundary is an integer; zone bounds then stay integral, keeping
zone identity exact under hashing.

Per segment the table unfolds into a finite move graph.  The states
that wait are the entries and the states transitions fire into; each
waits once, into the open band between the previous and the current
boundary and onto the boundary itself, and each state it waits into
fires at once, since its recorded value sequence is nonempty.  Waiting
is strictly positive, so a fired state can never refire at the same
instant; one fired at the boundary is carried and waits in the next
segment.  `zone.elapse` gives both waiting targets at once: a waiting
state's time clock lies below the current boundary, so each target
differs from its source only in its absolute bounds (row 0 and column
0), which elapse rewrites in one O(n) pass over each.

Whether a state can still reach acceptance is decided once per
automaton.  Waiting and resets never lower a clock's floor again, so
an upper guard atom that a floor exceeds stays violated; lower atoms
count as always satisfiable.  `EngineContext.caps` maps each location
to the maximal vectors of caps on the guarded clocks' floors under
which some path of one or more transitions reaches acceptance, like
the per-location bounds of Behrmann, Bouyer, Larsen & Pelánek
("Lower and Upper Bounds in Zone Based Abstractions of Timed
Automata", TACAS 2004).  A state waits only at a location that has a
cap vector, and a carried entry is kept only if its floors lie at or
under one of its location's.

A move fires in two steps, both compiled once per `EngineContext`: its
guard, kept as encoded bounds that `zone.constrain` takes as they are,
and one index gather (`zone.gather`) that resets its clocks and frees
those dead at its target.  Only the guard bounds and the caps depend
on the time scale, so a rescale recomputes those alone
(`EngineContext.set_scale`).

The graph is weighed as it unfolds, one bucket at a time: the buckets
are the strongly connected components of the location graph, walked
in topological order.  This is the scheme of Mohri (JALC 2002) that
`shortest_distance` applies to states, lifted to locations and found
once per `EngineContext`; only a cyclic bucket builds a move graph for
`shortest_distance` to weigh.  Weighing yields both the fired states,
whose accepting ones are the segment's matches, and the carried table
(the states pinned at the boundary).

A fired state forgets the clocks that are dead at its target: no path
from there reads them in a guard before resetting them (Daws & Yovine,
"Reducing the Number of Clock Variables of Timed Automata", RTSS 1996).
`EngineContext` finds them once by a backward fixpoint over the
transitions, and each move's gather keeps only c >= 0 of each.  Runs
that differ only in a dead clock then share one state, whose weight is
the ⊕ of theirs; the value sequences, the time clock and any clock the
caller keeps (the matcher's match-start clock) are untouched, so every
row and value stays the same.

`trace_value` folds a whole signal; `OnlineMatcher` folds a stream and
harvests the match set.  The whole-trace transition system the fold is
checked against is built independently, in `oracle.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import ge, le

from . import zone as zn
from .automaton import (
    EvaluationError,
    WeightedAutomaton,
    cost_value,
    matching_automaton,
)
from .matchset import MatchPiece, MatchSet, zone_sort_key
from .semiring import Semiring
from .signals import EMPTY_SEQ, Segment, Signal, Valuation, absorbing_concat, check_variables


class EngineContext:
    """Lookup tables for one weighted automaton at one time scale,
    which `set_scale` changes."""

    def __init__(self, wa: WeightedAutomaton, scale: int = 1, audit=None, keep=()):
        a = wa.automaton
        self.automaton = a
        self.semiring = wa.semiring
        self.kind = wa.cost
        t_name = "T"
        while t_name in a.clocks:
            t_name += "_"
        self.clock_names = a.clocks + (t_name,)
        self.t_index = len(a.clocks) + 1  # 1-based matrix index
        self.audit = audit
        self.labels = {l.name: l.label for l in a.locations}
        self.accepting = frozenset(l.name for l in a.locations if l.accepting)
        idx = {c: i + 1 for i, c in enumerate(a.clocks)}
        # the clocks some guard reads, in the order of the `caps` vectors
        self.guarded = tuple(sorted({idx[at.var] for tr in a.transitions for at in tr.guard}))
        pos = {a.clocks[i - 1]: p for p, i in enumerate(self.guarded)}  # clock -> position
        # one backward fixpoint: a clock is live at a location when some
        # path from there reads it in a guard before resetting it, and
        # `caps` holds a location's maximal cap vectors on the guarded
        # clocks' floors (INF: no cap), as the module docstring says
        top = (zn.INF,) * len(pos)
        live = {l.name: set() for l in a.locations}
        caps = {l.name: [] for l in a.locations}
        changed = True
        while changed:
            changed = False
            for tr in a.transitions:
                need = {at.var for at in tr.guard} | (live[tr.target] - set(tr.resets))
                if not need <= live[tr.source]:
                    live[tr.source] |= need
                    changed = True
                cap = list(top)
                for at in tr.guard:
                    if at.op in ("<", "<="):
                        p = pos[at.var]
                        cap[p] = min(cap[p], int(at.const))
                resets = {pos[c] for c in tr.resets if c in pos}
                # into acceptance, the transition's own caps alone suffice
                for vec in caps[tr.target] + ([top] if tr.target in self.accepting else []):
                    # a reset clock's floor is 0 at the target, so its
                    # cap there must admit 0 and its own cap holds before
                    if all(vec[p] >= 0 for p in resets):
                        vec = tuple(c if p in resets else min(c, v)
                                    for p, (c, v) in enumerate(zip(cap, vec)))
                        changed |= _add_maximal(caps[tr.source], vec)
        self._caps = {loc: tuple(sorted(vecs)) for loc, vecs in caps.items()}
        self.waits = frozenset(loc for loc, vecs in caps.items() if vecs)
        # location -> indices of the clocks dead there, `keep` excepted;
        # the time clock is not an automaton clock, so it is never one
        self.dead = {
            loc: tuple(idx[c] for c in a.clocks if c not in used and c not in keep)
            for loc, used in live.items()
        }
        # location -> its moves as in `out`, but with the guard atoms
        # (clock index, op, unscaled constant); a move's resets and
        # freeing are one gather, None when it has neither
        n = len(self.clock_names) + 1
        self._moves = {l.name: [] for l in a.locations}
        for tr in a.transitions:
            resets = tuple(idx[c] for c in tr.resets)
            dead = self.dead[tr.target]
            get, pad = zn.gather(n, resets, dead) if resets or dead else (None, ())
            self._moves[tr.source].append((
                tr.target,
                # guard constants are integers, as WeightedAutomaton checks
                tuple((idx[at.var], at.op, int(at.const)) for at in tr.guard),
                get, pad,
            ))
        self.set_scale(scale)
        # the location graph's strongly connected components in
        # topological order, each flagged cyclic when a transition stays
        # inside it
        succ = {loc: [move[0] for move in moves] for loc, moves in self._moves.items()}
        self.buckets = tuple(
            (tuple(comp), len(comp) > 1 or comp[0] in succ[comp[0]])
            for comp in _tarjan_components(succ, succ)
        )

    def set_scale(self, scale: int) -> None:
        """Move to another time scale; only the guard bounds and the
        caps depend on it.

        `out` maps each location to its moves, in transition order, as
        (target, guard bounds (i, j, b) for `zone.constrain` at this
        scale, get, pad): a guarded zone z fires into `get(z + pad)`,
        with the resets done and the target's dead clocks freed, or into
        z itself when `get` is None (`zone.gather`)."""
        self.scale = scale
        self.caps = {loc: tuple(tuple(c * scale for c in vec) for vec in vecs)
                     for loc, vecs in self._caps.items()}
        self.out = {
            loc: tuple(
                (target, tuple(zn.guard_bound(i, op, k * scale) for i, op, k in atoms), *rest)
                for target, atoms, *rest in moves
            )
            for loc, moves in self._moves.items()
        }


def _add_maximal(vecs: list, vec: tuple) -> bool:
    """Add `vec` to an antichain of vectors unless one of them lies at or
    above it, dropping those it lies above; True if it was added."""
    if any(all(map(ge, u, vec)) for u in vecs):
        return False
    vecs[:] = [u for u in vecs if not all(map(le, u, vec))]
    vecs.append(vec)
    return True


def shortest_distance(nodes, edges, sources, semiring: Semiring) -> dict:
    """Sum the weights of all paths from the sources to every node.

    Nodes are any hashable values; small ints hash cheapest.  The
    generic scheme of Mohri ("Semiring Frameworks and Algorithms for
    Shortest-Distance Problems", JALC 2002) runs on the condensation of
    the graph, in one pass order:

    1. parallel edges are merged additively, zero-weight edges dropped;
    2. the acyclic prefix (nodes no cycle reaches) is peeled and relaxed
       in topological order (Kahn);
    3. the remaining nodes are split into strongly connected components
       by an iterative Tarjan;
    4. the components are walked in topological order.  A singleton
       without a self-loop just relaxes its out-edges; inside any other
       component the all-pairs closure is taken (Lehmann, with `star`
       summing each cycle's unrolling) and applied to the weight that
       has arrived at its nodes before the out-edges are relaxed.

    The cost is O(n + e + sum |C|^3) semiring operations over the
    non-trivial components C.  The empty path contributes each source's
    own weight to its node.  Nodes whose total is the additive identity
    are left out of the result, which lists the rest in node order.
    """
    sr = semiring
    zero = sr.zero
    oplus = sr.oplus
    otimes = sr.otimes
    order = list(nodes)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    out = [{} for _ in range(n)]  # node -> {successor: merged weight}
    for u, v, w in edges:
        if w == zero:
            continue
        u, v = pos[u], pos[v]
        ou = out[u]
        ou[v] = oplus(ou[v], w) if v in ou else w
    dist = [zero] * n
    for v, w in sources.items():
        i = pos[v]
        dist[i] = oplus(dist[i], w)

    # acyclic prefix: a node's total is final once all its predecessors are
    indeg = [0] * n
    for ou in out:
        for v in ou:
            indeg[v] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    for i in queue:  # grows while it is walked
        di = dist[i]
        for v, w in out[i].items():
            if di != zero:
                dist[v] = oplus(dist[v], otimes(di, w))
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)

    if len(queue) < n:
        # every node left lies on a cycle or downstream of one, and so
        # does each of its successors
        for comp in _tarjan_components(out, (i for i in range(n) if indeg[i])):
            _close_component(comp, out, dist, sr)
    return {order[i]: d for i, d in enumerate(dist) if d != zero}


def _tarjan_components(out, roots) -> list:
    """Strongly connected components reachable from `roots`, in
    topological order of the condensation (iterative Tarjan)."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comps: list = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(out[root]))]
        while work:
            v, succs = work[-1]
            for w in succs:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(out[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    # Tarjan emits a component only after every component it reaches
    comps.reverse()
    return comps


def _close_component(comp, out, dist, sr: Semiring) -> None:
    """Fold one component's internal paths into `dist`, then relax the
    edges that leave it."""
    zero = sr.zero
    oplus = sr.oplus
    otimes = sr.otimes
    if len(comp) == 1 and comp[0] not in out[comp[0]]:
        members = {}
    else:
        members = {v: k for k, v in enumerate(comp)}
        c = len(comp)
        mat = [[zero] * c for _ in range(c)]
        for k, u in enumerate(comp):
            row = mat[k]
            for v, w in out[u].items():
                j = members.get(v)
                if j is not None:
                    row[j] = w
        # Lehmann: mat becomes the sum over all nonempty internal paths
        for k in range(c):
            s = sr.star(mat[k][k])
            row_k = mat[k]
            for row_i in mat:
                wik = otimes(row_i[k], s)
                if wik == zero:
                    continue
                for j in range(c):
                    if row_k[j] != zero:
                        row_i[j] = oplus(row_i[j], otimes(wik, row_k[j]))
        arrived = [dist[u] for u in comp]
        for i, ai in enumerate(arrived):
            if ai == zero:
                continue
            row = mat[i]
            for j in range(c):
                if row[j] != zero:
                    dist[comp[j]] = oplus(dist[comp[j]], otimes(ai, row[j]))
    for u in comp:
        du = dist[u]
        if du == zero:
            continue
        for v, w in out[u].items():
            if v not in members:
                dist[v] = oplus(dist[v], otimes(du, w))


def _explore(ctx: EngineContext, weight: dict, values: Valuation, prev: int, cur: int):
    """Unfold one segment and weigh it, location bucket by bucket.

    `prev` and `cur` are scaled boundary times; input entries are
    expected to be pinned at `prev`, and are only read.  The states a
    transition fires into are ⊕-accumulated at their location as they
    arrive.  A trivial bucket's inputs and arrivals then have their
    final weights: they wait, and each state they wait into fires at
    once into later buckets.  A cyclic bucket weighs its local move
    graph with `shortest_distance`, its inputs and arrivals as sources,
    and then relaxes the fires that leave it.  Returns (fired, final):
    the weighed states a transition fired into, as {location: {zone:
    weight}} since their sequence is empty, and those pinned at `cur`,
    grouped as the input is.
    """
    sr = ctx.semiring
    oplus = sr.oplus
    otimes = sr.otimes
    zero = sr.zero
    audit = ctx.audit
    scale = ctx.scale
    constrain = zn.constrain
    elapse = zn.elapse
    t = ctx.t_index
    pinned = 1 - 2 * cur  # entry (0, T) of a zone with T = cur
    appended = (values,)
    fired: dict = {loc: {} for locs, _ in ctx.buckets for loc in locs}  # in bucket order
    final: dict = {}

    for locs, cyclic in ctx.buckets:
        if not cyclic:
            (loc,) = locs
            out = {EMPTY_SEQ: {}}  # value sequence -> zone -> weight, pinned at cur
            waited: dict = {}  # value sequence -> zone -> weight
            for seq, zs in [*weight.get(loc, {}).items(), (EMPTY_SEQ, fired[loc])]:
                waits = zs and loc in ctx.waits
                grp = waited.setdefault(absorbing_concat(seq, appended), {}) if waits else None
                for z, d in zs.items():
                    if audit is not None:
                        audit(z, scale, cur)
                    if z[t] == pinned:  # only an arrival can be
                        out[EMPTY_SEQ][z] = d
                    elif waits:
                        for z2 in elapse(z, t, prev, cur):
                            if z2 is not None:
                                old = grp.get(z2)
                                grp[z2] = d if old is None else oplus(old, d)
            for seq2, grp in waited.items():
                if not grp:
                    continue
                w = cost_value(ctx.kind, ctx.labels[loc], seq2)
                out[seq2] = done = {}
                for z2, d in grp.items():
                    if audit is not None:
                        audit(z2, scale, cur)
                    if z2[t] == pinned:
                        done[z2] = d
                    if w == zero:
                        continue
                    dw = otimes(d, w)
                    for target, bounds, get, pad in ctx.out[loc]:
                        z3 = z2
                        for i, j, b in bounds:
                            z3 = constrain(z3, i, j, b)
                        if z3 is None:
                            continue
                        z3 = z3 if get is None else get(z3 + pad)
                        arr = fired[target]
                        old = arr.get(z3)
                        arr[z3] = dw if old is None else oplus(old, dw)
            out = {seq: zs for seq, zs in out.items() if zs}
            if out:
                final[loc] = out
            continue

        # a cyclic bucket numbers its states, inputs first, and finds a
        # waited state again by zone within its (location, sequence)
        # group in `waited`, a fired one within its location's `arrived`.
        # Only inputs and arrivals wait: an input, never pinned at cur,
        # holds its sequence already extended by `values`, an arrival ε
        states = []  # id -> (location, zone, value sequence)
        sources = {}
        for loc in locs:
            for seq, zs in weight.get(loc, {}).items():
                seq2 = absorbing_concat(seq, appended)
                for z, d in zs.items():
                    sources[len(states)] = d
                    states.append((loc, z, seq2))
        arrived = {}  # location -> zone -> id of a state fired into
        for loc in locs:
            ids = arrived[loc] = {}
            for z, d in fired[loc].items():
                ids[z] = i = len(states)
                sources[i] = d
                states.append((loc, z, EMPTY_SEQ))
        waited = {loc: {} for loc in locs}  # location -> sequence -> (zone -> id, cost)
        edges: list = []
        leaving: list = []  # (waited id, cost, target, zone) out of the bucket

        stack = list(sources)
        while stack:
            i = stack.pop()
            loc, z, seq = states[i]
            if z[t] == pinned or loc not in ctx.waits:
                continue
            seq2 = seq or appended
            grp = waited[loc].get(seq2)
            if grp is None:
                grp = waited[loc][seq2] = ({}, cost_value(ctx.kind, ctx.labels[loc], seq2))
            ids, w = grp
            for z2 in elapse(z, t, prev, cur):
                if z2 is None:
                    continue
                j = ids.get(z2)
                if j is not None:
                    edges.append((i, j, sr.one))
                    continue
                ids[z2] = j = len(states)
                states.append((loc, z2, seq2))
                edges.append((i, j, sr.one))
                if w == zero:
                    continue
                for target, bounds, get, pad in ctx.out[loc]:
                    z3 = z2
                    for i3, j3, b in bounds:
                        z3 = constrain(z3, i3, j3, b)
                    if z3 is None:
                        continue
                    z3 = z3 if get is None else get(z3 + pad)
                    if target not in locs:
                        leaving.append((j, w, target, z3))
                        continue
                    tids = arrived[target]
                    k = tids.get(z3)
                    if k is None:
                        tids[z3] = k = len(states)
                        states.append((target, z3, EMPTY_SEQ))
                        stack.append(k)
                    edges.append((j, k, w))
        dist = shortest_distance(range(len(states)), edges, sources, sr)
        for i, d in dist.items():
            loc, z, seq = states[i]
            if audit is not None:
                audit(z, scale, cur)
            if z[t] == pinned:
                final.setdefault(loc, {}).setdefault(seq, {})[z] = d
        for loc in locs:
            fired[loc] = {z: dist[i] for z, i in arrived[loc].items() if i in dist}
        for j, w, target, z3 in leaving:
            if j in dist:
                arr = fired[target]
                dw = otimes(dist[j], w)
                old = arr.get(z3)
                arr[z3] = dw if old is None else oplus(old, dw)
    return {loc: zs for loc, zs in fired.items() if zs}, final


def initial_weight(ctx: EngineContext) -> dict:
    z0 = zn.point_zone(ctx.clock_names, 0)
    return {l.name: {EMPTY_SEQ: {z0: ctx.semiring.one}} for l in ctx.automaton.initial_locations}


def time_scale(sig: Signal) -> int:
    """Smallest integer multiplier that makes every boundary integral."""
    return math.lcm(*(b.denominator for b in sig.boundaries))


def trace_value(sig: Signal, wa: WeightedAutomaton, audit=None):
    """Aggregate weight of the accepting runs over the whole signal."""
    if len(sig) == 0:
        raise EvaluationError("empty signal")
    ctx = EngineContext(wa, time_scale(sig), audit)
    weight = initial_weight(ctx)
    prev = 0
    for seg, bound in zip(sig.segments, sig.boundaries[1:]):
        cur = int(bound * ctx.scale)
        weight = _explore(ctx, weight, seg.values, prev, cur)[1]
        prev = cur
    return ctx.semiring.big_oplus(
        s
        for loc, groups in weight.items()
        if loc in ctx.accepting
        for s in groups.get(EMPTY_SEQ, {}).values()
    )


def _prune(ctx: EngineContext, weight: dict) -> dict:
    """Drop entries that can never contribute another accepting state:
    those whose floors on the guarded clocks lie under none of their
    location's caps."""
    guarded = ctx.guarded
    out: dict = {}
    for loc, groups in weight.items():
        caps = ctx.caps[loc]
        for seq, zs in groups.items():
            kept = {}
            for z, w in zs.items():
                # row 0 of the encoding bounds -c_i, so its value is minus the floor
                floors = [-(z[i] >> 1) for i in guarded]
                for cap in caps:
                    if all(map(le, floors, cap)):
                        kept[z] = w
                        break
            if kept:
                out.setdefault(loc, {})[seq] = kept
    return out


class OnlineMatcher:
    """Incremental match-set computation over a segment stream.

    The automaton is wrapped with a fresh start location that records
    the match start on its own clock; the accepting states a segment
    fires into project onto the (start, end) plane as that segment's
    rows, final since they end after the previous boundary.  A region
    with t' = t is no window and is dropped.  Each segment's
    rows, at the current time scale, are one batch of `matchset`.
    Between segments the weight table keeps only states pinned at the
    latest boundary.
    A fresh start copy is re-seeded there (older copies can produce
    nothing new) and dead entries are discarded.
    """

    def __init__(self, wa: WeightedAutomaton, audit=None):
        self.semiring = wa.semiring
        expanded = matching_automaton(wa.automaton)
        self._expanded = WeightedAutomaton(expanded, wa.semiring, wa.cost)
        self._start = expanded.locations[-1].name
        self._tp_index = len(wa.automaton.clocks) + 1
        self.scale = 1
        # the projection reads the match-start clock, so it is never freed
        self._ctx = EngineContext(self._expanded, 1, audit, (expanded.clocks[-1],))
        self._elapsed = Fraction(0)
        self._names = None  # variable names of the first segment
        self.matchset = MatchSet(wa.semiring)
        z0 = zn.point_zone(self._ctx.clock_names, 0)
        self._weight: dict = {self._start: {EMPTY_SEQ: {z0: wa.semiring.one}}}
        for l in wa.automaton.initial_locations:
            # matches starting at time 0 exactly cannot come out of the
            # start location, whose hand-off needs a positive dwell
            self._weight[l.name] = {EMPTY_SEQ: {z0: wa.semiring.one}}

    def feed(self, seg: Segment) -> list:
        """Consume one segment; return the rows it adds to the match set
        as its batch, in `zone_sort_key` order.  No later segment changes
        them.  Every segment must carry the variable set of the first one."""
        self._names = check_variables(seg, self._names)
        sr = self.semiring
        new_end = self._elapsed + seg.duration
        s2 = math.lcm(self.scale, new_end.denominator)
        if s2 != self.scale:
            f = s2 // self.scale
            self._weight = {
                loc: {q: {zn.scale(z, f): w for z, w in zs.items()} for q, zs in groups.items()}
                for loc, groups in self._weight.items()
            }
            self.scale = s2
            self._ctx.set_scale(s2)
        prev = int(self._elapsed * self.scale)
        cur = int(new_end * self.scale)

        fired, final = _explore(self._ctx, self._weight, seg.values, prev, cur)
        rows: dict = {}  # integer-scale region -> value
        for loc, zs in fired.items():
            if loc not in self._ctx.accepting:
                continue
            for z, w in zs.items():
                region = zn.project_match(z, self._ctx.t_index, self._tp_index)
                if region[7] == 1:  # t' - t <= 0: no window
                    continue
                rows[region] = sr.oplus(rows[region], w) if region in rows else w
        pieces = [
            MatchPiece(region, rows[region], self.scale)
            for region in sorted(rows, key=zone_sort_key)
        ]
        self.matchset.insert(new_end, pieces)

        weight = {loc: groups for loc, groups in final.items() if loc != self._start}
        weight[self._start] = {EMPTY_SEQ: {zn.point_zone(self._ctx.clock_names, cur): sr.one}}
        self._weight = _prune(self._ctx, weight)
        self._elapsed = new_end
        return pieces

    @property
    def elapsed(self) -> Fraction:
        return self._elapsed

    def footprint(self) -> int:
        """Entries retained plus their recorded sequence elements."""
        return sum(
            len(zs) * (1 + len(q)) for groups in self._weight.values() for q, zs in groups.items()
        )
