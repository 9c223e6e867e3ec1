"""The online fold: weighted reachability over timed symbolic automata.

The engine advances a weight table across one signal segment at a
time.  A state is a location, a clock zone and the value sequence
recorded since its last transition; the table maps each to a semiring
value, grouped as {location: {value sequence: {zone: value}}}, so each
sequence is stored, extended and costed once per group, and a state
costs one zone-keyed dict operation.  Time is rescaled whenever a
segment's end needs it, so that every boundary so far is an integer;
zone bounds then stay integral, keeping zone identity exact under
hashing.

Per segment the table unfolds into a finite move graph.  The states
that wait are the entries and the states transitions fire into; each
waits once, into the open band between the previous and the current
boundary and onto the boundary itself, and each state it waits into
fires at once, since its recorded value sequence is nonempty.  Waiting
is strictly positive, so a fired state can never refire at the same
instant; one fired at the boundary is carried and waits in the next
segment.  One call of its location's wait kernel (`EngineContext.waits`,
a `zone.elapse_kernel`) gives both waiting targets.  It reads only the
current boundary: the entries are pinned at the previous one and every
other state is fired into after it, so no wait needs a lower clamp.  A
waiting state's time clock lies below the current boundary, so each
target differs from its source only in its absolute bounds (row 0 and
column 0), which the kernel rewrites with O(n) fixed-index int
operations, and in the clocks dead at the location, which it keeps
free; neither target is ever empty.

Where one location is a bucket of its own, the wait and the fire
depend on the zone alone, not on the value sequence: a sequence only
sets the cost its waited states are weighed by.  So a zone that several
sequence groups hold there waits once and fires once, weighed by the ⊕
over those groups of its weight ⊗ the group's cost.  That is exact, bit
for bit, in all three semirings: ⊕ is max, min or `or`, and x ↦ x ⊗ w
is nondecreasing (the tropical sum too, with its ±inf rules), so
(d1 ⊕ d2) ⊗ w = (d1 ⊗ w) ⊕ (d2 ⊗ w), the distributive step of Mohri's
generic scheme cited below; a zone fires when some group of nonzero
cost holds it, as each group's own states would.  Each group still
keeps its own walls, for the carried table.  Work per segment then
follows the distinct zones that wait, not the (group, zone) pairs,
which outnumber them about two to one when runs dwell.

Whether a state can still reach acceptance is decided once per
automaton.  Waiting and resets never lower a clock's floor again, so
an upper guard atom that a floor exceeds stays violated; lower atoms
count as always satisfiable.  `EngineContext.caps` maps each location
to the maximal vectors of caps on the guarded clocks' floors, in the
automaton's own time units, under which some path of one or more
transitions reaches acceptance, like the per-location bounds of
Behrmann, Bouyer, Larsen & Pelánek ("Lower and Upper Bounds in Zone
Based Abstractions of Timed Automata", TACAS 2004).  A state waits
only at a location that has a cap vector.  Whether a state is carried
is decided where it is pinned at the boundary, by its location's cap
test (`EngineContext.carries`): a location with no cap vector carries
none, one with a vector that caps no clock carries all, and any other
carries a state whose floors lie at or under one of its vectors.  No
pass over the carried table follows.

A move fires by one call of its fire kernel (`zone.fire_kernel`): its
guard's tightenings unrolled, then one tuple display that resets its
clocks and frees those dead at its target (`zone.gather`).  Kernels
are compiled once per automaton shape and cached process-wide, keyed on
ints alone; guard bounds are arguments of a kernel's factory, so a
rescale (`EngineContext.set_scale`) computes the bounds and cap tests
anew and compiles nothing.

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
transitions, and each move's gather keeps only c >= 0 of each.  A wait
would give a dead clock's column bounds again, from column 0, so the
location's wait kernel frees the same clocks in its outputs.  Runs
that differ only in a dead clock then share one state, after a fire
and after a wait alike, whose weight is the ⊕ of theirs; the value
sequences, the time clock and any clock the caller keeps (the
matcher's match-start clock) are untouched, and no guard reads a dead
clock before a reset, so every row and value stays the same.

`trace_value` and `OnlineMatcher` run this one fold (`_Fold`): per
segment it rescales and weighs, carrying on only what the cap tests
pass.  `trace_value` reads the accepting states fired into at the
signal's end, not the carried table, which holds none of an accepting
sink's states;
`OnlineMatcher` re-seeds a start copy at each boundary and harvests the
match set.  The whole-trace construction the fold is checked against is
built independently, in `oracle.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import ge, itemgetter, le

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
        self.caps = {loc: tuple(sorted(vecs)) for loc, vecs in caps.items()}
        # location -> indices of the clocks dead there, `keep` excepted;
        # the time clock is not an automaton clock, so it is never one
        self.dead = {
            loc: tuple(idx[c] for c in a.clocks if c not in used and c not in keep)
            for loc, used in live.items()
        }
        n = len(self.clock_names) + 1
        # location -> its wait kernel, which frees the clocks dead there;
        # only a location with a cap vector waits
        self.waits = {
            loc: zn.elapse_kernel(n, self.t_index, self.dead[loc])
            for loc, vecs in caps.items() if vecs
        }
        # location -> its moves as (target, guard atoms (clock index,
        # op, unscaled constant), the factory of its fire kernel)
        self._moves = {l.name: [] for l in a.locations}
        for tr in a.transitions:
            # guard constants are integers, as WeightedAutomaton checks
            atoms = tuple((idx[at.var], at.op, int(at.const)) for at in tr.guard)
            indices = zn.gather(n, (idx[c] for c in tr.resets), self.dead[tr.target])
            positions = tuple(zn.guard_bound(i, op, k)[:2] for i, op, k in atoms)
            self._moves[tr.source].append((tr.target, atoms, zn.fire_kernel(n, positions, indices)))
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
        cap tests depend on it.

        `out` maps each location to its moves, in transition order, as
        (target, fire): `fire(z)` is the zone z fires into, guarded at
        this scale, with the resets done and the target's dead clocks
        freed, or None when the guard empties z (`zone.fire_kernel`).
        `carries` maps each location to the cap test its states pinned
        at a boundary pass to be carried, its `caps` scaled
        (`_cap_test`)."""
        self.scale = scale
        self.carries = {
            loc: _cap_test(self.guarded, vecs, scale) for loc, vecs in self.caps.items()
        }
        self.out = {
            loc: tuple(
                (target, factory(*(zn.guard_bound(i, op, k * scale)[2] for i, op, k in atoms)))
                for target, atoms, factory in moves
            )
            for loc, moves in self._moves.items()
        }


def _cap_test(guarded: tuple, vecs: tuple, scale: int):
    """A location's cap test at `scale`: False when it has no cap
    vector, so none of its states is carried; True when a vector caps
    no clock, so all are; otherwise a predicate on a zone, true when its
    floors on the guarded clocks lie at or under one of the vectors,
    scaled (`zone.floor_kernel`).  The floor of c_i is at most k exactly
    when row 0's entry z[i] >= -2k, the encoding of (-k, strict)."""
    if not vecs:
        return False
    pairs = [tuple((i, -2 * c * scale) for i, c in zip(guarded, vec) if c != zn.INF)
             for vec in vecs]
    if not all(pairs):
        return True
    under = zn.floor_kernel(tuple(tuple(i for i, _ in vec) for vec in pairs))
    return under(*(b for vec in pairs for _, b in vec))


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


def _explore(ctx: EngineContext, weight: dict, values: Valuation, cur: int):
    """Unfold one segment and weigh it, location bucket by bucket.

    `cur` is the segment's end, a scaled boundary time; input entries
    are expected to be pinned at its start, and are only read.  A wait
    reads `cur` alone, since every state that waits lies at or after
    the start: an input is pinned there and an arrival fired after it.
    The states a transition fires into are ⊕-accumulated at their
    location as they arrive.  A trivial bucket's inputs and arrivals
    then have their final weights.  It waits and fires in two passes:

    1. over its sequence groups (each input group, then the arrivals
       with the empty sequence), each costed once per extended
       sequence: every zone that waits is waited once by its location's
       kernel, its band and wall kept, and it accumulates the ⊕ over
       its groups of weight ⊗ cost, from groups of nonzero cost alone;
       each group ⊕-merges its own walls for the carried table;
    2. over the distinct zones so accumulated: the band and the wall
       fire into later buckets with the zone's accumulated weight.

    By distributivity (module docstring) this gives each fired state
    the weight that waiting and firing each (group, zone) pair apart
    gives, bit for bit.  Keeping a wait's band and wall apart, a
    trivial bucket tests its walls, pinned by construction, as they are,
    with no test of their time clock.  With an audit, each input and
    each waited (sequence, band) and (sequence, wall) state is audited
    once.  A dead end, a location that neither waits nor carries (an
    accepting sink), is skipped unless audited.

    A cyclic bucket weighs its local move graph with
    `shortest_distance`, its inputs and arrivals as sources, and then
    relaxes the fires that leave it.  Returns (fired, final): the
    weighed states a transition fired into, as {location: {zone:
    weight}} since their sequence is empty, and those pinned at `cur`
    that their location's cap test (`EngineContext.carries`) carries,
    grouped as the input is.
    """
    sr = ctx.semiring
    oplus = sr.oplus
    otimes = sr.otimes
    zero = sr.zero
    audit = ctx.audit
    scale = ctx.scale
    t = ctx.t_index
    pinned = 1 - 2 * cur  # entry (0, T) of a zone with T = cur
    appended = (values,)
    fired: dict = {loc: {} for locs, _ in ctx.buckets for loc in locs}  # in bucket order
    final: dict = {}

    for locs, cyclic in ctx.buckets:
        if not cyclic:
            (loc,) = locs
            carry = ctx.carries[loc]
            elapse = ctx.waits.get(loc)
            if carry is False and elapse is None and audit is None:
                continue  # a dead end, an accepting sink: it keeps no state
            walled = {}  # arrivals pinned at cur: zone -> weight
            groups = {}  # value sequence -> (its walls: zone -> weight, its cost)
            # input zone -> [band, wall, ⊕ over its groups of d ⊗ cost,
            # None while no group of nonzero cost holds it]
            waited = {}
            seen = set()  # audited (sequence, zone) states, when auditing
            for seq, zs in [*weight.get(loc, {}).items(), (EMPTY_SEQ, fired[loc])]:
                if not zs:
                    continue
                seq2 = absorbing_concat(seq, appended)
                grp = groups.get(seq2)
                if grp is None:
                    grp = groups[seq2] = ({}, cost_value(ctx.kind, ctx.labels[loc], seq2))
                walls, w = grp
                fires = w != zero
                for z, d in zs.items():
                    if audit is not None:
                        audit(z, scale, cur)
                    if z[t] == pinned:  # only an arrival can be
                        walled[z] = d
                        continue
                    if elapse is None:
                        continue
                    e = waited.get(z)
                    if e is None:
                        e = waited[z] = [*elapse(z, cur), None]
                    wall = e[1]
                    old = walls.get(wall)
                    walls[wall] = d if old is None else oplus(old, d)
                    if fires:
                        dw = otimes(d, w)
                        old = e[2]
                        e[2] = dw if old is None else oplus(old, dw)
                    if audit is not None:
                        for z2 in e[:2]:
                            if (seq2, z2) not in seen:
                                seen.add((seq2, z2))
                                audit(z2, scale, cur)
            moves = ctx.out[loc]
            for band, wall, dw in waited.values():
                if dw is None:
                    continue
                for z2 in (band, wall):
                    for target, fire in moves:
                        z3 = fire(z2)
                        if z3 is None:
                            continue
                        arr = fired[target]
                        old = arr.get(z3)
                        arr[z3] = dw if old is None else oplus(old, dw)
            out = {}  # value sequence -> zone -> weight, carried from cur
            if walled:
                out[EMPTY_SEQ] = _kept(carry, walled)
            for seq2, (walls, _) in groups.items():
                out[seq2] = _kept(carry, walls)
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
            elapse = ctx.waits.get(loc)
            if z[t] == pinned or elapse is None:
                continue
            seq2 = seq or appended
            grp = waited[loc].get(seq2)
            if grp is None:
                grp = waited[loc][seq2] = ({}, cost_value(ctx.kind, ctx.labels[loc], seq2))
            ids, w = grp
            for z2 in elapse(z, cur):
                j = ids.get(z2)
                if j is not None:
                    edges.append((i, j, sr.one))
                    continue
                ids[z2] = j = len(states)
                states.append((loc, z2, seq2))
                edges.append((i, j, sr.one))
                if w == zero:
                    continue
                for target, fire in ctx.out[loc]:
                    z3 = fire(z2)
                    if z3 is None:
                        continue
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
                carry = ctx.carries[loc]
                if carry is True or carry and carry(z):
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


def _kept(carry, zs: dict) -> dict:
    """The states of `zs` that a location's cap test `carry` carries:
    all of them, uncopied, when it is True."""
    if carry is True:
        return zs
    return {z: d for z, d in zs.items() if carry(z)} if carry else {}


class _Fold:
    """The one online fold: a weight table carried from boundary to
    boundary, seeded with one state at each of `locations`, every clock
    0.  `_carry` picks what the states pinned at a boundary carry on."""

    def __init__(self, ctx: EngineContext, locations):
        self._ctx = ctx
        z0 = zn.point_zone(ctx.clock_names, 0)
        self._weight: dict = {loc: {EMPTY_SEQ: {z0: ctx.semiring.one}} for loc in locations}
        self._elapsed = Fraction(0)

    @property
    def scale(self) -> int:
        return self._ctx.scale

    @property
    def elapsed(self) -> Fraction:
        return self._elapsed

    def _step(self, seg: Segment) -> dict:
        """Fold one segment, on a finer time scale if its end needs one,
        carry on what `_carry` picks of its carried states and return
        the fired states."""
        ctx = self._ctx
        end = self._elapsed + seg.duration
        scale = math.lcm(ctx.scale, end.denominator)
        if scale != ctx.scale:
            f = scale // ctx.scale
            self._weight = {
                loc: {q: {zn.scale(z, f): w for z, w in zs.items()} for q, zs in groups.items()}
                for loc, groups in self._weight.items()
            }
            ctx.set_scale(scale)
        cur = int(end * scale)
        fired, final = _explore(ctx, self._weight, seg.values, cur)
        self._weight = self._carry(final, cur)
        self._elapsed = end
        return fired

    def _carry(self, final: dict, cur: int) -> dict:
        return final


def trace_value(sig: Signal, wa: WeightedAutomaton, audit=None):
    """Aggregate weight of the accepting runs over the whole signal: the
    ⊕ of the accepting states fired into at its end."""
    if len(sig) == 0:
        raise EvaluationError("empty signal")
    ctx = EngineContext(wa, 1, audit)
    fold = _Fold(ctx, (l.name for l in ctx.automaton.initial_locations))
    for seg in sig:
        fired = fold._step(seg)
    t, pinned = ctx.t_index, 1 - 2 * int(sig.duration * ctx.scale)  # entry (0, T) at T = end
    return ctx.semiring.big_oplus(w for loc, zs in fired.items() if loc in ctx.accepting
                                  for z, w in zs.items() if z[t] == pinned)


class OnlineMatcher(_Fold):
    """Incremental match-set computation over a segment stream.

    The automaton is wrapped with a fresh start location that records
    the match start on its own clock; the accepting states a segment
    fires into project onto the (start, end) plane as that segment's
    rows, final since they end after the previous boundary.  A region
    with t' = t is no window and is dropped.  Each segment's
    rows, at the current time scale, are one batch of `matchset`.
    At each boundary a fresh start copy is seeded in place of the
    carried ones, which can produce nothing new.
    """

    def __init__(self, wa: WeightedAutomaton, audit=None):
        self.semiring = wa.semiring
        expanded = matching_automaton(wa.automaton)
        self._expanded = WeightedAutomaton(expanded, wa.semiring, wa.cost)
        self._start = expanded.locations[-1].name
        # the start location's hand-off needs a positive dwell, so the
        # initial locations are seeded too, for matches starting at 0;
        # the projection reads the match-start clock, so it is never freed
        super().__init__(EngineContext(self._expanded, 1, audit, (expanded.clocks[-1],)),
                         (self._start, *(l.name for l in wa.automaton.initial_locations)))
        ctx = self._ctx
        # `zone.project_match` onto (t, t') as one gather
        self._project = itemgetter(*zn.match_indices(
            len(ctx.clock_names) + 1, ctx.t_index, len(wa.automaton.clocks) + 1))
        self._names = None  # variable names of the first segment
        self.matchset = MatchSet(wa.semiring)

    def feed(self, seg: Segment) -> list:
        """Consume one segment; return the rows it adds to the match set
        as its batch, in `zone_sort_key` order.  No later segment changes
        them.  Every segment must carry the variable set of the first one."""
        self._names = check_variables(seg, self._names)
        oplus = self.semiring.oplus
        project = self._project
        fired = self._step(seg)
        rows: dict = {}  # integer-scale region -> value
        for loc, zs in fired.items():
            if loc not in self._ctx.accepting:
                continue
            for z, w in zs.items():
                region = project(z)
                if region[7] == 1:  # t' - t <= 0: no window
                    continue
                rows[region] = oplus(rows[region], w) if region in rows else w
        scale = self._ctx.scale
        pieces = [MatchPiece(region, rows[region], scale)
                  for region in sorted(rows, key=zone_sort_key)]
        self.matchset.insert(self._elapsed, pieces)
        return pieces

    def _carry(self, final: dict, cur: int) -> dict:
        weight = {loc: groups for loc, groups in final.items() if loc != self._start}
        z = zn.point_zone(self._ctx.clock_names, cur)
        seed = _kept(self._ctx.carries[self._start], {z: self.semiring.one})
        if seed:
            weight[self._start] = {EMPTY_SEQ: seed}
        return weight

    def footprint(self) -> int:
        """Entries retained plus their recorded sequence elements."""
        return sum(
            len(zs) * (1 + len(q)) for groups in self._weight.values() for q, zs in groups.items()
        )
