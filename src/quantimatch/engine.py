"""The online fold: weighted reachability over timed symbolic automata.

The engine advances a weight table (location, clock zone, value
sequence) -> semiring value across one signal segment at a time.  Time
is rescaled so that every segment boundary is an integer; zone bounds
then stay integral, keeping zone identity exact under hashing.

Per segment the table unfolds into a finite move graph: entries wait
into the open band between the previous and the current boundary or
onto the boundary itself, transitions fire from states whose recorded
value sequence is nonempty, and freshly fired states wait again.
Waiting is strictly positive (see `zone.up`), so a fired state can
never refire at the same instant.  Weighing the graph once yields both
the carried table (states pinned at the boundary) and the partial view
used for match harvesting (states strictly inside the segment).  The
weighing (`shortest_distance`) peels the acyclic prefix in topological
order and takes the `star` closure only inside the strongly connected
components that remain, walked in topological order (Mohri, JALC
2002), so it costs O(n + e + sum |C|^3) over the components C.

`trace_value` folds a whole signal; `OnlineMatcher` folds a stream and
harvests the match set.  The whole-trace transition system the fold is
checked against is built independently, in `oracle.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import zone as zn
from .automaton import (
    EvaluationError,
    WeightedAutomaton,
    cost_value,
    matching_automaton,
)
from .matchset import MatchPiece, MatchSet, zone_sort_key
from .semiring import Semiring
from .signals import EMPTY_SEQ, Segment, Signal, Valuation, absorbing_concat

# engine state: (location name, Zone over clocks + absolute time, ValueSeq)
State = tuple
Weight = dict


class EngineContext:
    """Lookup tables for one weighted automaton at a fixed time scale."""

    def __init__(self, wa: WeightedAutomaton, scale: int = 1, audit=None):
        a = wa.automaton
        self.automaton = a
        self.semiring = wa.semiring
        self.kind = wa.cost
        t_name = "T"
        while t_name in a.clocks:
            t_name += "_"
        self.clock_names = a.clocks + (t_name,)
        self.t_index = len(a.clocks) + 1  # 1-based matrix index
        self.scale = scale
        self.audit = audit
        self.labels = {l.name: l.label for l in a.locations}
        self.accepting = frozenset(l.name for l in a.locations if l.accepting)
        self.out = {l.name: [] for l in a.locations}
        for tr in a.transitions:
            self.out[tr.source].append(tr)
        idx = {c: i + 1 for i, c in enumerate(a.clocks)}
        self.guards = {}
        self.resets = {}
        for tr in a.transitions:
            # guard constants are integers, as WeightedAutomaton checks
            self.guards[tr] = tuple(
                (idx[at.var], at.op, int(at.const) * scale) for at in tr.guard
            )
            self.resets[tr] = tuple(idx[c] for c in tr.resets)


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


def _explore(ctx: EngineContext, weight: Weight, values: Valuation, prev: int, cur: int):
    """Unfold one segment into a move graph and weigh both views.

    `prev` and `cur` are scaled boundary times; input entries are
    expected to be pinned at `prev`.  Returns (partial, final).
    """
    sr = ctx.semiring
    t = ctx.t_index
    appended = (values,)
    # states are numbered as they are discovered, so the graph handed
    # to shortest_distance never hashes a (loc, zone, seq) tuple again
    ids: dict = {}  # state -> id
    states: list = []  # id -> state
    at_wall: list = []  # id -> pinned at `cur`
    roles: list = []
    edges: list = []
    stack: list = []

    def discover(state, role, wall):
        i = ids.get(state)
        if i is None:
            i = ids[state] = len(states)
            states.append(state)
            at_wall.append(wall)
            roles.append(role)
            stack.append(i)
            if ctx.audit is not None:
                ctx.audit(state[1], ctx.scale, cur)
        return i

    sources = {}
    for state, s in weight.items():
        sources[discover(state, "input", False)] = s

    cost_cache: dict = {}

    def cost(loc, seq):
        key = (loc, seq)
        if key not in cost_cache:
            cost_cache[key] = cost_value(ctx.kind, ctx.labels[loc], seq)
        return cost_cache[key]

    while stack:
        i = stack.pop()
        loc, z, seq = states[i]
        if roles[i] == "elapsed":
            # a nonempty dwell is on record, so transitions may fire
            w = cost(loc, seq)
            if w == sr.zero:
                continue
            for tr in ctx.out[loc]:
                z2 = zn.intersect_guard(z, ctx.guards[tr])
                if z2.m is None:
                    continue
                succ = (tr.target, zn.reset(z2, ctx.resets[tr]), EMPTY_SEQ)
                edges.append((i, discover(succ, "fired", at_wall[i]), w))
        else:
            # inputs and freshly fired states wait before anything else
            zu = zn.up(z)
            seq2 = absorbing_concat(seq, appended)
            band = zn.clamp_time(zu, t, prev, cur, True, True)
            if band.m is not None:
                edges.append((i, discover((loc, band, seq2), "elapsed", False), sr.one))
            wall = zn.clamp_time(zu, t, cur, cur)
            if wall.m is not None:
                edges.append((i, discover((loc, wall, seq2), "elapsed", True), sr.one))

    dist = shortest_distance(range(len(states)), edges, sources, sr)
    partial: Weight = {}
    final: Weight = {}
    for i, d in dist.items():
        (final if at_wall[i] else partial)[states[i]] = d
    return partial, final


def initial_weight(ctx: EngineContext) -> Weight:
    z0 = zn.point_zone(ctx.clock_names, 0)
    return {
        (l.name, z0, EMPTY_SEQ): ctx.semiring.one
        for l in ctx.automaton.initial_locations
    }


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
        for (loc, _, seq), s in weight.items()
        if seq == EMPTY_SEQ and loc in ctx.accepting
    )


def _prune(ctx: EngineContext, weight: Weight) -> Weight:
    """Drop entries that can never contribute another accepting state.

    Feasibility is judged on clock lower bounds alone: waiting and
    resets never take a bound below its zone floor again, so an upper
    guard atom whose constant the floor already exceeds stays violated
    forever.  Lower guard atoms are treated as always satisfiable
    (waiting can meet them), which keeps the check conservative.  With
    no guarded clock the bound tuples are empty and the search runs
    over the location graph alone.
    """
    guarded = sorted(
        {i for atoms in ctx.guards.values() for (i, _, _) in atoms}
    )
    pos = {i: p for p, i in enumerate(guarded)}
    verdicts: dict = {}

    def is_live(loc, lbs) -> bool:
        root = (loc, lbs)
        if root in verdicts:
            return verdicts[root]
        visited = {root}
        frontier = [root]
        while frontier:
            cur_loc, cur_lbs = frontier.pop()
            if verdicts.get((cur_loc, cur_lbs)):
                verdicts[root] = True
                return True
            for tr in ctx.out[cur_loc]:
                ok = True
                for i, op, k in ctx.guards[tr]:
                    if op in ("<", "<=") and cur_lbs[pos[i]] > k:
                        ok = False
                        break
                if not ok:
                    continue
                if tr.target in ctx.accepting:
                    verdicts[root] = True
                    return True
                resets = ctx.resets[tr]
                nxt = tuple(
                    0 if guarded[p] in resets else v for p, v in enumerate(cur_lbs)
                )
                node = (tr.target, nxt)
                if node not in visited:
                    visited.add(node)
                    frontier.append(node)
        # nothing reachable from the root can fire into acceptance, and
        # every state seen along the way shares that fate
        for node in visited:
            verdicts[node] = False
        return False

    out: Weight = {}
    for state, w in weight.items():
        loc, z, _ = state
        lbs = tuple(-z.m[0][i][0] for i in guarded)
        if is_live(loc, lbs):
            out[state] = w
    return out


class OnlineMatcher:
    """Incremental match-set computation over a segment stream.

    The automaton is wrapped with a fresh start location that records
    the match start on its own clock; every harvested accepting state
    projects onto the (start, end) plane and folds into the match set.
    Between segments the weight table keeps only states pinned at the
    latest boundary.  A fresh start copy is re-seeded there (older
    copies can produce nothing new) and dead entries are discarded,
    both optional for cross-checking.
    """

    def __init__(self, wa: WeightedAutomaton, prune: bool = True,
                 reseed: bool = True, audit=None):
        self.semiring = wa.semiring
        expanded = matching_automaton(wa.automaton)
        self._expanded = WeightedAutomaton(expanded, wa.semiring, wa.cost)
        self._start = expanded.locations[-1].name
        self._tp_index = len(wa.automaton.clocks) + 1
        self.prune_enabled = prune
        self.reseed_enabled = reseed
        self.audit = audit
        self.scale = 1
        self._ctx = EngineContext(self._expanded, 1, audit)
        self._elapsed = Fraction(0)
        self._names = None  # variable names of the first segment
        self.matchset = MatchSet(wa.semiring)
        z0 = zn.point_zone(self._ctx.clock_names, 0)
        self._weight: Weight = {(self._start, z0, EMPTY_SEQ): wa.semiring.one}
        for l in wa.automaton.initial_locations:
            # matches starting at time 0 exactly cannot come out of the
            # start location, whose hand-off needs a positive dwell
            self._weight[(l.name, z0, EMPTY_SEQ)] = wa.semiring.one

    def feed(self, seg: Segment) -> list:
        """Consume one segment; report match-set rows that changed.

        Every segment must carry the variable set of the first one.
        """
        names = tuple(n for n, _ in seg.values)
        if self._names is None:
            self._names = names
        elif names != self._names:
            raise ValueError(
                f"segment variable set {names} differs from the first segment's {self._names}"
            )
        sr = self.semiring
        new_end = self._elapsed + seg.duration
        s2 = math.lcm(self.scale, new_end.denominator)
        if s2 != self.scale:
            f = s2 // self.scale
            self._weight = {
                (l, zn.scale(z, f), q): w for (l, z, q), w in self._weight.items()
            }
            self.scale = s2
            self._ctx = EngineContext(self._expanded, s2, self.audit)
        prev = int(self._elapsed * self.scale)
        cur = int(new_end * self.scale)

        partial, final = _explore(self._ctx, self._weight, seg.values, prev, cur)
        changed = set()
        unscale = Fraction(1, self.scale)
        for view in (partial, final):
            for (loc, z, q), w in view.items():
                if q != EMPTY_SEQ or loc not in self._ctx.accepting:
                    continue
                if (loc, z, q) in self._weight:
                    continue  # carried input, harvested previously
                region = zn.scale(
                    zn.project_match(z, self._ctx.t_index, self._tp_index), unscale
                )
                if self.matchset.insert(region, w):
                    changed.add(region)

        self._weight = final
        if self.reseed_enabled:
            self._weight = {
                st: w for st, w in self._weight.items() if st[0] != self._start
            }
            z = zn.point_zone(self._ctx.clock_names, cur)
            self._weight[(self._start, z, EMPTY_SEQ)] = sr.one
        if self.prune_enabled:
            self._weight = _prune(self._ctx, self._weight)
        self._elapsed = new_end
        self.matchset.horizon = new_end
        return [
            MatchPiece(region, self.matchset.get(region))
            for region in sorted(changed, key=zone_sort_key)
        ]

    @property
    def elapsed(self) -> Fraction:
        return self._elapsed

    def footprint(self) -> int:
        """Entries retained plus their recorded sequence elements."""
        return sum(1 + len(q) for (_, _, q) in self._weight)
