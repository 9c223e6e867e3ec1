"""The online fold, checked in places against the whole-trace
reference construction in `oracle`."""

import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

import quantimatch.engine as engine
import quantimatch.zone as zn
from quantimatch.automaton import (
    Atom,
    Automaton,
    CostKind,
    EvaluationError,
    Location,
    Transition,
    WeightedAutomaton,
    cost_value,
    parse_automaton,
)
from quantimatch.engine import (
    EngineContext,
    OnlineMatcher,
    _explore,
    _kept,
    shortest_distance,
    trace_value,
)
from quantimatch.matchset import format_piece
from quantimatch.oracle import reachable_graph, time_scale
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL
from quantimatch.signals import EMPTY_SEQ, Signal, absorbing_concat, segment, valuation

from conftest import (
    CYCLIC_SPEC,
    DEAD_BRANCH_SPEC,
    OVERSHOOT_SPEC,
    TWO_CLOCK_SPEC,
    elapse_by_clamps,
    flat,
    free,
    initial_weight,
    make,
    random_automaton,
    random_signal,
    weighted_variants,
)

CT = ("c", "T")


def zone2(*constraints):
    return make(CT, constraints)


def flat_fired(fired):
    """`_explore`'s fired table {location: {zone: weight}} as flat
    states; a state a transition fires into has the empty sequence."""
    return flat({loc: {EMPTY_SEQ: zs} for loc, zs in fired.items()})


def _with_dead_branch(rng, a):
    """`a` plus a self-looping branch that never leads to acceptance."""
    c = rng.choice(a.clocks)
    dead = Location("d", (Atom("x", "<", Fraction(rng.randint(0, 14))),))
    into = Transition(rng.choice(a.locations).name, (Atom(c, ">", Fraction(1)),), (), "d")
    loop = Transition("d", (Atom(c, "<", Fraction(4)),), (c,), "d")
    return Automaton(a.variables, a.clocks, a.locations + (dead,), a.transitions + (into, loop))


def reference_moves(ctx, loc):
    """The moves out of `loc` in transition order, read from the
    automaton rather than from the compiled tables: (target, guard
    bounds (i, j, b) for `zone.constrain` at ctx's scale, indices of the
    clocks the transition resets)."""
    idx = {c: i for i, c in enumerate(ctx.clock_names, 1)}
    return [
        (tr.target,
         tuple(zn.guard_bound(idx[at.var], at.op, int(at.const) * ctx.scale) for at in tr.guard),
         tuple(idx[c] for c in tr.resets))
        for tr in ctx.automaton.transitions if tr.source == loc
    ]


def reference_fire(ctx, move, z):
    """The zone a reference move fires z into, by the generic zone
    operations: `constrain` per guard bound, then `reset`, then `free`
    of the clocks dead at its target."""
    target, bounds, resets = move
    for i, j, b in bounds:
        z = zn.constrain(z, i, j, b)
    return free(zn.reset(z, resets), ctx.dead[target])


def moves_with_references(ctx, loc):
    """The compiled moves out of `loc`, each beside its reference move;
    `out` keeps transition order."""
    refs = reference_moves(ctx, loc)
    assert [ref[0] for ref in refs] == [move[0] for move in ctx.out[loc]]
    return list(zip(ctx.out[loc], refs))


def carried(ctx, weight):
    """The entries of a flat table {(location, zone, sequence): weight}
    that their location's cap test (`EngineContext.carries`) carries."""
    return {st: w for st, w in weight.items() if _kept(ctx.carries[st[0]], {st[1]: w})}


def keeping_everything(monkeypatch):
    """Switch pruning off: every context's cap tests carry every
    pinned state."""
    real = EngineContext.set_scale

    def set_scale(self, scale):
        real(self, scale)
        self.carries = dict.fromkeys(self.carries, True)

    monkeypatch.setattr(EngineContext, "set_scale", set_scale)


def test_context_tables(wa_supinf):
    ctx = EngineContext(wa_supinf, 2)
    assert ctx.clock_names == ("c", "T")
    assert ctx.t_index == 2
    assert ctx.accepting == frozenset({"l2"})
    # (target, guard bounds at scale 2) per location: c < 5 encodes as
    # c - 0 < 10, (1, 0, 20)
    assert [move[:2] for move in reference_moves(ctx, "l0")] == [("l1", ((1, 0, 20),))]
    assert [move[:2] for move in reference_moves(ctx, "l1")] == [("l2", ((1, 0, 40),))]
    assert [move[0] for move in ctx.out["l0"] + ctx.out["l1"]] == ["l1", "l2"]
    assert ctx.out["l2"] == ()
    assert (1, 0, 20) == zn.guard_bound(1, "<", 10)
    assert ctx.dead == {"l0": (), "l1": (), "l2": (1,)}
    # l0's move resets c and l1's frees it, dead at l2: the compiled
    # moves cap c = T at 10 and 20 (strict, scale 2), then c is 0 or
    # unbounded
    z = zn.point_zone(ctx.clock_names, 3)
    (into_l1,), (into_l2,) = ctx.out["l0"], ctx.out["l1"]
    assert into_l1[1](z) == make(CT, [(1, 0, 0, False), (2, 0, 3, False), (0, 2, -3, False)])
    assert into_l2[1](z) == make(CT, [(2, 0, 3, False), (0, 2, -3, False)])
    wide = make(CT, [(1, 2, 0, False), (2, 1, 0, False)])  # c = T
    assert into_l1[1](wide) == make(CT, [(1, 0, 0, False), (2, 0, 10, True)])
    assert into_l2[1](wide) == make(CT, [(2, 0, 20, True)])


def test_dead_clock_table_of_the_overshoot(wa_supinf):
    """c is read on the way out of l0 and l1 only, and the start
    location resets it on its way to l0; T' and T are never freed."""
    m = OnlineMatcher(wa_supinf)
    ctx = m._ctx
    assert ctx.clock_names == ("c", "T'", "T")
    assert ctx.dead == {"l0": (), "l1": (), "l2": (1,), "start": (1,)}
    # each move frees the clocks dead at its target, after its resets
    z = make(ctx.clock_names, [(i, 0, 2, False) for i in (1, 2, 3)]
             + [(0, i, -1, False) for i in (1, 2, 3)])
    for loc in ctx.out:
        for (target, fire), (_, _, resets) in moves_with_references(ctx, loc):
            assert fire(z) == free(zn.reset(z, resets), ctx.dead[target]), (loc, target)
    # without the matcher's keep, T' would be dead everywhere
    assert all(2 in dead for dead in EngineContext(m._expanded).dead.values())


def test_context_buckets_and_waits():
    """Location buckets in topological order, flagged cyclic, and the
    locations from which acceptance is still reachable, for the
    matching automaton (with its start location) of four specs."""

    def tables(spec):
        ctx = OnlineMatcher(WeightedAutomaton(parse_automaton(spec), SUPINF,
                                              CostKind.MIN_MARGIN))._ctx
        return [(set(locs), cyclic) for locs, cyclic in ctx.buckets], set(ctx.waits)

    trivial = [({"start"}, False), ({"l0"}, False), ({"l1"}, False), ({"l2"}, False)]
    assert tables(OVERSHOOT_SPEC) == (trivial, {"start", "l0", "l1"})
    assert tables(CYCLIC_SPEC) == (
        [({"start"}, False), ({"l0", "l1"}, True), ({"l2"}, False)],
        {"start", "l0", "l1"},
    )
    assert tables(TWO_CLOCK_SPEC) == (
        [({"start"}, False), ({"l0"}, False), ({"l1"}, True), ({"l2"}, False)],
        {"start", "l0", "l1"},
    )
    buckets, waits = tables(DEAD_BRANCH_SPEC)
    assert ({"l3"}, True) in buckets and "l3" not in waits
    assert waits == {"start", "l0", "l1"}
    # l3 comes after l0, the only location leading into it
    assert buckets.index(({"l0"}, False)) < buckets.index(({"l3"}, True))
    assert [b for b in buckets if b != ({"l3"}, True)] == trivial


def test_waiting_only_where_acceptance_is_reachable_changes_nothing(monkeypatch):
    """Rows and the pruned carried table are the same, segment by
    segment, when every location waits."""
    rng = random.Random(37)
    cases = []
    for i in range(30):
        a = random_automaton(rng)
        if i % 2:
            a = _with_dead_branch(rng, a)
        cases.append((a, random_signal(rng, max_segments=4)))
    elapsed = 0
    real_init = EngineContext.__init__

    def counting(kernel):
        def counting_elapse(*args):
            nonlocal elapsed
            elapsed += 1
            return kernel(*args)

        return counting_elapse

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.waits = {loc: counting(kernel) for loc, kernel in self.waits.items()}

    def runs():
        out = []
        for a, sig in cases:
            for wa in weighted_variants(a):
                m = OnlineMatcher(wa)
                out.append([([format_piece(p) for p in m.feed(seg)], m._weight) for seg in sig])
        return out

    monkeypatch.setattr(EngineContext, "__init__", counting_init)
    skipping = runs()
    skipping_elapsed, elapsed = elapsed, 0

    def waiting_everywhere(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        n = self.t_index + 1
        self.waits = {loc: counting(zn.elapse_kernel(n, self.t_index, self.dead[loc]))
                      for loc in self.out}

    monkeypatch.setattr(EngineContext, "__init__", waiting_everywhere)
    assert runs() == skipping
    # the skip was taken, and some rows came out
    assert skipping_elapsed < elapsed
    assert any(rows for run in skipping for rows, _ in run)


def test_freeing_dead_clocks_keeps_feed_rows(monkeypatch):
    """Rows are byte-identical with dead-clock freeing switched off, by
    keeping every clock."""
    rng = random.Random(36)
    cases = []
    for _ in range(30):
        a = random_automaton(rng)
        cases.append((a, random_signal(rng, max_segments=4)))

    def rows_of(a, sig):
        out = []
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            for seg in sig:
                out.append([format_piece(p) for p in m.feed(seg)])
        return out

    freed = 0

    def counting_explore(ctx, *args):
        # a freed clock c loses its bound c - T <= 0
        nonlocal freed
        fired, final = real_explore(ctx, *args)
        n = ctx.t_index + 1
        for _, z, _ in flat_fired(fired):
            freed += any(z[c * n + ctx.t_index] is zn.INF for c in range(1, ctx.t_index))
        return fired, final

    real_explore = engine._explore
    monkeypatch.setattr(engine, "_explore", counting_explore)
    with_free = [rows_of(a, sig) for a, sig in cases]
    freed_with, freed = freed, 0
    real_init = EngineContext.__init__

    def keeping_every_clock(self, wa, scale=1, audit=None, keep=()):
        real_init(self, wa, scale, audit, wa.automaton.clocks)

    monkeypatch.setattr(EngineContext, "__init__", keeping_every_clock)
    without = [rows_of(a, sig) for a, sig in cases]
    assert with_free == without
    assert freed_with > 0 and freed == 0
    assert any(any(batch) for rows in with_free for batch in rows)


def test_waits_free_dead_clocks_and_change_only_the_carried_table(monkeypatch):
    """A wait frees the clocks dead at its location.  Beside a reference
    matcher whose wait kernels free none, as a fire leaves them, every
    segment's rows are the same, and so are both carried tables once
    each entry's dead clocks are freed and equal keys are ⊕-merged; the
    table is already so freed, but for the start location's seed (a
    point zone at the boundary).  `trace_value` is the same too."""
    rng = random.Random(43)
    cases = []
    for i in range(150):
        a = random_automaton(rng)
        if i % 2:
            a = _with_dead_branch(rng, a)
        cases.append((a, random_signal(rng, max_segments=6)))
    real_init = EngineContext.__init__

    def stale_waits(ctx):
        n = ctx.t_index + 1
        return {loc: zn.elapse_kernel(n, ctx.t_index, ()) for loc in ctx.waits}

    def stale_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.waits = stale_waits(self)

    def refreed(m):
        out = {}
        for (loc, z, q), w in flat(m._weight).items():
            key = (loc, free(z, m._ctx.dead[loc]), q)
            out[key] = m.semiring.oplus(out[key], w) if key in out else w
        return out

    segments = rows = saved = 0
    for a, sig in cases:
        for wa in weighted_variants(a):
            m, ref = OnlineMatcher(wa), OnlineMatcher(wa)
            monkeypatch.setattr(ref._ctx, "waits", stale_waits(ref._ctx))
            for seg in sig:
                got = [format_piece(p) for p in m.feed(seg)]
                assert got == [format_piece(p) for p in ref.feed(seg)]
                assert refreed(m) == refreed(ref)
                seed = zn.point_zone(m._ctx.clock_names, int(m.elapsed * m.scale))
                for loc, z, _ in flat(m._weight):
                    assert z == (seed if loc == m._start else free(z, m._ctx.dead[loc]))
                segments += 1
                rows += len(got)
                saved += ref.footprint() - m.footprint()
            with monkeypatch.context() as patched:
                patched.setattr(EngineContext, "__init__", stale_init)
                want = trace_value(sig, wa)
            assert trace_value(sig, wa) == want
    assert segments > 1000 and rows > 1000 and saved > 1000


def test_compiled_move_equals_public_ops():
    """A compiled move's fire kernel gives `free(reset(intersect_guard(
    z, atoms), resets), dead)` on random canonical zones with 1 to 3
    clocks besides T: every guard op, guards that empty the zone, and
    clocks both reset and dead at the target."""
    rng = random.Random(41)
    ops = ("<", "<=", ">", ">=")
    seen = {"emptied": 0, "reset_and_dead": 0, "ops": set()}
    for _ in range(300):
        clocks = tuple("cde"[:rng.randint(1, 3)])
        atoms = tuple(Atom(rng.choice(clocks), rng.choice(ops), Fraction(rng.randint(0, 6)))
                      for _ in range(rng.randint(0, 3)))
        resets = tuple(c for c in clocks if rng.random() < 0.5)
        live = tuple(c for c in clocks if rng.random() < 0.5)
        # l1's way out reads exactly the live clocks, so the rest are dead there
        a = Automaton(
            ("x",), clocks,
            (Location("l0", (), True), Location("l1", ()), Location("l2", (), False, True)),
            (Transition("l0", atoms, resets, "l1"),
             Transition("l1", tuple(Atom(c, ">", Fraction(1)) for c in live), (), "l2")),
        )
        scale = rng.randint(1, 3)
        ctx = EngineContext(WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN), scale)
        (((_, fire), (_, _, reset_idx)),) = moves_with_references(ctx, "l0")
        dead = ctx.dead["l1"]
        assert dead == tuple(i for i, c in enumerate(clocks, 1) if c not in live)
        seen["reset_and_dead"] += bool(set(reset_idx) & set(dead))
        seen["ops"].update(at.op for at in atoms)
        guard = [(ctx.clock_names.index(at.var) + 1, at.op, int(at.const) * scale) for at in atoms]
        n = len(ctx.clock_names)
        cons = [(i, j, rng.randint(-4, 8) * scale, rng.random() < 0.5)
                for _ in range(rng.randint(0, 5))
                for i, j in [rng.sample(range(n + 1), 2)]]
        z = make(ctx.clock_names, cons)
        if z is None:
            continue
        want = free(zn.reset(zn.intersect_guard(z, guard), reset_idx), dead)
        assert fire(z) == want, (z, atoms, resets, dead)
        seen["emptied"] += want is None
    assert seen["emptied"] and seen["reset_and_dead"] and seen["ops"] == set(ops)


def test_weak_guard_fires_on_its_bound():
    """`c <= 5` admits the firing at c = 5 exactly, so a run over a
    signal of duration 5 is accepted; under `c < 5` it would not be."""
    a = parse_automaton(
        """
        var x;
        clock c;
        location l0 init [x > 0];
        location l1 accept [true];
        edge l0 -> l1 when c <= 5;
        """
    )
    wa = WeightedAutomaton(a, BOOLEAN, CostKind.SAT)
    sig = Signal([segment({"x": 1.0}, 5)])
    assert trace_value(sig, wa) is True
    m = OnlineMatcher(wa)
    m.feed(sig.segments[0])
    assert m.matchset.query(0, 5) is True


def test_rescaled_matcher_holds_a_fresh_context_s_tables(wa_supinf):
    """Rescaling midstream recompiles the guard bounds and keeps the
    rest: the tables equal a fresh context's at the new scale."""

    def tables(ctx):
        # a fire kernel has no value equality; compare its code and bounds
        out = {
            loc: [(target, fire.__code__, [c.cell_contents for c in fire.__closure__ or ()])
                  for target, fire in moves]
            for loc, moves in ctx.out.items()
        }
        # a cap test is True, False or a predicate, compared the same way
        carries = {
            loc: k if isinstance(k, bool) else (k.__code__, [c.cell_contents for c in k.__closure__])
            for loc, k in ctx.carries.items()
        }
        return (ctx.scale, out, ctx.dead, ctx.waits, ctx.buckets, ctx.guarded,
                ctx.caps, carries, ctx.clock_names)

    m = OnlineMatcher(wa_supinf)
    before = m._ctx
    for duration in (Fraction(3, 2), Fraction(2, 3), Fraction(5, 4)):
        m.feed(segment({"x": 7.0}, duration))
    assert m.scale == 12 and m._ctx is before
    fresh = EngineContext(m._expanded, 12, keep=(m._expanded.automaton.clocks[-1],))
    assert tables(m._ctx) == tables(fresh)


def test_kernels_compile_once_per_shape(wa_supinf):
    """Kernels are cached on shapes alone: a second matcher on the same
    spec, a stream whose time scale grows and a spec that differs only
    in guard constants compile nothing, as the caches' own counters
    show."""

    kernels = (zn.elapse_kernel, zn.fire_kernel, zn.floor_kernel)

    def compiled():
        return sum(kernel.cache_info().misses for kernel in kernels)

    for kernel in kernels:
        kernel.cache_clear()
    m = OnlineMatcher(wa_supinf)
    first = compiled()
    assert first > 0
    # one wait kernel per dead set of a waiting location: () and (c,)
    ctx = m._ctx
    assert zn.elapse_kernel.cache_info().misses == len({ctx.dead[loc] for loc in ctx.waits}) == 2
    OnlineMatcher(wa_supinf)
    assert compiled() == first
    for duration in (Fraction(3, 2), Fraction(2, 3), Fraction(5, 4)):
        m.feed(segment({"x": 7.0}, duration))
    assert m.scale == 12 and compiled() == first
    other = parse_automaton(OVERSHOOT_SPEC.replace("c < 5", "c < 3").replace("c < 10", "c < 7"))
    assert other != wa_supinf.automaton
    hits = zn.fire_kernel.cache_info().hits
    OnlineMatcher(WeightedAutomaton(other, SUPINF, CostKind.MIN_MARGIN))
    assert compiled() == first and zn.fire_kernel.cache_info().hits > hits


def test_context_engine_clock_never_collides():
    a = Automaton(("x",), ("T",), (Location("l", (), True, True),), ())
    wa = WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN)
    ctx = EngineContext(wa)
    assert ctx.clock_names == ("T", "T_")


def test_shortest_distance_dag():
    nodes = ["a", "b", "c", "d"]
    edges = [("a", "b", 1.0), ("a", "c", 5.0), ("b", "d", 1.0), ("c", "d", 1.0)]
    dist = shortest_distance(nodes, edges, {"a": 0.0}, TROPICAL)
    assert dist == {"a": 0.0, "b": 1.0, "c": 5.0, "d": 2.0}

    edges = [("a", "b", 4.0), ("a", "c", 1.0), ("b", "d", 2.0), ("c", "d", 9.0)]
    dist = shortest_distance(nodes, edges, {"a": INF}, SUPINF)
    assert dist["d"] == 2.0

    edges = [("a", "b", True), ("c", "d", True)]
    dist = shortest_distance(nodes, edges, {"a": True}, BOOLEAN)
    assert dist == {"a": True, "b": True}


def test_shortest_distance_merges_parallel_edges():
    dist = shortest_distance(
        ["a", "b"], [("a", "b", 3.0), ("a", "b", 1.0)], {"a": 0.0}, TROPICAL
    )
    assert dist["b"] == 1.0


def test_shortest_distance_skips_zero_edges():
    dist = shortest_distance(["a", "b"], [("a", "b", INF)], {"a": 0.0}, TROPICAL)
    assert dist == {"a": 0.0}


def test_shortest_distance_negative_cycle():
    dist = shortest_distance(
        ["a", "b"], [("a", "a", -1.0), ("a", "b", 1.0)], {"a": 0.0}, TROPICAL
    )
    assert dist == {"a": -INF, "b": -INF}


def test_shortest_distance_cycle_stabilizes_supinf():
    dist = shortest_distance(
        ["a", "b"], [("a", "a", 5.0), ("a", "b", 3.0)], {"a": INF}, SUPINF
    )
    assert dist == {"a": INF, "b": 3.0}


def test_shortest_distance_self_loop_singleton():
    nodes = ["a", "b", "c"]
    edges = [("a", "b", 1.0), ("b", "b", 2.0), ("b", "c", 3.0)]
    dist = shortest_distance(nodes, edges, {"a": 0.0}, TROPICAL)
    assert dist == {"a": 0.0, "b": 1.0, "c": 4.0}
    edges = [("a", "b", 1.0), ("b", "b", -2.0), ("b", "c", 3.0)]
    dist = shortest_distance(nodes, edges, {"a": 0.0}, TROPICAL)
    assert dist == {"a": 0.0, "b": -INF, "c": -INF}
    edges = [("a", "b", 4.0), ("b", "b", 6.0), ("b", "c", 5.0)]
    dist = shortest_distance(nodes, edges, {"a": INF}, SUPINF)
    assert dist == {"a": INF, "b": 4.0, "c": 4.0}


def test_shortest_distance_negative_cycle_in_middle_component():
    # components in order: {s}, {a, b}, {f}, {c, d}, {e}; only {c, d}
    # has a negative cycle
    nodes = ["s", "a", "b", "c", "d", "e", "f"]
    edges = [
        ("s", "a", 0.0), ("a", "b", 1.0), ("b", "a", 2.0), ("a", "f", 2.0),
        ("b", "c", 1.0), ("c", "d", 1.0), ("d", "c", -3.0),
        ("d", "e", 5.0), ("b", "e", 1.0),
    ]
    dist = shortest_distance(nodes, edges, {"s": 0.0}, TROPICAL)
    assert dist == {
        "s": 0.0, "a": 0.0, "b": 1.0, "f": 2.0,
        "c": -INF, "d": -INF, "e": -INF,
    }


def test_shortest_distance_node_reached_only_through_cycle():
    nodes = ["s", "a", "b", "c", "z"]
    edges = [("s", "a", 1.0), ("a", "b", 2.0), ("b", "a", 3.0), ("b", "c", 4.0)]
    dist = shortest_distance(nodes, edges, {"s": 0.0}, TROPICAL)
    assert dist == {"s": 0.0, "a": 1.0, "b": 3.0, "c": 7.0}
    supinf_edges = [("s", "a", 5.0), ("a", "b", 4.0), ("b", "a", 1.0), ("b", "c", 3.0)]
    dist = shortest_distance(nodes, supinf_edges, {"s": INF}, SUPINF)
    assert dist == {"s": INF, "a": 5.0, "b": 4.0, "c": 3.0}
    dist = shortest_distance(nodes, [(u, v, True) for u, v, _ in edges], {"s": True}, BOOLEAN)
    assert dist == {"s": True, "a": True, "b": True, "c": True}


def test_advance_first_segment_exact(wa_supinf):
    ctx = EngineContext(wa_supinf, 2)
    w0 = initial_weight(ctx)
    assert flat(w0) == {("l0", zn.point_zone(CT, 0), EMPTY_SEQ): INF}
    x7 = valuation({"x": 7.0})
    fired, final = _explore(ctx, w0, x7, 7)

    pinned7 = [(2, 0, 7, False), (0, 2, -7, False)]
    z_wall_input = zn.point_zone(CT, 7)
    z_fired_wall = zone2(*pinned7, (1, 0, 0, False))
    z_band_c = zone2(*pinned7, (1, 0, 7, True), (0, 1, 0, True))
    # c is dead at l2, so firing into l2 frees it: only c >= 0 is left;
    # no path leads on from l2, so nothing waits there, and its cap test
    # carries none of its states
    z_l2 = zone2(*pinned7)
    reached = {
        ("l0", z_wall_input, (x7,)): INF,
        ("l1", z_fired_wall, EMPTY_SEQ): 8.0,
        ("l1", z_band_c, (x7,)): 8.0,
        ("l2", z_l2, EMPTY_SEQ): 2.0,
    }
    assert flat(final) == _searched_prune(ctx, reached) == {
        st: w for st, w in reached.items() if st[0] != "l2"
    }
    assert flat_fired(fired)[("l2", z_l2, EMPTY_SEQ)] == 2.0


def test_explore_reached_leaves_out_inputs(wa_supinf):
    """`fired` holds the states transitions fired into, inputs never;
    `final` holds the states pinned at `cur` that a search finds a way
    to acceptance from, fired ones included."""
    ctx = EngineContext(wa_supinf, 2)
    w0 = initial_weight(ctx)
    fired, final = _explore(ctx, w0, valuation({"x": 7.0}), 7)
    fired, final = flat_fired(fired), flat(final)
    assert fired and not set(flat(w0)) & set(fired)
    # every fired state lies strictly after the segment's start 0, within it
    for state in fired:
        assert state[2] == EMPTY_SEQ, state
        m = zn.matrix(state[1])
        (neg_lo, lo_strict), hi = m[0][2], m[2][0]
        assert -neg_lo > 0 or (neg_lo == 0 and lo_strict), state
        assert hi in ((7, True), (7, False)), state
    assert final and all(zn.matrix(st[1])[0][2] == (-7, False) for st in final)
    pinned = _searched_prune(
        ctx, {st: w for st, w in fired.items() if zn.matrix(st[1])[0][2] == (-7, False)})
    assert pinned and {st: final.get(st) for st in pinned} == pinned


def _flat_explore(ctx, weight, values, prev, cur):
    """`_explore` over a flat table {(location, zone, sequence): weight},
    as it was before the table was grouped: the reference the grouped
    one is checked against.  A wait clamps to (prev, cur] with `up` and
    `clamp_time`, where the fold reads cur alone, and frees the
    location's dead clocks with the generic `free`.  Returns flat
    (fired, final)."""
    sr = ctx.semiring
    oplus = sr.oplus
    otimes = sr.otimes
    zero = sr.zero
    audit = ctx.audit
    scale = ctx.scale
    t = ctx.t_index
    at_prev = 1 - 2 * prev  # entry (0, T) of a zone with T = prev
    pinned = 1 - 2 * cur  # entry (0, T) of a zone with T = cur
    appended = (values,)
    arrived: dict = {loc: {} for loc in ctx.out}  # location -> state -> weight
    moves = {loc: reference_moves(ctx, loc) for loc in ctx.out}
    for state, s in weight.items():
        arrived[state[0]][state] = s
    fired: dict = {}
    final: dict = {}

    for locs, cyclic in ctx.buckets:
        if not cyclic:
            (loc,) = locs
            waits = loc in ctx.waits
            waited: dict = {}
            for state, d in arrived[loc].items():
                _, z, seq = state
                if audit is not None:
                    audit(z, scale, cur)
                # T > prev and no value recorded: neither an input nor waited
                if z[t] < at_prev and not seq:
                    fired[state] = d
                if z[t] == pinned:
                    final[state] = d
                elif waits:
                    seq2 = absorbing_concat(seq, appended)
                    for z2 in elapse_by_clamps(z, t, prev, cur):
                        z2 = free(z2, ctx.dead[loc])
                        if z2 is not None:
                            st2 = (loc, z2, seq2)
                            old = waited.get(st2)
                            waited[st2] = d if old is None else oplus(old, d)
            label = ctx.labels[loc]
            costs: dict = {}  # value sequence -> its cost at loc
            for st2, d in waited.items():
                _, z2, seq2 = st2
                if audit is not None:
                    audit(z2, scale, cur)
                if z2[t] == pinned:
                    final[st2] = d
                w = costs.get(seq2)
                if w is None:
                    w = costs[seq2] = cost_value(ctx.kind, label, seq2)
                if w == zero:
                    continue
                dw = otimes(d, w)
                for move in moves[loc]:
                    z3 = reference_fire(ctx, move, z2)
                    if z3 is None:
                        continue
                    st3 = (move[0], z3, EMPTY_SEQ)
                    arr = arrived[move[0]]
                    old = arr.get(st3)
                    arr[st3] = dw if old is None else oplus(old, dw)
            continue

        # a cyclic bucket numbers its states as they are found, so its
        # local graph never hashes a (loc, zone, seq) tuple again
        states = [st for loc in locs for st in arrived[loc]]
        ids = {st: i for i, st in enumerate(states)}
        sources = {i: arrived[st[0]][st] for i, st in enumerate(states)}
        edges: list = []
        leaving: list = []  # (waited id, cost, target state) out of the bucket
        costs = {}  # (location, value sequence) -> cost

        stack = list(sources)
        while stack:
            i = stack.pop()
            loc, z, seq = states[i]
            if z[t] == pinned or loc not in ctx.waits:
                continue
            seq2 = absorbing_concat(seq, appended)
            for z2 in elapse_by_clamps(z, t, prev, cur):
                z2 = free(z2, ctx.dead[loc])
                if z2 is None:
                    continue
                j = ids.setdefault((loc, z2, seq2), len(states))
                edges.append((i, j, sr.one))
                if j < len(states):  # seen before
                    continue
                states.append((loc, z2, seq2))
                if (loc, seq2) not in costs:
                    costs[loc, seq2] = cost_value(ctx.kind, ctx.labels[loc], seq2)
                w = costs[loc, seq2]
                if w == zero:
                    continue
                for move in moves[loc]:
                    z3 = reference_fire(ctx, move, z2)
                    if z3 is None:
                        continue
                    st3 = (move[0], z3, EMPTY_SEQ)
                    if move[0] not in locs:
                        leaving.append((j, w, st3))
                        continue
                    k = ids.setdefault(st3, len(states))
                    edges.append((j, k, w))
                    if k == len(states):
                        states.append(st3)
                        stack.append(k)
        dist = shortest_distance(range(len(states)), edges, sources, sr)
        for i, d in dist.items():
            state = states[i]
            z = state[1]
            if audit is not None:
                audit(z, scale, cur)
            if z[t] < at_prev and not state[2]:
                fired[state] = d
            if z[t] == pinned:
                final[state] = d
        for j, w, st3 in leaving:
            if j in dist:
                arr = arrived[st3[0]]
                dw = otimes(dist[j], w)
                old = arr.get(st3)
                arr[st3] = dw if old is None else oplus(old, dw)
    return fired, final



def test_grouped_explore_equals_flat_reference():
    """On random automata with 1 to 3 clocks, cycles, resets and a dead
    self-looping branch, under all three pairings and on integer-valued
    signals with repeated values, `_explore` weighs the same states as
    the flat reference in every segment, carries those of its pinned
    states that a search finds a way to acceptance from, audits the same
    multiset of zones and leaves its input table as it was; both the
    plain automaton and the matcher's expanded one (with its start
    location) are folded.  Many zones that wait are held by two or more
    sequence groups, which the reference waits and fires apart."""
    rng = random.Random(39)
    fired_seen = cyclic_seen = 0
    shared = Counter()  # semiring -> (location, zone) pairs held by two or more groups
    for _ in range(25):
        a = _with_dead_branch(rng, random_automaton(rng, max_clocks=3, extra_edges=3))
        # adjacent values are often equal, so that waiting absorbs the
        # appended value and two sequence groups wait into one; up to 10
        # segments, so that runs dwell and groups come to share zones
        values = [float(rng.randint(-2, 14))]
        for _ in range(rng.randint(0, 9)):
            values.append(values[-1] if rng.random() < 0.4 else float(rng.randint(-2, 14)))
        sig = Signal([segment({"x": v}, Fraction(rng.randint(1, 10), rng.randint(1, 4)))
                      for v in values])
        scale = time_scale(sig)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            keep = (m._expanded.automaton.clocks[-1],)
            for ctx, weight in ((EngineContext(wa, scale), None),
                                (EngineContext(m._expanded, scale, keep=keep), m._weight)):
                cyclic_seen += any(cyclic for _, cyclic in ctx.buckets)
                weight = initial_weight(ctx) if weight is None else weight
                zones = []
                ctx.audit = lambda z, scale, cur: zones.append(z)
                prev = 0
                for seg, bound in zip(sig.segments, sig.boundaries[1:]):
                    cur = int(bound * scale)
                    before = copy.deepcopy(weight)
                    want_fired, want_final = _flat_explore(ctx, flat(weight), seg.values, prev, cur)
                    want_zones = Counter(zones)
                    zones.clear()
                    fired, final = _explore(ctx, weight, seg.values, cur)
                    assert weight == before
                    assert flat_fired(fired) == want_fired
                    assert flat(final) == _searched_prune(ctx, want_final)
                    assert Counter(zones) == want_zones
                    zones.clear()
                    fired_seen += len(want_fired)
                    shared[wa.semiring.name] += _shared_zones(ctx, weight, fired, cur)
                    weight, prev = final, cur
    assert fired_seen > 1000 and cyclic_seen > 50
    # a trivial bucket waits and fires a zone once, for all the groups
    # that hold it: that merge is exercised under every pairing
    assert min(shared[sr.name] for sr in (BOOLEAN, SUPINF, TROPICAL)) > 100, shared


def _shared_zones(ctx, weight, fired, cur):
    """How many (location, zone) pairs two or more sequence groups hold
    among the states that wait at a trivial bucket's location: its input
    groups and its arrivals, these not pinned at `cur`."""
    t, pinned = ctx.t_index, 1 - 2 * cur
    count = 0
    for locs, cyclic in ctx.buckets:
        if cyclic or locs[0] not in ctx.waits:
            continue
        held = Counter(z for zs in weight.get(locs[0], {}).values() for z in zs)
        held.update(z for z in fired.get(locs[0], {}) if z[t] != pinned)
        count += sum(1 for n in held.values() if n > 1)
    return count


def test_a_zone_waits_once_per_location_whatever_groups_hold_it(monkeypatch):
    """On the unbounded overshoot, whose runs dwell in l1, each segment
    calls a location's wait kernel once per distinct zone that waits
    there (its inputs and its arrivals not pinned at the boundary), not
    once per (sequence group, zone) pair; many zones are held by two
    groups or more."""
    a = parse_automaton(OVERSHOOT_SPEC.replace(" when c < 10", ""))
    m = OnlineMatcher(WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN))
    ctx = m._ctx
    calls = Counter()
    for loc, kernel in list(ctx.waits.items()):
        def counted(z, cur, loc=loc, kernel=kernel):
            calls[loc] += 1
            return kernel(z, cur)
        ctx.waits[loc] = counted
    real = engine._explore
    pairs = distinct = 0

    def explore(ctx, weight, values, cur):
        nonlocal pairs, distinct
        calls.clear()
        fired, final = real(ctx, weight, values, cur)
        t, pinned = ctx.t_index, 1 - 2 * cur
        for loc in ctx.waits:
            waiting = [z for zs in weight.get(loc, {}).values() for z in zs]
            waiting += [z for z in fired.get(loc, {}) if z[t] != pinned]
            assert calls[loc] == len(set(waiting)), (cur, loc)
            pairs += len(waiting)
            distinct += len(set(waiting))
        return fired, final

    monkeypatch.setattr(engine, "_explore", explore)
    rng = random.Random(5)
    for _ in range(25):
        m.feed(segment({"x": float(rng.randint(-2, 14))}, Fraction(rng.randint(1, 10), rng.randint(1, 4))))
    assert distinct > 500 and pairs > 1.5 * distinct, (pairs, distinct)


def test_match_gather_equals_project_match():
    """The matcher projects each accepting zone with one gather over
    `zone.match_indices`; on every zone a random sweep fires into, it
    equals `zone.project_match`, the diagonal entries included."""
    rng = random.Random(41)
    seen = 0
    for _ in range(20):
        a = random_automaton(rng, max_clocks=3, extra_edges=3)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            t, tp = m._ctx.t_index, len(wa.automaton.clocks) + 1
            for seg in sig:
                for zs in m._step(seg).values():
                    for z in zs:
                        assert m._project(z) == zn.project_match(z, t, tp)
                        seen += 1
    assert seen > 1000


def test_carried_table_invariants():
    """After every feed of a random sweep the carried table holds no
    empty location or sequence group, every carried zone is pinned at
    the elapsed time, and `footprint` counts its flat entries."""
    rng = random.Random(40)
    carried = 0
    for _ in range(30):
        a = random_automaton(rng, max_clocks=3, extra_edges=3)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            t = m._ctx.t_index
            for seg in sig:
                m.feed(seg)
                cur = int(m.elapsed * m.scale)
                assert all(m._weight.values())
                assert all(zs for groups in m._weight.values() for zs in groups.values())
                entries = flat(m._weight)
                for _, z, _ in entries:
                    mat = zn.matrix(z)
                    assert mat[0][t] == (-cur, False) and mat[t][0] == (cur, False)
                assert m.footprint() == sum(1 + len(q) for (_, _, q) in entries)
                carried += len(entries)
    assert carried > 1000


def test_trace_values(two_step_signal, short_signal, long_signal, fig_automaton):
    wa_b, wa_r, wa_t = weighted_variants(fig_automaton)
    assert trace_value(two_step_signal, wa_r) == 7.0
    assert trace_value(two_step_signal, wa_b) is True
    assert trace_value(short_signal, wa_r) == 5.0
    assert trace_value(short_signal, wa_t) == -10.0
    assert trace_value(short_signal, wa_b) is True
    # whole 30.5-unit signal cannot match: the two guards cap a run at 15
    assert trace_value(long_signal, wa_r) == -INF
    assert trace_value(long_signal, wa_b) is False


def test_trace_value_reads_the_states_fired_at_the_end(fig_automaton):
    """Every run reaches l2 by firing into it at the last boundary, 3;
    the one satisfying run leaves l0 at 2, when x rises above 5.  No
    path leaves l2, so it has no cap vector and its cap test carries
    none of those arrivals: the value is read from the states fired
    into l2 instead."""
    sig = Signal([segment({"x": 3.0}, 2), segment({"x": 8.0}, 1)])
    wa_b, wa_r, wa_t = weighted_variants(fig_automaton)
    assert EngineContext(wa_r).caps["l2"] == ()
    assert EngineContext(wa_r).carries["l2"] is False
    assert trace_value(sig, wa_b) is True
    # margins 15 - 3 on l0 and 8 - 5 on l1 at best; summed, leaving l0
    # before 2 lets l1 add 3 - 5 as well
    assert trace_value(sig, wa_r) == 3.0
    assert trace_value(sig, wa_t) == 12.0 + (-2.0 + 3.0)


def test_trace_value_rejects_empty_signal(wa_supinf):
    with pytest.raises(EvaluationError, match="empty"):
        trace_value(Signal([]), wa_supinf)


def test_reachable_graph_two_step(two_step_signal, wa_supinf):
    g = reachable_graph(two_step_signal, wa_supinf)
    assert g.scale == 2 and g.clock_names == CT
    assert len(g.nodes) == 34
    assert len(g.edges) == 35
    assert len(g.accepting) == 3
    fire_weights = {w for (_, _, w, kind) in g.edges if kind == "fire"}
    assert fire_weights == {8.0, 3.0, 7.0, 2.0}
    assert SUPINF.big_oplus(g.nodes[s] for s in g.accepting) == 7.0
    # the post-jump state after a wall fire is present with its path weight
    jump = ("l1", zone2((2, 0, 7, False), (0, 2, -7, False), (1, 0, 0, False)), EMPTY_SEQ)
    assert g.nodes[jump] == 8.0
    assert g.initial == (("l0", zn.point_zone(CT, 0), EMPTY_SEQ),)
    for state in g.accepting:
        loc, z, q = state
        assert loc == "l2" and q == EMPTY_SEQ
        m = zn.matrix(z)
        assert m[2][0] == (14, False) and m[0][2] == (-14, False)


def test_guarded_loop_terminates():
    a = Automaton(
        ("x",),
        ("c",),
        (Location("l0", (), True, False), Location("l1", (), False, True)),
        (
            Transition("l0", (Atom("c", "<", Fraction(2)),), ("c",), "l0"),
            Transition("l0", (), (), "l1"),
        ),
    )
    wa = WeightedAutomaton(a, BOOLEAN, CostKind.SAT)
    sig = Signal([segment({"x": 1.0}, 8)])
    assert trace_value(sig, wa) is True
    g = reachable_graph(sig, wa)
    assert len(g.nodes) < 100


def test_matcher_queries_match_offline_restriction(long_signal, wa_supinf):
    m = OnlineMatcher(wa_supinf)
    for seg in long_signal:
        m.feed(seg)
    ms = m.matchset
    assert ms.query(3, 15) == 5.0
    assert ms.query(10, 15) == -25.0
    assert ms.query(20, 25) == -45.0
    assert ms.query(0, 25) == -INF
    rng = random.Random(31)
    for _ in range(40):
        t = Fraction(rng.randint(0, 60), 2)
        tp = Fraction(rng.randint(int(t * 2) + 1, 61), 2)
        assert ms.query(t, tp) == trace_value(long_signal.restrict(t, tp), wa_supinf)


def test_matcher_variants_agree(monkeypatch):
    """Rows are the same with pruning switched off."""
    rng = random.Random(32)
    cases = []
    for _ in range(12):
        a = random_automaton(rng)
        cases.append((a, random_signal(rng, max_segments=4)))

    def tables():
        out = []
        for a, sig in cases:
            for wa in weighted_variants(a):
                m = OnlineMatcher(wa)
                for seg in sig:
                    m.feed(seg)
                out.append(m.matchset.pieces())
        return out

    pruned = tables()
    keeping_everything(monkeypatch)
    assert tables() == pruned


def test_prune_without_guards_keeps_exactly_the_live_locations(monkeypatch):
    # no clock guards at all: d1 and d2 never reach acceptance, and l1
    # has no way out, so only entries at l0 can still produce a match
    a = parse_automaton(
        """
        var x;
        location l0 init [x < 15];
        location l1 accept [x > 5];
        location d1 [true];
        location d2 [true];
        edge l0 -> l1;
        edge l0 -> d1;
        edge d1 -> d2;
        edge d2 -> d2;
        """
    )
    wa = WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN)
    ctx = EngineContext(wa)
    x7 = valuation({"x": 7.0})
    weight = {
        (loc, zn.point_zone(ctx.clock_names, t), seq): 1.0
        for loc in ("l0", "l1", "d1", "d2")
        for t in (0, 3)
        for seq in (EMPTY_SEQ, (x7,))
    }
    assert ctx.carries == {"l0": True, "l1": False, "d1": False, "d2": False}
    assert carried(ctx, weight) == _searched_prune(ctx, weight) == {
        st: w for st, w in weight.items() if st[0] == "l0"
    }

    sig = Signal([segment({"x": v}, d) for v, d in
                  ((7.0, 1), (12.0, Fraction(1, 2)), (3.0, 2), (9.0, 1))])
    pruned = OnlineMatcher(wa)
    for seg in sig:
        pruned.feed(seg)
    keeping_everything(monkeypatch)
    full = OnlineMatcher(wa)
    for seg in sig:
        full.feed(seg)
    assert pruned.matchset.pieces()
    assert pruned.matchset.pieces() == full.matchset.pieces()
    assert pruned.footprint() < full.footprint()


def _searched_prune(ctx, weight):
    """What the cap tests carry, found by a search over (location, floors)
    pairs: an upper guard atom closes a move when its clock's floor
    exceeds its constant, and a reset clock's floor becomes 0."""
    pos = {i: p for p, i in enumerate(ctx.guarded)}

    def live(loc, floors):
        seen = {(loc, floors)}
        stack = [(loc, floors)]
        while stack:
            loc, floors = stack.pop()
            for target, bounds, resets in reference_moves(ctx, loc):
                # an upper atom is (i, 0, b), with constant b >> 1
                if any(not j and floors[pos[i]] > b >> 1 for i, j, b in bounds):
                    continue
                if target in ctx.accepting:
                    return True
                node = (target, tuple(0 if i in resets else f for i, f in zip(ctx.guarded, floors)))
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
        return False

    return {
        st: w for st, w in weight.items()
        if live(st[0], tuple(-(st[1][i] >> 1) for i in ctx.guarded))
    }


def test_prune_keeps_what_a_search_keeps():
    """On random automata with cycles, resets and negative upper
    constants, the per-location cap tests carry exactly the entries a
    search over floors finds a way to acceptance from, at several time
    scales."""
    rng = random.Random(38)
    kept = dropped = 0
    for _ in range(150):
        a = random_automaton(rng, max_locations=5, max_clocks=3, extra_edges=4, guard_lo=-2)
        ctx = EngineContext(WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN))
        ctx.set_scale(rng.randint(1, 3))
        weight = {}
        for _ in range(30):
            floors = [rng.randint(0, 9 * ctx.scale) for _ in a.clocks]
            z = make(ctx.clock_names, [(0, i, -f, False) for i, f in enumerate(floors, 1)])
            weight[(rng.choice(a.locations).name, z, EMPTY_SEQ)] = 1.0
        want = _searched_prune(ctx, weight)
        assert carried(ctx, weight) == want, a
        kept += len(want)
        dropped += len(weight) - len(want)
    assert kept > 500 and dropped > 500


def test_context_caps_of_two_routes():
    """Two routes to acceptance cap different clocks, so l0 keeps two
    incomparable cap vectors; a route whose guard reads a just-reset
    clock against a negative constant adds none."""
    a = parse_automaton(
        """
        var x;
        clock c, d;
        location l0 init [x < 15];
        location l1 [x > 5];
        location l2 [x < 10];
        location l3 accept [true];
        location l4 [true];
        edge l0 -> l1 when c < 5 && d > 1;
        edge l1 -> l3 when d <= 9;
        edge l0 -> l2 when d < 3 reset {c};
        edge l2 -> l3 when c < 7;
        edge l0 -> l4 reset {d};
        edge l4 -> l3 when d < -2;
        """
    )
    ctx = EngineContext(WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN))
    assert ctx.guarded == (1, 2)
    want = {
        "l0": ((5, 9), (INF, 3)),
        "l1": ((INF, 9),),
        "l2": ((7, INF),),
        "l3": (),
        "l4": ((INF, -2),),
    }
    assert ctx.caps == want
    assert set(ctx.waits) == {"l0", "l1", "l2", "l4"}
    ctx.set_scale(2)
    assert ctx.caps == want  # in the automaton's time units

    def entry(loc, c, d):  # an entry with floors c and d
        return (loc, make(ctx.clock_names, [(0, 1, -c, False), (0, 2, -d, False)]), EMPTY_SEQ)

    # at scale 2, floors (12, 4) pass only the second route, (8, 16) only
    # the first, and (12, 16) neither
    weight = {entry("l0", 12, 4): 1.0, entry("l0", 8, 16): 1.0, entry("l0", 12, 16): 1.0}
    assert carried(ctx, weight) == {entry("l0", 12, 4): 1.0, entry("l0", 8, 16): 1.0}
    # each location's cap test reads its caps scaled: a floor at twice
    # a cap passes, one over it fails
    for loc, vecs in want.items():
        for vec in vecs:
            if min(vec) < 0:  # no floor lies under a negative cap
                continue
            floors = [2 * c if c != INF else 1000 for c in vec]
            assert ctx.carries[loc](entry(loc, *floors)[1]), (loc, vec)
            for p, c in enumerate(vec):
                if c != INF:
                    over = list(floors)
                    over[p] += 1
                    if not any(all(f <= 2 * u for f, u in zip(over, other)) for other in vecs):
                        assert not ctx.carries[loc](entry(loc, *over)[1]), (loc, vec, p)
    assert ctx.carries["l3"] is False


def test_harvested_regions_are_final_once_their_segment_ends():
    """Segment k only returns regions with t' in (b_{k-1}, b_k] and
    t < t', and no later segment returns a region equal to an earlier
    one."""
    rng = random.Random(34)
    harvested = 0
    for _ in range(40):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            earlier = set()
            for k, seg in enumerate(sig):
                rows = m.feed(seg)
                lo, hi = sig.boundaries[k], sig.boundaries[k + 1]
                for p in rows:
                    region, den = p.region, p.den
                    mat = zn.matrix(region)
                    tp_lo = -Fraction(mat[0][2][0], den)
                    lo_strict = mat[0][2][1]
                    assert tp_lo > lo or (tp_lo == lo and lo_strict), (k, region)
                    assert Fraction(mat[2][0][0], den) <= hi, (k, region)
                    # a row is a window: t' - t is not bounded by 0
                    assert mat[2][1] != (0, False), (k, region)
                    # the region's bounds as times, whatever its scale
                    key = tuple(
                        (v if v == zn.INF else Fraction(v, den), strict)
                        for row in mat for v, strict in row
                    )
                    assert key not in earlier, (k, region)
                    earlier.add(key)
                harvested += len(rows)
    assert harvested > 0


def test_feed_returns_exactly_the_rows_its_segment_adds():
    """Each feed returns the pieces its segment adds to `pieces()`, the
    after-minus-before difference, in `zone_sort_key` order."""
    rng = random.Random(35)
    returned = 0
    for _ in range(40):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            for seg in sig:
                before = set(m.matchset.pieces())
                rows = m.feed(seg)
                assert rows == [p for p in m.matchset.pieces() if p not in before]
                returned += len(rows)
    assert returned > 0


def test_matcher_rescales_midstream(wa_supinf):
    m = OnlineMatcher(wa_supinf)
    segs = [
        segment({"x": 7.0}, 1),
        segment({"x": 12.0}, Fraction(1, 3)),
        segment({"x": 7.0}, Fraction(1, 2)),
    ]
    for seg in segs:
        m.feed(seg)
    assert m.scale == 6
    assert m.elapsed == Fraction(11, 6)
    sig = Signal(segs)
    rng = random.Random(33)
    for _ in range(25):
        t = Fraction(rng.randint(0, 10), 6)
        tp = Fraction(rng.randint(int(t * 6) + 1, 11), 6)
        assert m.matchset.query(t, tp) == trace_value(sig.restrict(t, tp), wa_supinf)


def test_feed_reports_changed_rows_sorted(two_step_signal, wa_supinf):
    from quantimatch.matchset import zone_sort_key

    m = OnlineMatcher(wa_supinf)
    first = m.feed(two_step_signal.segments[0])
    assert first
    # the rows of one feed share its time scale, so their int keys compare
    assert {p.den for p in first} == {m.scale}
    keys = [zone_sort_key(p.region) for p in first]
    assert keys == sorted(keys)
    assert first == m.matchset.pieces()


def test_feed_without_matches_reports_nothing(wa_boolean):
    m = OnlineMatcher(wa_boolean)
    assert m.feed(segment({"x": 20.0}, 2)) == []
    assert len(m.matchset) == 0


def test_matcher_audit_hook_runs(wa_supinf, two_step_signal):
    seen = []

    def audit(zone, scale, cur):
        seen.append((len(zone), scale, cur))

    m = OnlineMatcher(wa_supinf, audit=audit)
    for seg in two_step_signal:
        m.feed(seg)
    assert seen
    assert all(n == 16 for (n, _, _) in seen)  # 4x4 over 0, c, T', T
    assert {s for (_, s, _) in seen} == {2}


def test_feed_rejects_changed_variable_set(wa_supinf):
    m = OnlineMatcher(wa_supinf)
    m.feed(segment({"x": 7.0}, 1))
    rows = m.matchset.pieces()
    for values in ({"x": 7.0, "y": 1.0}, {"y": 7.0}):
        with pytest.raises(ValueError, match="variable set"):
            m.feed(segment(values, 1))
    # a rejected segment leaves the matcher as it was
    assert m.elapsed == 1 and m.matchset.pieces() == rows
    m.feed(segment({"x": 12.0}, 1))
    assert m.elapsed == 2


def test_footprint_counts_entries_and_history(wa_supinf):
    m = OnlineMatcher(wa_supinf)
    m.feed(segment({"x": 7.0}, 2))
    fp = m.footprint()
    assert fp == sum(1 + len(q) for (_, _, q) in flat(m._weight))
    assert fp > 0
