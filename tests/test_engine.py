"""The online fold, checked in places against the whole-trace
reference construction in `oracle`."""

import random
from fractions import Fraction

import pytest

import quantimatch.zone as zn
from quantimatch.automaton import (
    Atom,
    Automaton,
    CostKind,
    EvaluationError,
    Location,
    Transition,
    WeightedAutomaton,
    parse_automaton,
)
from quantimatch.engine import (
    EngineContext,
    OnlineMatcher,
    _explore,
    _prune,
    initial_weight,
    shortest_distance,
    time_scale,
    trace_value,
)
from quantimatch.oracle import reachable_graph
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL
from quantimatch.signals import EMPTY_SEQ, Signal, segment, valuation

from conftest import random_automaton, random_signal, weighted_variants

CT = ("c", "T")


def zone2(*constraints):
    return zn.make(CT, constraints)


def test_context_tables(wa_supinf):
    ctx = EngineContext(wa_supinf, 2)
    assert ctx.clock_names == ("c", "T")
    assert ctx.t_index == 2
    assert ctx.accepting == frozenset({"l2"})
    t01, t12 = wa_supinf.automaton.transitions
    assert ctx.guards[t01] == ((1, "<", 10),)
    assert ctx.guards[t12] == ((1, "<", 20),)
    assert ctx.resets[t01] == (1,)
    assert ctx.resets[t12] == ()


def test_context_engine_clock_never_collides():
    a = Automaton(("x",), ("T",), (Location("l", (), True, True),), ())
    wa = WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN)
    ctx = EngineContext(wa)
    assert ctx.clock_names == ("T", "T_")


def test_time_scale():
    sig = Signal([segment({"x": 1.0}, 1), segment({"x": 2.0}, Fraction(1, 3)),
                  segment({"x": 1.0}, Fraction(1, 2))])
    assert time_scale(sig) == 6
    assert time_scale(Signal([segment({"x": 1.0}, 4)])) == 1


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
    assert w0 == {("l0", zn.point_zone(CT, 0), EMPTY_SEQ): INF}
    x7 = valuation({"x": 7.0})
    _, final = _explore(ctx, w0, x7, 0, 7)

    pinned7 = [(2, 0, 7, False), (0, 2, -7, False)]
    z_wall_input = zn.point_zone(CT, 7)
    z_fired_wall = zone2(*pinned7, (1, 0, 0, False))
    z_band_c = zone2(*pinned7, (1, 0, 7, True), (0, 1, 0, True))
    assert final == {
        ("l0", z_wall_input, (x7,)): INF,
        ("l1", z_fired_wall, EMPTY_SEQ): 8.0,
        ("l1", z_band_c, (x7,)): 8.0,
        ("l2", z_band_c, EMPTY_SEQ): 2.0,
        ("l2", z_band_c, (x7,)): 2.0,
    }


def test_explore_partial_keeps_inputs(wa_supinf):
    ctx = EngineContext(wa_supinf, 2)
    w0 = initial_weight(ctx)
    partial, _ = _explore(ctx, w0, valuation({"x": 7.0}), 0, 7)
    key = ("l0", zn.point_zone(CT, 0), EMPTY_SEQ)
    assert partial[key] == INF
    # every other state of the partial view lies strictly inside the segment
    for state in partial:
        if state != key:
            assert state[1].m[2][0] == (7, True)


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
        assert z.m[2][0] == (14, False) and z.m[0][2] == (-14, False)


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


def test_matcher_variants_agree():
    rng = random.Random(32)
    for _ in range(12):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            tables = []
            for prune in (False, True):
                for reseed in (False, True):
                    m = OnlineMatcher(wa, prune=prune, reseed=reseed)
                    for seg in sig:
                        m.feed(seg)
                    tables.append(m.matchset.pieces())
            assert tables[0] == tables[1] == tables[2] == tables[3]


def test_prune_without_guards_keeps_exactly_the_live_locations():
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
    assert _prune(ctx, weight) == {st: w for st, w in weight.items() if st[0] == "l0"}

    sig = Signal([segment({"x": v}, d) for v, d in
                  ((7.0, 1), (12.0, Fraction(1, 2)), (3.0, 2), (9.0, 1))])
    pruned = OnlineMatcher(wa, prune=True)
    full = OnlineMatcher(wa, prune=False)
    for seg in sig:
        pruned.feed(seg)
        full.feed(seg)
    assert pruned.matchset.pieces()
    assert pruned.matchset.pieces() == full.matchset.pieces()
    assert pruned.footprint() < full.footprint()


def test_harvested_regions_are_final_once_their_segment_ends():
    """Segment k only inserts regions with t' in (b_{k-1}, b_k], and no
    later segment inserts a region equal to an earlier one."""
    rng = random.Random(34)
    harvested = 0
    for _ in range(40):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=4)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            inserted = []
            insert = m.matchset.insert
            m.matchset.insert = lambda region, value: (
                inserted.append(region) or insert(region, value)
            )
            earlier = set()
            for k, seg in enumerate(sig):
                inserted.clear()
                m.feed(seg)
                lo, hi = sig.boundaries[k], sig.boundaries[k + 1]
                for region in inserted:
                    tp_lo, lo_strict = -region.m[0][2][0], region.m[0][2][1]
                    assert tp_lo > lo or (tp_lo == lo and lo_strict), (k, region)
                    assert region.m[2][0][0] <= hi, (k, region)
                    assert region not in earlier, (k, region)
                earlier.update(inserted)
                harvested += len(inserted)
    assert harvested > 0


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
    keys = [zone_sort_key(p.region) for p in first]
    assert keys == sorted(keys)
    for p in first:
        assert m.matchset.get(p.region) == p.value


def test_feed_without_matches_reports_nothing(wa_boolean):
    m = OnlineMatcher(wa_boolean)
    assert m.feed(segment({"x": 20.0}, 2)) == []
    assert len(m.matchset) == 0


def test_matcher_audit_hook_runs(wa_supinf, two_step_signal):
    seen = []

    def audit(zone, scale, cur):
        seen.append((len(zone.clocks), scale, cur))

    m = OnlineMatcher(wa_supinf, audit=audit)
    for seg in two_step_signal:
        m.feed(seg)
    assert seen
    assert all(n == 3 for (n, _, _) in seen)  # c, T', T
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
    assert fp == sum(1 + len(q) for (_, _, q) in m._weight)
    assert fp > 0
