"""Reference implementations used to cross-check the engine."""

import random
from fractions import Fraction

import pytest

from quantimatch.automaton import CostKind, WeightedAutomaton
from quantimatch.engine import OnlineMatcher, shortest_distance, trace_value
from quantimatch.oracle import (
    accepts_subsignal,
    arrangement_points,
    bf_shortest_distance,
    check_incremental,
    check_qtpm_pointwise,
    time_scale,
)
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL
from quantimatch.signals import Signal, segment

from conftest import random_automaton, random_signal, weighted_variants

POOLS = {
    "boolean": [True],
    "supinf": [INF, -1.0, 0.5, 2.0, 7.0],
    "tropical": [-3.0, -1.0, 0.0, 1.5, 4.0],
}


def random_graph(rng, sr, n, dag):
    nodes = list(range(n))
    edges = []
    pool = POOLS[sr.name]
    count = rng.randint(n - 1, 2 * n)
    for _ in range(count):
        if dag:
            u = rng.randint(0, n - 2)
            v = rng.randint(u + 1, n - 1)
        else:
            u = rng.randint(0, n - 1)
            v = rng.randint(0, n - 1)
        w = rng.choice(pool)
        if sr is TROPICAL and not dag and w < 0:
            w = -w  # keep cycle weights nonnegative so layering stabilizes
        edges.append((u, v, w))
    sources = {0: sr.one}
    if rng.random() < 0.3:
        sources[rng.randint(0, n - 1)] = rng.choice(pool)
    return nodes, edges, sources


def random_scc_dag(rng, sr, n):
    """A DAG of small strongly connected components (sizes 1-4, as in
    the engine's move graphs) joined by forward cross edges only.

    Node numbers are shuffled, so neither the numbering nor the node
    order follows the components' topological order.
    """
    pool = POOLS[sr.name]

    def weight(internal):
        w = rng.choice(pool)
        if sr is TROPICAL and internal and w < 0:
            w = -w  # nonnegative cycles, so layering stabilizes
        return w

    label = list(range(n))
    rng.shuffle(label)
    comps = []
    first = 0
    while first < n:
        size = min(rng.randint(1, 4), n - first)
        comps.append(label[first : first + size])
        first += size
    edges = []
    for comp in comps:
        if len(comp) > 1:
            # a ring makes the component strongly connected
            for u, v in zip(comp, comp[1:] + comp[:1]):
                edges.append((u, v, weight(True)))
        for _ in range(rng.randint(0, len(comp))):  # chords and self-loops
            edges.append((rng.choice(comp), rng.choice(comp), weight(True)))
    for k, comp in enumerate(comps[:-1]):
        for _ in range(rng.randint(1, 2)):
            later = rng.choice(comps[k + 1 :])
            edges.append((rng.choice(comp), rng.choice(later), weight(False)))
    rng.shuffle(edges)
    nodes = list(label)
    rng.shuffle(nodes)
    sources = {comps[0][0]: sr.one}
    if rng.random() < 0.5:
        sources[rng.randrange(n)] = rng.choice(pool)
    return nodes, edges, sources


@pytest.mark.parametrize("sr", [BOOLEAN, SUPINF, TROPICAL], ids=lambda s: s.name)
@pytest.mark.parametrize("shape", ["dag", "cyclic", "scc-dag"])
def test_layered_oracle_agrees_with_engine_distance(sr, shape):
    rng = random.Random({"dag": 41, "cyclic": 42, "scc-dag": 45}[shape])
    for _ in range(60):
        if shape == "scc-dag":
            nodes, edges, sources = random_scc_dag(rng, sr, rng.randint(2, 30))
        else:
            n = rng.randint(2, 8)
            nodes, edges, sources = random_graph(rng, sr, n, shape == "dag")
        want = bf_shortest_distance(nodes, edges, sources, sr)
        got = shortest_distance(nodes, edges, sources, sr)
        assert got == want, (nodes, edges, sources, sr.name)


def test_layered_oracle_hand_case():
    dist = bf_shortest_distance(
        ["a", "b", "c"], [("a", "b", 2.0), ("b", "c", 3.0)], {"a": 0.0}, TROPICAL
    )
    assert dist == {"a": 0.0, "b": 2.0, "c": 5.0}
    assert bf_shortest_distance(["a"], [], {}, TROPICAL) == {}


def test_time_scale():
    sig = Signal([segment({"x": 1.0}, 1), segment({"x": 2.0}, Fraction(1, 3)),
                  segment({"x": 1.0}, Fraction(1, 2))])
    assert time_scale(sig) == 6
    assert time_scale(Signal([segment({"x": 1.0}, 4)])) == 1


def test_check_incremental_on_reference_cases(
    two_step_signal, short_signal, long_signal, fig_automaton
):
    # the finer denominator arrives with the last segment, so the fold
    # rescales its carried table there while the whole trace is scaled
    # by 3 from the start
    late = Signal([segment({"x": 3.0}, 1), segment({"x": 8.0}, 1),
                   segment({"x": 12.0}, Fraction(1, 3))])
    for sig in (two_step_signal, short_signal, long_signal, late):
        for wa in weighted_variants(fig_automaton):
            inc, whole = check_incremental(sig, wa)
            assert inc == whole
    # l0 on 3, 8 and l1 on 12 at best; summed, l0 on 3 and l1 on 3, 8, 12
    assert [check_incremental(late, wa)[0] for wa in weighted_variants(fig_automaton)] == [
        True, 7.0, 12.0 + (-2.0 + 3.0 + 7.0)]


def test_arrangement_points_cover_boundaries(long_signal, wa_supinf):
    m = OnlineMatcher(wa_supinf)
    for seg in long_signal:
        m.feed(seg)
    pts = arrangement_points(long_signal, m.matchset)
    for b in long_signal.boundaries:
        assert b in pts
    assert pts == sorted(pts)
    assert all(0 <= p <= long_signal.duration for p in pts)
    # midpoints of consecutive coordinates are present
    base = [p for p in pts if p.denominator <= 2]
    assert Fraction(5, 4) in pts or len(pts) > len(base)


def test_pointwise_check_passes_on_reference_cases(
    two_step_signal, short_signal, fig_automaton
):
    for sig in (two_step_signal, short_signal):
        for wa in weighted_variants(fig_automaton):
            assert check_qtpm_pointwise(sig, wa) == []


def test_accepts_subsignal_hand_verdicts(long_signal, fig_automaton):
    a = fig_automaton
    assert accepts_subsignal(a, long_signal, 3, 15) is True
    assert accepts_subsignal(a, long_signal, 1, 2) is True
    assert accepts_subsignal(a, long_signal, 10, 15) is False
    assert accepts_subsignal(a, long_signal, 20, 25) is False
    assert accepts_subsignal(a, long_signal, 0, 16) is False
    assert accepts_subsignal(a, long_signal, 0, Fraction(61, 2)) is False
    with pytest.raises(ValueError):
        accepts_subsignal(a, long_signal, 5, 40)
    with pytest.raises(ValueError):
        accepts_subsignal(a, long_signal, 5, 5)


def test_qualitative_sign_agrees_with_margins(long_signal, fig_automaton, wa_supinf):
    m = OnlineMatcher(wa_supinf)
    for seg in long_signal:
        m.feed(seg)
    rng = random.Random(43)
    for _ in range(60):
        t = Fraction(rng.randint(0, 59), 2)
        tp = Fraction(rng.randint(int(2 * t) + 1, 61), 2)
        margin = m.matchset.query(t, tp)
        if margin == 0:
            continue
        want = margin > 0
        assert accepts_subsignal(fig_automaton, long_signal, t, tp) is want


def test_boolean_engine_agrees_with_enumeration():
    rng = random.Random(44)
    for _ in range(10):
        a = random_automaton(rng, dag=True)
        sig = random_signal(rng, max_segments=3)
        wa = WeightedAutomaton(a, BOOLEAN, CostKind.SAT)
        m = OnlineMatcher(wa)
        for seg in sig:
            m.feed(seg)
        pts = arrangement_points(sig, m.matchset)
        pairs = [(t, tp) for t in pts for tp in pts if 0 <= t < tp <= sig.duration]
        rng.shuffle(pairs)
        for t, tp in pairs[:10]:
            assert m.matchset.query(t, tp) == accepts_subsignal(a, sig, t, tp)
