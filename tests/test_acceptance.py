"""Release gate: nine end-to-end criteria, one test (and pass/fail line) each.

Criteria 5 and 6 route every zone the engine and the oracle build
through a bound audit, from outside the fold: `conftest.audited` wraps
each wait kernel, each fire kernel and the oracle's successors (with
the seeds at time 0 beside them).  Criterion 9 inspects what the audit
collected, so run the file as a whole for full coverage (each test still
passes standalone).
"""

import random
import time
from collections import Counter
from fractions import Fraction

import quantimatch.zone as zn
from quantimatch import cli
from quantimatch.automaton import CostKind, WeightedAutomaton, parse_automaton
from quantimatch.engine import OnlineMatcher, trace_value
from quantimatch.oracle import (
    accepts_subsignal,
    arrangement_points,
    check_qtpm_pointwise,
    reachable_graph,
)
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL
from quantimatch.signals import Signal, segment, value_of

from conftest import (
    OVERSHOOT_SPEC,
    audited,
    canonicalize,
    make,
    random_automaton,
    random_signal,
    weighted_variants,
)

F = Fraction

AUDIT = {"zones": 0, "violations": [], "sample": [], "sources": Counter()}
# what `audited` wraps, each counted in AUDIT["sources"]
AUDIT_SOURCES = ("wait in", "wait out", "fire out", "successors", "seeds")


def bound_audit(zone, scale, cur):
    """Every engine zone must satisfy 0 <= clock <= time <= elapsed for
    every clock except those freed as dead, with all finite bounds
    integral at the engine's time scale.  A freed clock keeps only
    clock >= 0: it is the one kind of clock unbounded against the time
    clock, and every other off-diagonal entry of its row is INF too."""
    AUDIT["zones"] += 1
    m = zn.matrix(zone)
    if m is None:
        return
    n = len(m) - 1  # the time clock is the last one
    problems = []
    for i in range(1, n + 1):
        if m[0][i][0] > 0:
            problems.append(f"clock {i} admits negative values")
        hi = m[i][0][0]
        if hi != INF and hi > cur:
            problems.append(f"clock {i} exceeds elapsed time {cur}")
        if i == n:
            continue
        if m[i][n][0] == INF:
            if any(m[i][j][0] != INF for j in range(n + 1) if j != i):
                problems.append(f"clock {i} is unbounded against the time clock but not freed")
        elif m[i][n][0] > 0:
            problems.append(f"clock {i} exceeds the time clock")
    for row in m:
        for value, _ in row:
            if value != INF and F(value).denominator != 1:
                problems.append(f"bound {value} not integral at scale {scale}")
    if problems:
        AUDIT["violations"].append((zone, scale, cur, problems))
    elif len(AUDIT["sample"]) < 300:
        AUDIT["sample"].append(zone)


def reference_wa(semiring, kind):
    return WeightedAutomaton(parse_automaton(OVERSHOOT_SPEC), semiring, kind)


def two_step():
    return Signal([segment({"x": 7.0}, F(7, 2)), segment({"x": 12.0}, F(7, 2))])


def short_sig():
    return Signal(
        [segment({"x": 10.0}, F(5, 2)), segment({"x": 40.0}, 1), segment({"x": 60.0}, 3)]
    )


def long_sig():
    return Signal(
        [segment({"x": 10.0}, F(15, 2)), segment({"x": 40.0}, 10), segment({"x": 60.0}, 13)]
    )


def check_time(budget, t0, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"
    return elapsed


def test_criterion_1_two_step_trace_and_transition_system():
    t0 = time.perf_counter()
    wa = reference_wa(SUPINF, CostKind.MIN_MARGIN)
    sig = two_step()
    assert trace_value(sig, wa) == 7.0
    g = reachable_graph(sig, wa)
    fires = {w for (_, _, w, kind) in g.edges if kind == "fire"}
    assert fires == {8.0, 3.0, 7.0, 2.0}
    pinned7 = [(2, 0, 7, False), (0, 2, -7, False)]
    jump = ("l1", make(("c", "T"), pinned7 + [(1, 0, 0, False)]), ())
    assert g.nodes[jump] == 8.0
    waited = ("l0", zn.point_zone(("c", "T"), 7), ((("x", 7.0),),))
    assert waited in g.nodes
    assert SUPINF.big_oplus(g.nodes[s] for s in g.accepting) == 7.0
    for loc, z, seq in g.accepting:
        assert loc == "l2" and seq == ()
        m = zn.matrix(z)
        assert m[2][0] == (14, False) and m[0][2] == (-14, False)
    check_time(1.0, t0, "criterion 1")
    print("criterion 1: PASS (trace 7, jump weights {8,3,7,2})")


def test_criterion_2_short_signal_min_margin():
    t0 = time.perf_counter()
    wa = reference_wa(SUPINF, CostKind.MIN_MARGIN)
    assert trace_value(short_sig(), wa) == 5.0
    check_time(1.0, t0, "criterion 2")
    print("criterion 2: PASS (trace value 5)")


def _sum_margin_by_enumeration(sig):
    """Independent score for the two-jump pattern: place the first jump
    in every arrangement cell of (0, 5), pin the second at the end."""
    bounds = sig.boundaries
    dur = sig.duration
    vals = [value_of(s.values, "x") for s in sig.segments]

    def covered(a, b):
        return [
            k
            for k in range(len(vals))
            if max(a, bounds[k]) < min(b, bounds[k + 1])
        ]

    top = min(dur, F(5))
    cuts = sorted({F(0), top, *(b for b in bounds if 0 < b < top)})
    candidates = [c for c in cuts if 0 < c < top]
    candidates += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    best = INF
    for th1 in candidates:
        if not (0 < th1 < 5 and dur - th1 < 10):
            continue
        k1 = sum(15.0 - vals[k] for k in covered(0, th1))
        k2 = sum(vals[k] - 5.0 for k in covered(th1, dur))
        best = min(best, k1 + k2)
    return best


def test_criterion_3_short_signal_sum_margin_matches_enumeration():
    t0 = time.perf_counter()
    wa = reference_wa(TROPICAL, CostKind.SUM_MARGIN)
    sig = short_sig()
    engine_value = trace_value(sig, wa)
    assert engine_value == _sum_margin_by_enumeration(sig)
    # minimum sits with the first jump strictly between the second and
    # third boundary: margins (5 - 25 - 45) + 55; the jump-at-boundary
    # placement would give 35 instead (see README and the match table)
    assert engine_value == -10.0
    check_time(1.0, t0, "criterion 3")
    print("criterion 3: PASS (enumeration agrees, value -10)")


H = F(1, 2)
T1, T2, T3 = F(15, 2), F(35, 2), F(61, 2)  # 7.5, 17.5, 30.5
V5_END = T2  # last moment the value-5 area can end


def _in_v5(t, tp):
    if not t < tp:
        return False
    return (0 <= t < T1 and 0 < tp <= T2 and tp - t < 10) or (
        0 <= t < T1 and 10 < tp <= T2 and 10 <= tp - t < 15
    )


def _in_v25(t, tp):
    if not t < tp:
        return False
    return (T1 <= t < T2 and T1 < tp <= T2 + 10 and tp - t < 10) or (
        F(5, 2) <= t < T2 and T2 < tp <= T2 + 10 and 10 <= tp - t < 15
    )


def _in_v45(t, tp):
    if not t < tp:
        return False
    return (T2 <= t < T3 and T2 < tp <= T3 and tp - t < 10) or (
        F(25, 2) <= t < T3 and T2 + 10 < tp <= T3 and 10 <= tp - t < 15
    )


def test_criterion_4_long_signal_match_table():
    t0 = time.perf_counter()
    wa = reference_wa(SUPINF, CostKind.MIN_MARGIN)
    m = OnlineMatcher(wa)
    for seg in long_sig():
        m.feed(seg)
    ms = m.matchset
    assert ms.query(3, 15) == 5.0
    assert ms.query(10, 15) == -25.0
    assert ms.query(0, 25) == -INF

    rng = random.Random(45)

    def sample(pred):
        while True:
            d = rng.choice((2, 3, 4, 5, 8))
            t = F(rng.randint(0, 30 * d), d)
            tp = F(rng.randint(1, int(T3 * d)), d)
            if t < tp <= T3 and pred(t, tp):
                return t, tp

    regions = [(5.0, _in_v5), (-25.0, _in_v25), (-45.0, _in_v45)]
    for value, pred in regions:
        for _ in range(100):
            t, tp = sample(pred)
            assert ms.query(t, tp) == value, (t, tp, value)

    def white(t, tp):
        return not (_in_v5(t, tp) or _in_v25(t, tp) or _in_v45(t, tp))

    for _ in range(100):
        t, tp = sample(white)
        assert ms.query(t, tp) == -INF, (t, tp)
    check_time(1.0, t0, "criterion 4")
    print("criterion 4: PASS (table values 5/-25/-45 and white area)")


def test_criterion_5_incremental_equals_whole_trace():
    t0 = time.perf_counter()
    rng = random.Random(20260815)
    count = 0
    with audited(bound_audit) as counts:
        while count < 201:
            a = random_automaton(rng)
            sig = random_signal(rng)
            for wa in weighted_variants(a):
                inc = trace_value(sig, wa)
                g = reachable_graph(sig, wa)
                whole = wa.semiring.big_oplus(g.nodes[s] for s in g.accepting)
                assert inc == whole, (wa.semiring.name, sig, a)
                count += 1
    AUDIT["sources"].update(counts)
    elapsed = check_time(60.0, t0, "criterion 5")
    print(f"criterion 5: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_6_queries_equal_restricted_traces():
    t0 = time.perf_counter()
    rng = random.Random(99)
    count = 0
    with audited(bound_audit) as counts:
        while count < 102:
            a = random_automaton(rng)
            sig = random_signal(rng)
            for wa in weighted_variants(a):
                mismatches = check_qtpm_pointwise(sig, wa)
                assert mismatches == [], (wa.semiring.name, mismatches[:3])
                count += 1
    AUDIT["sources"].update(counts)
    elapsed = check_time(120.0, t0, "criterion 6")
    print(f"criterion 6: PASS ({count} instances, {elapsed:.1f}s)")


def test_criterion_7_boolean_support_equals_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(7)
    points = 0
    for _ in range(50):
        a = random_automaton(rng, dag=True)
        sig = random_signal(rng)
        wa = WeightedAutomaton(a, BOOLEAN, CostKind.SAT)
        m = OnlineMatcher(wa)
        for seg in sig:
            m.feed(seg)
        pts = arrangement_points(sig, m.matchset)
        pairs = [(t, tp) for t in pts for tp in pts if 0 <= t < tp <= sig.duration]
        rng.shuffle(pairs)
        for t, tp in pairs[:12]:
            assert m.matchset.query(t, tp) == accepts_subsignal(a, sig, t, tp)
            points += 1
    print(f"criterion 7: PASS (50 instances, {points} sample points, "
          f"{time.perf_counter() - t0:.1f}s)")


STREAM_VALUES = (10.0, 40.0, 60.0, 20.0)
UNBOUNDED_SPEC = OVERSHOOT_SPEC.replace(" when c < 10", "")


def _stream(wa, n, probe=None):
    m = OnlineMatcher(wa)
    peak = 0
    probed = None
    t0 = time.perf_counter()
    for i in range(n):
        m.feed(segment({"x": STREAM_VALUES[i % 4]}, 10))
        peak = max(peak, m.footprint())
        if probe is not None and i + 1 == probe:
            probed = m.footprint()
    return time.perf_counter() - t0, peak, probed, m.footprint()


def test_criterion_8_scaling_shape():
    wa = reference_wa(SUPINF, CostKind.MIN_MARGIN)
    # each length runs twice, interleaved, and keeps its faster time:
    # with one run per length, seven runs of this test alone on a
    # two-core Xeon host read ratios from 1.82 to 2.34
    runs = [_stream(wa, n) for n in (5000, 10000, 5000, 10000)]
    t1, t2 = min(runs[0][0], runs[2][0]), min(runs[1][0], runs[3][0])
    peak1, peak2 = runs[0][1], runs[1][1]
    ratio = t2 / t1
    assert 1.6 <= ratio <= 2.6, f"runtime ratio {ratio:.2f}"
    assert abs(peak1 - peak2) < 0.10 * max(peak1, peak2), (peak1, peak2)

    unbounded = WeightedAutomaton(
        parse_automaton(UNBOUNDED_SPEC), SUPINF, CostKind.MIN_MARGIN
    )
    _, _, fp200, fp400 = _stream(unbounded, 400, probe=200)
    assert fp400 / fp200 > 2, (fp200, fp400)
    print(f"criterion 8: PASS (runtime ratio {ratio:.2f}, bounded peak "
          f"{peak1}/{peak2}, unbounded growth {fp400 / fp200:.2f}x)")


def test_criterion_8_streams_carry_pinned_footprints():
    """Criterion 8's streams carry exactly these tables: the unbounded
    footprint after 100 and 200 segments, and the bounded one's peak
    over 500.  A prune that keeps too much or too little moves them."""
    unbounded = WeightedAutomaton(
        parse_automaton(UNBOUNDED_SPEC), SUPINF, CostKind.MIN_MARGIN
    )
    _, _, fp100, fp200 = _stream(unbounded, 200, probe=100)
    assert (fp100, fp200) == (15354, 60704)
    _, peak, _, _ = _stream(reference_wa(SUPINF, CostKind.MIN_MARGIN), 500)
    assert peak == 16


SEMIRING_POOLS = {
    BOOLEAN: [True, False],
    SUPINF: [-INF, INF, -3.0, 0.0, 2.5, 7.0],
    TROPICAL: [INF, -INF, -4.0, 0.0, 1.5, 3.0],
}


def test_criterion_9_invariants(tmp_path, capsys):
    # algebra laws on all three instances
    rng = random.Random(46)
    for sr, pool in SEMIRING_POOLS.items():
        for _ in range(1500):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert sr.oplus(a, b) == sr.oplus(b, a)
            assert sr.oplus(sr.oplus(a, b), c) == sr.oplus(a, sr.oplus(b, c))
            assert sr.otimes(sr.otimes(a, b), c) == sr.otimes(a, sr.otimes(b, c))
            assert sr.oplus(a, a) == a
            assert sr.otimes(a, sr.oplus(b, c)) == sr.oplus(
                sr.otimes(a, b), sr.otimes(a, c)
            )
            assert sr.otimes(a, sr.zero) == sr.zero
            assert sr.otimes(a, sr.one) == a

    # zone bound audit over the randomized criteria (plus a local run so
    # this test also stands alone); each source audited something, so a
    # kernel called around the wrappers cannot empty the audit unseen
    with audited(bound_audit) as counts:
        for wa in weighted_variants(parse_automaton(OVERSHOOT_SPEC)):
            trace_value(short_sig(), wa)
            check_qtpm_pointwise(two_step(), wa)
            reachable_graph(short_sig(), wa)
    AUDIT["sources"].update(counts)
    assert AUDIT["zones"] > 0
    assert all(AUDIT["sources"][source] > 0 for source in AUDIT_SOURCES), AUDIT["sources"]
    assert AUDIT["violations"] == []

    # canonical form is a fixpoint on engine zones and random ones
    for z in AUDIT["sample"]:
        assert canonicalize(z) == z
    rng2 = random.Random(47)
    for _ in range(50):
        cons = [
            (rng2.randint(0, 2), rng2.randint(0, 2), rng2.randint(-4, 6), bool(rng2.getrandbits(1)))
            for _ in range(4)
        ]
        cons = [(i, j, v, s) for (i, j, v, s) in cons if i != j]
        z = make(("a", "b"), cons)
        assert canonicalize(z) == z

    # repeated command line runs are byte-identical
    spec = tmp_path / "overshoot.tsa"
    spec.write_text(OVERSHOOT_SPEC)
    sig = tmp_path / "long.txt"
    sig.write_text("x\n7.5 10\n10 40\n13 60\n")
    outputs = {"query": [], "grid": [], "monitor": []}
    for _ in range(2):
        for command, extra in (
            ("query", ["--query", "3", "15"]),
            ("grid", ["--grid", "10"]),
            ("monitor", []),
        ):
            code = cli.main(
                [command, "--spec", str(spec), "--semiring", "supinf",
                 "--cost", "r", "--signal", str(sig)] + extra
            )
            captured = capsys.readouterr()
            assert code == 0 and captured.err == ""
            outputs[command].append(captured.out)
    for command, (first, second) in outputs.items():
        assert first == second, command
    assert outputs["query"][0] == "5\n"
    print(f"criterion 9: PASS (laws, {AUDIT['zones']} zones audited, "
          "deterministic output)")
