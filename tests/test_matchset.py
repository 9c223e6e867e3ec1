"""Match-set batches: inserting, querying, and text rendering."""

import io
import math
import random
from fractions import Fraction

import pytest

import quantimatch.zone as zn
from quantimatch.engine import OnlineMatcher
from quantimatch.matchset import (
    MatchPiece,
    MatchSet,
    format_piece,
    format_time,
    format_value,
    zone_sort_key,
)
from quantimatch.oracle import arrangement_points
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL

from conftest import make, random_automaton, random_signal, weighted_variants

TT = ("t", "t'")


def piece(value, t_lo, t_hi, tp_lo, tp_hi, strict=(False, False, False, False)):
    """The value on t in [t_lo, t_hi], t' in [tp_lo, tp_hi], t < t', with
    the region computed at the time scale of its bounds, as the engine
    does."""
    sl, sh, pl, ph = strict
    bounds = [Fraction(b) for b in (t_lo, t_hi, tp_lo, tp_hi)]
    scale = math.lcm(*(b.denominator for b in bounds))
    lo, hi, plo, phi = (int(b * scale) for b in bounds)
    region = make(
        TT,
        [
            (0, 1, -lo, sl),
            (1, 0, hi, sh),
            (0, 2, -plo, pl),
            (2, 0, phi, ph),
            (1, 2, 0, True),  # t < t'
        ],
    )
    return MatchPiece(region, value, scale)


def test_format_time():
    assert format_time(Fraction(3)) == "3"
    assert format_time(Fraction(7, 2)) == "3.5"
    assert format_time(Fraction(1, 4)) == "0.25"
    assert format_time(Fraction(3, 20)) == "0.15"
    assert format_time(Fraction(1, 8)) == "0.125"
    assert format_time(Fraction(1, 3)) == "1/3"
    assert format_time(Fraction(-5, 2)) == "-2.5"
    assert format_time(INF) == "inf"


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(INF) == "inf"
    assert format_value(-INF) == "-inf"
    assert format_value(5.0) == "5"
    assert format_value(-45.0) == "-45"
    assert format_value(2.5) == "2.5"


def test_format_piece_rendering():
    p = piece(5.0, 0, 0, 0, Fraction(15, 2), strict=(False, False, True, True))
    assert p.den == 2
    assert format_piece(p) == "t in [0,0], t' in (0,7.5), t'-t in (0,7.5) : 5"
    p2 = piece(-INF, 0, 3, 2, 4)
    assert format_piece(p2).endswith(" : -inf")
    assert "t in [0,3]" in format_piece(p2)


def test_insert_rejects_an_end_not_past_the_horizon():
    ms = MatchSet(SUPINF)
    assert ms.horizon == 0 and len(ms) == 0
    r = piece(3.0, 0, 2, 1, 3)
    with pytest.raises(ValueError):
        ms.insert(0, [r])
    # True would read as 1, past the empty set's horizon
    for end in (True, False):
        with pytest.raises(ValueError, match=f"^{end} is a bool, not a number$"):
            ms.insert(end, [r])
    # Fraction(inf) raises OverflowError, Fraction(nan) its own
    # ValueError and Fraction("1/0") ZeroDivisionError
    for end in (float("inf"), float("-inf"), float("nan"), "1/0"):
        with pytest.raises(ValueError, match=f"^{end} is not a finite rational$"):
            ms.insert(end, [r])
    assert ms.horizon == 0 and len(ms) == 0
    ms.insert(3, [r])
    for end in (3, Fraction(5, 2), -1):
        with pytest.raises(ValueError):
            ms.insert(end, [piece(4.0, 0, 2, 1, 2)])
    assert ms.horizon == 3 and ms.pieces() == [r] and len(ms) == 1
    ms.insert(Fraction(7, 2), [])
    assert ms.horizon == Fraction(7, 2) and ms.pieces() == [r]


def test_query_at_a_batch_end_reads_that_batch():
    # batch 1 is (0, 2], batch 2 is (2, 4]; a piece of batch 1 closed at
    # t' = 2 holds there, and nothing of batch 2 does
    ms = MatchSet(SUPINF)
    ms.insert(2, [piece(3.0, 0, 1, 1, 2, strict=(False, False, True, False))])
    ms.insert(4, [piece(7.0, 0, 1, 2, 4, strict=(False, False, True, False))])
    assert ms.query(Fraction(1, 2), 2) == 3.0
    assert ms.query(Fraction(1, 2), Fraction(5, 2)) == 7.0
    assert ms.query(Fraction(1, 2), 4) == 7.0
    assert ms.query(Fraction(3, 2), 2) == -INF


def caps(p: MatchPiece) -> list:
    """p's region as decoded bounds (i, j, cap, strict): x_i - x_j is at
    most cap, or below it if strict, over (x_0, x_1, x_2) = (0, t, t')."""
    return [
        (i, j, Fraction(v, p.den), strict)
        for i, row in enumerate(zn.matrix(p.region))
        for j, (v, strict) in enumerate(row)
        if v != INF
    ]


def fold_at(sr, rows, t, tp):
    """The fold of the values of the rows, (caps, value) pairs, whose
    regions contain (t, t')."""
    xs = (0, Fraction(t), Fraction(tp))
    gaps = [[a - b for b in xs] for a in xs]
    return sr.big_oplus(
        value for bounds, value in rows
        if not any(gaps[i][j] > cap or (strict and gaps[i][j] == cap)
                   for i, j, cap, strict in bounds)
    )


def test_batched_query_folds_every_piece_containing_the_point():
    """Reading one batch is exact: every row of segment k has t' in
    (b_{k-1}, b_k], so no other batch holds a region containing a point
    with such a t'."""
    rng = random.Random(36)
    checked = 0
    for _ in range(6):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=3)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            for seg in sig:
                m.feed(seg)
            ms = m.matchset
            rows = [(caps(p), p.value) for p in ms.pieces()]
            pts = arrangement_points(sig, ms)
            for i, t in enumerate(pts):
                for tp in pts[i + 1:]:
                    want = fold_at(wa.semiring, rows, t, tp)
                    assert ms.query(t, tp) == want, (t, tp)
                    checked += 1
    assert checked > 0


def test_query_validates_window():
    ms = MatchSet(SUPINF)
    ms.insert(10, [])
    for t, tp in [(-1, 2), (2, 2), (3, 1), (3, Fraction(21, 2))]:
        with pytest.raises(ValueError):
            ms.query(t, tp)
    assert ms.query(3, 10) == -INF


def test_infinite_or_nan_input_is_a_value_error():
    ms = MatchSet(SUPINF)
    ms.insert(10, [])
    nan = float("nan")
    for t, tp in [(0, INF), (INF, 3), (nan, 3), (0, nan), (0, "1/0")]:
        with pytest.raises(ValueError, match="need 0 <= t < t' <= 10"):
            ms.query(t, tp)
    for delta in (INF, nan, "1/0"):
        with pytest.raises(ValueError, match="delta must be positive"):
            ms.export_grid(io.StringIO(), delta)


def test_query_folds_overlapping_regions():
    ms = MatchSet(SUPINF)
    ms.insert(12, [piece(1.0, 0, 5, 0, 10), piece(4.0, 2, 8, 2, 12)])
    assert ms.query(3, 9) == 4.0
    assert ms.query(1, 2) == 1.0
    assert ms.query(Fraction(19, 2), 10) == -INF
    b = MatchSet(BOOLEAN)
    b.insert(10, [piece(True, 0, 5, 0, 10)])
    assert b.query(1, 2) is True
    assert b.query(6, 9) is False


def test_export_grid_rows_and_values():
    ms = MatchSet(SUPINF)
    ms.insert(10, [piece(2.0, 0, 10, 0, 10)])
    out = io.StringIO()
    ms.export_grid(out, Fraction(5, 2))
    lines = out.getvalue().splitlines()
    assert lines[0] == "t\tt'\tvalue"
    n = 4
    assert len(lines) - 1 == n * (n + 1) // 2
    for line in lines[1:]:
        t, tp, val = line.split("\t")
        want = ms.query(Fraction(t), Fraction(tp))
        assert format_value(want) == val
    with pytest.raises(ValueError):
        ms.export_grid(io.StringIO(), 0)


def test_export_grid_equals_pointwise_reference():
    """Every grid line is the fold, over every row of every batch, of the
    rows whose decoded regions hold the point."""
    rng = random.Random(37)
    lines = matched = 0
    for _ in range(12):
        a = random_automaton(rng)
        sig = random_signal(rng, max_segments=2)
        for wa in weighted_variants(a):
            m = OnlineMatcher(wa)
            for seg in sig:
                m.feed(seg)
            ms = m.matchset
            rows = [(caps(p), p.value) for p in ms.pieces()]
            for delta in (Fraction(1, 3), Fraction(2, 7), sig.duration / 5):
                out = io.StringIO()
                ms.export_grid(out, delta)
                got = out.getvalue().splitlines()
                n = int(sig.duration / delta)
                want = ["t\tt'\tvalue"]
                for i in range(n + 1):
                    for j in range(i + 1, n + 1):
                        t, tp = i * delta, j * delta
                        value = fold_at(wa.semiring, rows, t, tp)
                        want.append(
                            f"{format_time(t)}\t{format_time(tp)}\t{format_value(value)}"
                        )
                assert got == want, (wa.semiring.name, delta)
                lines += len(got) - 1
                zero = f"\t{format_value(wa.semiring.zero)}"
                matched += sum(not line.endswith(zero) for line in got[1:])
    assert lines > 5000 and matched > 1000


def test_grid_of_empty_set_is_all_zero():
    ms = MatchSet(TROPICAL)
    ms.insert(2, [])
    out = io.StringIO()
    ms.export_grid(out, 1)
    lines = out.getvalue().splitlines()[1:]
    assert lines and all(l.endswith("\tinf") for l in lines)


def test_zone_sort_key_orders_as_decoded_bounds():
    rng = random.Random(38)

    def entry():
        if rng.random() < 0.15:
            return zn.INF
        return zn.encode(rng.randint(-3, 3), rng.random() < 0.5)

    # regions: the diagonal is (0, weak), INF may sit anywhere off it
    zones = [tuple(1 if k in (0, 4, 8) else entry() for k in range(9)) for _ in range(2000)]
    decoded = sorted(zones, key=lambda z: tuple(zn.decode(e) for e in z))
    assert sorted(zones, key=zone_sort_key) == decoded


def test_bound_text_is_the_rational_over_its_time_scale():
    # every bound format_piece prints reads as format_time of v / den; one
    # int recurs over every scale, so bound text must depend on both
    rng = random.Random(41)
    dens = (*range(1, 13), 16, 20, 25, 40, 56, 125)
    rows = [(den, [rng.randint(-300, 300) for _ in range(6)]) for den in dens * 20]
    rows += [(den, [-7, 7, -7, 7, 7, 7]) for den in dens]
    rng.shuffle(rows)
    upper_inf = 0
    for den, vs in rows:
        strict = [rng.random() < 0.5 for _ in range(6)]
        if rng.random() < 0.1:
            vs[3] = INF  # t' has no upper bound
        upper_inf += vs[3] == INF

        def text(v):
            return format_time(v if v == INF else Fraction(v, den))

        intervals = [
            f"{'(' if strict[2 * k] else '['}{text(vs[2 * k])},{text(vs[2 * k + 1])}"
            f"{')' if strict[2 * k + 1] or vs[2 * k + 1] == INF else ']'}"
            for k in range(3)
        ]
        enc = [zn.encode(-v if k % 2 == 0 else v, strict[k]) for k, v in enumerate(vs)]
        region = (1, enc[0], enc[2], enc[1], 1, enc[4], enc[3], enc[5], 1)
        want = f"t in {intervals[0]}, t' in {intervals[1]}, t'-t in {intervals[2]} : 2.5"
        assert format_piece(MatchPiece(region, 2.5, den)) == want
    assert upper_inf


def test_weak_bound_sorts_before_strict_of_equal_value():
    # the two regions differ only in whether t' < 3 or t' <= 3; then the
    # same at a half-integer value, where both regions are at time scale 2
    for hi in (3, Fraction(7, 2)):
        weak = piece(1.0, 0, 2, 1, hi)
        strict = piece(1.0, 0, 2, 1, hi, strict=(False, False, False, True))
        assert weak.den == strict.den
        assert weak.region != strict.region
        assert zone_sort_key(weak.region) < zone_sort_key(strict.region)


def test_query_reads_bounds_over_the_piece_denominator():
    # the same ints over denominators 1 and 2 are different regions
    ints = piece(3.0, 0, 3, 1, 7)
    halves = MatchPiece(ints.region, 5.0, 2)  # t in [0,1.5], t' in [0.5,3.5]
    ms = MatchSet(SUPINF)
    ms.insert(7, [ints, halves])
    assert len(ms) == 2
    assert ms.query(1, 3) == 5.0
    assert ms.query(Fraction(3, 2), Fraction(7, 2)) == 5.0
    assert ms.query(2, 6) == 3.0
    assert ms.query(Fraction(1, 2), 4) == 3.0
    assert ms.query(4, 6) == -INF


def test_query_on_row_bounds_equals_decoded_fold():
    """Points on a row's bounds, and a quarter unit to either side, with
    weak and strict bounds on t, t' and t' - t, some uppers absent, and
    rows at two time scales in one batch: `query` folds the rows whose
    decoded regions hold the point, as `zone.contains` decides them."""
    rng = random.Random(42)
    horizon = 8
    quarter = Fraction(1, 4)
    # x_i - x_j <= cap bounds coordinate k (t, t' or t' - t) by sign * cap
    coords = {(1, 0): (0, 1), (0, 1): (0, -1), (2, 0): (1, 1), (0, 2): (1, -1),
              (2, 1): (2, 1), (1, 2): (2, -1)}

    def interval(lo_max, hi_max):
        lo = rng.randint(0, lo_max)
        return lo, INF if rng.random() < 0.25 else rng.randint(lo, hi_max)

    on_bound = checked = matched = 0
    for _ in range(10):
        rows = []
        for den in rng.sample((1, 2, 3, 4, 5), 2) * 4:
            span = horizon * den
            (lo, hi), (plo, phi), (dlo, dhi) = (
                interval(span // 2, span), interval(span, span), interval(span // 2, span)
            )
            s = [rng.random() < 0.5 for _ in range(6)]
            region = make(TT, [
                (0, 1, -lo, s[0]), (1, 0, hi, s[1]),
                (0, 2, -plo, s[2]), (2, 0, phi, s[3]),
                (1, 2, -dlo, s[4]), (2, 1, dhi, s[5]),
                (1, 2, 0, True),  # t < t'
            ])
            if region is not None:
                rows.append(MatchPiece(region, float(rng.randint(-9, 9)), den))
        ms = MatchSet(SUPINF)
        ms.insert(horizon, rows)
        decoded = [(caps(p), p.value) for p in rows]
        marks = [set(), set(), set()]  # the finite bounds of each coordinate
        for p in rows:
            for i, j, cap, _ in caps(p):
                if (i, j) in coords:
                    k, sign = coords[i, j]
                    marks[k].add(sign * cap)
        near = [{m + d for m in marked for d in (-quarter, 0, quarter)} for marked in marks]
        points = {(t, tp) for t in near[0] for tp in near[1]}
        points |= {(t, t + d) for t in near[0] for d in near[2]}
        points |= {(tp - d, tp) for tp in near[1] for d in near[2]}
        for t, tp in sorted(points):
            if not 0 <= t < tp <= horizon:
                continue
            on_bound += t in marks[0] or tp in marks[1] or tp - t in marks[2]
            want = fold_at(SUPINF, decoded, t, tp)
            q = math.lcm(t.denominator, tp.denominator)
            kernel = SUPINF.big_oplus(
                p.value for p in rows
                if zn.contains(p.region, (int(t * q) * p.den, int(tp * q) * p.den), q)
            )
            got = ms.query(t, tp)
            assert got == want == kernel, (t, tp)
            checked += 1
            matched += got != SUPINF.zero
    assert on_bound > 1000 and matched > 1000 and checked > matched


def test_query_reads_times_as_fraction_does_and_rejects_bools():
    ms = MatchSet(SUPINF)
    ms.insert(4, [
        piece(3.0, 0, 1, Fraction(1, 2), 4, strict=(False, True, False, False)),
        piece(5.0, Fraction(1, 2), 2, 1, Fraction(7, 2)),
    ])
    windows = [
        (0, 1), (1, 3), (Fraction(1, 2), Fraction(7, 2)), ("1/2", "7/2"),
        (0.5, 3.5), ("0.5", 2), (0.25, Fraction(3, 4)), ("1", "4"),
    ]
    values = set()
    for t, tp in windows:
        want = ms.query(Fraction(t), Fraction(tp))
        assert ms.query(t, tp) == want == fold_at(
            SUPINF, [(caps(p), p.value) for p in ms.pieces()], t, tp
        ), (t, tp)
        values.add(want)
    assert values == {-INF, 3.0, 5.0}
    # the message names the arguments as they were given
    for t, tp in [(True, 2), (False, 2), (0, True), (0.5, 5), ("1/2", "9/2")]:
        with pytest.raises(ValueError, match=rf"^need 0 <= t < t' <= 4, got \({t}, {tp}\)$"):
            ms.query(t, tp)
    for delta in (True, False):
        with pytest.raises(ValueError, match="delta must be positive"):
            ms.export_grid(io.StringIO(), delta)
    grids = set()
    for delta in (1, Fraction(1, 2), "1/2", 0.5):
        out = io.StringIO()
        ms.export_grid(out, delta)
        grids.add(out.getvalue())
    assert len(grids) == 2


def test_int_and_fraction_windows_build_and_compare_no_fraction(monkeypatch):
    ms = MatchSet(SUPINF)
    ms.insert(2, [piece(3.0, 0, 1, Fraction(1, 2), 2)])
    ms.insert(Fraction(9, 2), [
        piece(5.0, Fraction(1, 2), 2, 2, 4, strict=(False, False, True, False)),
    ])
    windows = [(Fraction(1, 4), 1), (1, Fraction(7, 2)), (0, 2), (Fraction(1, 2), Fraction(9, 2))]

    def forbidden(*args, **kwargs):
        raise AssertionError("Fraction built, compared or computed with")

    for name in ("__new__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                 "__add__", "__sub__", "__mul__", "__truediv__", "__floordiv__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    assert [ms.query(t, tp) for t, tp in windows] == [3.0, 5.0, 3.0, -INF]
