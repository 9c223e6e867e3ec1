"""Match-set table: merging, querying, and text rendering."""

import io
import math
from fractions import Fraction

import pytest

import quantimatch.zone as zn
from quantimatch.matchset import (
    MatchPiece,
    MatchSet,
    format_piece,
    format_time,
    format_value,
    scaled_piece,
    zone_sort_key,
)
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL

TT = ("t", "t'")


def piece(value, t_lo, t_hi, tp_lo, tp_hi, strict=(False, False, False, False)):
    """The value on t in [t_lo, t_hi], t' in [tp_lo, tp_hi], t < t', with
    the region computed at the time scale of its bounds, as the engine
    does."""
    sl, sh, pl, ph = strict
    bounds = [Fraction(b) for b in (t_lo, t_hi, tp_lo, tp_hi)]
    scale = math.lcm(*(b.denominator for b in bounds))
    lo, hi, plo, phi = (int(b * scale) for b in bounds)
    region = zn.make(
        TT,
        [
            (0, 1, -lo, sl),
            (1, 0, hi, sh),
            (0, 2, -plo, pl),
            (2, 0, phi, ph),
            (1, 2, 0, True),  # t < t'
        ],
    )
    return scaled_piece(region, value, scale)


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


def test_insert_merges_with_oplus():
    ms = MatchSet(SUPINF)
    r = (0, 2, 1, 3)
    assert ms.insert(piece(3.0, *r)) is True
    assert ms.insert(piece(5.0, *r)) is True
    assert ms.pieces() == [piece(5.0, *r)]
    assert ms.insert(piece(2.0, *r)) is False  # max already dominates
    assert len(ms) == 1


def test_insert_skips_empty_and_zero():
    ms = MatchSet(SUPINF)
    empty = zn.make(TT, [(1, 0, -1, False)])
    assert empty.m is None
    assert ms.insert(MatchPiece(empty, 4.0, 1)) is False
    assert ms.insert(piece(-INF, 0, 1, 0, 2)) is False
    assert len(ms) == 0


def test_tropical_insert_prefers_min():
    ms = MatchSet(TROPICAL)
    r = (0, 2, 1, 3)
    ms.insert(piece(5.0, *r))
    assert ms.insert(piece(-2.0, *r)) is True
    assert ms.pieces() == [piece(-2.0, *r)]
    assert ms.insert(piece(7.0, *r)) is False


def test_query_validates_window():
    ms = MatchSet(SUPINF)
    ms.horizon = Fraction(10)
    for t, tp in [(-1, 2), (2, 2), (3, 1), (3, Fraction(21, 2))]:
        with pytest.raises(ValueError):
            ms.query(t, tp)
    assert ms.query(3, 10) == -INF


def test_query_folds_overlapping_regions():
    ms = MatchSet(SUPINF)
    ms.insert(piece(1.0, 0, 5, 0, 10))
    ms.insert(piece(4.0, 2, 8, 2, 12))
    ms.horizon = Fraction(12)
    assert ms.query(3, 9) == 4.0
    assert ms.query(1, 2) == 1.0
    assert ms.query(Fraction(19, 2), 10) == -INF
    b = MatchSet(BOOLEAN)
    b.insert(piece(True, 0, 5, 0, 10))
    b.horizon = Fraction(10)
    assert b.query(1, 2) is True
    assert b.query(6, 9) is False


def test_pieces_order_is_insertion_independent():
    # bounds at halves and at integers: the pieces' denominators differ
    pieces = [piece(float(i), 0, Fraction(i, 2), 1, i + 3) for i in range(1, 6)]
    assert {p.den for p in pieces} == {1, 2}
    ms1, ms2 = MatchSet(SUPINF), MatchSet(SUPINF)
    for p in pieces:
        ms1.insert(p)
    for p in reversed(pieces):
        ms2.insert(p)
    assert ms1.pieces() == ms2.pieces()
    assert [format_piece(p) for p in ms1.pieces()] == [
        format_piece(p) for p in ms2.pieces()
    ]
    keys = [zone_sort_key(p.region, p.den) for p in ms1.pieces()]
    assert keys == sorted(keys)
    assert ms1.pieces() == pieces


def test_export_grid_rows_and_values():
    ms = MatchSet(SUPINF)
    ms.insert(piece(2.0, 0, 10, 0, 10))
    ms.horizon = Fraction(10)
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


def test_grid_of_empty_set_is_all_zero():
    ms = MatchSet(TROPICAL)
    ms.horizon = Fraction(2)
    out = io.StringIO()
    ms.export_grid(out, 1)
    lines = out.getvalue().splitlines()[1:]
    assert lines and all(l.endswith("\tinf") for l in lines)


def test_weak_bound_sorts_before_strict_of_equal_value():
    # the two regions differ only in whether t' < 3 or t' <= 3; then the
    # same at a half-integer value, which lives over denominator 2
    for hi in (3, Fraction(7, 2)):
        weak = piece(1.0, 0, 2, 1, hi)
        strict = piece(1.0, 0, 2, 1, hi, strict=(False, False, False, True))
        assert weak.region != strict.region
        assert zone_sort_key(weak.region, weak.den) < zone_sort_key(strict.region, strict.den)
        for order in ((weak, strict), (strict, weak)):
            ms = MatchSet(SUPINF)
            for p in order:
                ms.insert(p)
            assert ms.pieces() == [weak, strict]


def test_query_reads_bounds_over_the_piece_denominator():
    # the same ints over denominators 1 and 2 are different regions
    ints = piece(3.0, 0, 3, 1, 7)
    halves = scaled_piece(ints.region, 5.0, 2)  # t in [0,1.5], t' in [0.5,3.5]
    assert halves.den == 2
    ms = MatchSet(SUPINF)
    ms.insert(ints)
    ms.insert(halves)
    ms.horizon = Fraction(7)
    assert len(ms) == 2
    assert ms.query(1, 3) == 5.0
    assert ms.query(Fraction(3, 2), Fraction(7, 2)) == 5.0
    assert ms.query(2, 6) == 3.0
    assert ms.query(Fraction(1, 2), 4) == 3.0
    assert ms.query(4, 6) == -INF
