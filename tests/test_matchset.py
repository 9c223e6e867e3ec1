"""Match-set table: merging, querying, and text rendering."""

import io
import random
from fractions import Fraction

import pytest

import quantimatch.zone as zn
from quantimatch.matchset import (
    MatchPiece,
    MatchSet,
    format_piece,
    format_time,
    format_value,
    zone_sort_key,
)
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL

TT = ("t", "t'")


def region(t_lo, t_hi, tp_lo, tp_hi, strict=(False, False, False, False)):
    sl, sh, pl, ph = strict
    return zn.make(
        TT,
        [
            (0, 1, -Fraction(t_lo), sl),
            (1, 0, Fraction(t_hi), sh),
            (0, 2, -Fraction(tp_lo), pl),
            (2, 0, Fraction(tp_hi), ph),
            (1, 2, 0, True),  # t < t'
        ],
    )


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
    r = region(0, 0, 0, Fraction(15, 2), strict=(False, False, True, True))
    piece = MatchPiece(r, 5.0)
    assert format_piece(piece) == "t in [0,0], t' in (0,7.5), t'-t in (0,7.5) : 5"
    r2 = region(0, 3, 2, 4)
    assert format_piece(MatchPiece(r2, -INF)).endswith(" : -inf")
    assert "t in [0,3]" in format_piece(MatchPiece(r2, -INF))


def test_insert_merges_with_oplus():
    ms = MatchSet(SUPINF)
    r = region(0, 2, 1, 3)
    assert ms.insert(r, 3.0) is True
    assert ms.insert(r, 5.0) is True
    assert ms.pieces() == [MatchPiece(r, 5.0)]
    assert ms.insert(r, 2.0) is False  # max already dominates
    assert len(ms) == 1


def test_insert_skips_empty_and_zero():
    ms = MatchSet(SUPINF)
    empty = zn.make(TT, [(1, 0, -1, False)])
    assert empty.m is None
    assert ms.insert(empty, 4.0) is False
    assert ms.insert(region(0, 1, 0, 2), -INF) is False
    assert len(ms) == 0


def test_tropical_insert_prefers_min():
    ms = MatchSet(TROPICAL)
    r = region(0, 2, 1, 3)
    ms.insert(r, 5.0)
    assert ms.insert(r, -2.0) is True
    assert ms.pieces() == [MatchPiece(r, -2.0)]
    assert ms.insert(r, 7.0) is False


def test_query_validates_window():
    ms = MatchSet(SUPINF)
    ms.horizon = Fraction(10)
    for t, tp in [(-1, 2), (2, 2), (3, 1), (3, Fraction(21, 2))]:
        with pytest.raises(ValueError):
            ms.query(t, tp)
    assert ms.query(3, 10) == -INF


def test_query_folds_overlapping_regions():
    ms = MatchSet(SUPINF)
    ms.insert(region(0, 5, 0, 10), 1.0)
    ms.insert(region(2, 8, 2, 12), 4.0)
    ms.horizon = Fraction(12)
    assert ms.query(3, 9) == 4.0
    assert ms.query(1, 2) == 1.0
    assert ms.query(Fraction(19, 2), 10) == -INF
    b = MatchSet(BOOLEAN)
    b.insert(region(0, 5, 0, 10), True)
    b.horizon = Fraction(10)
    assert b.query(1, 2) is True
    assert b.query(6, 9) is False


def test_pieces_order_is_insertion_independent():
    regions = [region(0, i, 1, i + 3) for i in range(1, 6)]
    ms1, ms2 = MatchSet(SUPINF), MatchSet(SUPINF)
    for i, r in enumerate(regions):
        ms1.insert(r, float(i))
    for i, r in reversed(list(enumerate(regions))):
        ms2.insert(r, float(i))
    assert ms1.pieces() == ms2.pieces()
    assert [format_piece(p) for p in ms1.pieces()] == [
        format_piece(p) for p in ms2.pieces()
    ]
    keys = [zone_sort_key(p.region) for p in ms1.pieces()]
    assert keys == sorted(keys)


def test_export_grid_rows_and_values():
    ms = MatchSet(SUPINF)
    ms.insert(region(0, 10, 0, 10), 2.0)
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
        weak = region(0, 2, 1, hi)
        strict = region(0, 2, 1, hi, strict=(False, False, False, True))
        assert weak != strict
        assert zone_sort_key(weak) < zone_sort_key(strict)
        for order in ((weak, strict), (strict, weak)):
            ms = MatchSet(SUPINF)
            for r in order:
                ms.insert(r, 1.0)
            assert [p.region for p in ms.pieces()] == [weak, strict]
