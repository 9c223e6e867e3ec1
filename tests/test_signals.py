"""Piecewise-constant signals: construction, slicing, text format."""

import random
from fractions import Fraction
from itertools import groupby

import pytest

from quantimatch.signals import (
    EMPTY_SEQ,
    Segment,
    Signal,
    SignalFormatError,
    absorbing_concat,
    parse_signal,
    read_stream,
    segment,
    valuation,
)

from conftest import random_signal


def test_valuation_sorted_and_lookup():
    v = valuation({"y": 2.0, "x": 1.0})
    assert v == (("x", 1.0), ("y", 2.0))


def test_absorbing_concat():
    a = valuation({"x": 1.0})
    b = valuation({"x": 2.0})
    assert absorbing_concat(EMPTY_SEQ, (a,)) == (a,)
    assert absorbing_concat((a,), EMPTY_SEQ) == (a,)
    assert absorbing_concat((a,), (a,)) == (a,)
    assert absorbing_concat((a, b), (b, a)) == (a, b, a)
    assert absorbing_concat((a,), (b,)) == (a, b)


def test_signal_validation():
    with pytest.raises(ValueError, match="positive"):
        Signal([segment({"x": 1.0}, 0)])
    with pytest.raises(ValueError, match="variable set"):
        Signal([segment({"x": 1.0}, 1), segment({"y": 1.0}, 1)])


def test_segment_rejects_nonpositive_duration():
    for d in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            segment({"x": 1.0}, d)
        with pytest.raises(ValueError, match="positive"):
            Segment(valuation({"x": 1.0}), Fraction(d))


def test_segment_rejects_a_duration_that_is_not_an_int_or_fraction():
    for d in (0.5, 7.0, "1", None):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            Segment(valuation({"x": 7.0}), d)
    assert Segment(valuation({"x": 7.0}), 2).duration == 2


def test_segment_rejects_names_out_of_order():
    for values in ((("y", 1.0), ("x", 2.0)), (("x", 1.0), ("x", 2.0))):
        with pytest.raises(ValueError, match="not strictly increasing"):
            Segment(values, Fraction(1))


def test_segment_rejects_a_bool_duration():
    for d in (True, False):
        with pytest.raises(ValueError, match="not an int or Fraction"):
            Segment(valuation({"x": 7.0}), d)


def test_segment_helper_rejects_what_segment_rejects():
    """`segment` converts its arguments only as far as `Segment` would
    accept them: a bool, as a duration or a value, is not read as 1."""
    for d in (True, False):
        with pytest.raises(ValueError, match=f"segment duration {d} is not an int or Fraction"):
            segment({"x": 1}, d)
    for v in (True, False, "7", None):
        with pytest.raises(ValueError, match=rf"segment value x={v!r} is not a real number"):
            segment({"x": v}, 1)
    s = segment({"y": 2, "x": Fraction(1, 2)}, 0.5)
    assert s == Segment((("x", 0.5), ("y", 2.0)), Fraction(1, 2))
    assert all(type(v) is float for _, v in s.values)


def test_segment_rejects_a_value_that_is_not_a_real_number():
    # bool is a numbers.Real, but True would act as x = 1
    for v in ("a", None, 1j, (1.0,), True, False):
        with pytest.raises(ValueError, match=r"segment value x=.* is not a real number"):
            Segment((("x", v),), Fraction(1))
    assert Segment((("x", 1), ("y", Fraction(1, 2))), Fraction(1)).values[1] == ("y", Fraction(1, 2))


def test_segment_rejects_non_finite_value():
    for v in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="not finite"):
            segment({"x": 1.0, "y": v}, 1)


def test_boundaries_and_duration():
    sig = Signal([segment({"x": 1.0}, Fraction(5, 2)), segment({"x": 2.0}, 1)])
    assert sig.boundaries == (0, Fraction(5, 2), Fraction(7, 2))
    assert sig.duration == Fraction(7, 2)


def test_restrict_spanning(long_signal):
    cut = long_signal.restrict(3, 15)
    assert [s.values for s in cut.segments] == [
        valuation({"x": 10.0}),
        valuation({"x": 40.0}),
    ]
    assert [s.duration for s in cut.segments] == [Fraction(9, 2), Fraction(15, 2)]


def test_restrict_exact_segment(long_signal):
    cut = long_signal.restrict(Fraction(15, 2), Fraction(35, 2))
    assert len(cut.segments) == 1
    assert cut.segments[0].values == valuation({"x": 40.0})
    assert cut.segments[0].duration == 10


def test_restrict_inside_one_segment(long_signal):
    cut = long_signal.restrict(1, 2)
    assert len(cut.segments) == 1
    assert cut.duration == 1


def test_restrict_window_validation(long_signal):
    inf, nan = float("inf"), float("nan")
    # True would read as t = 1; Fraction(inf) raises OverflowError
    for t, tp in [(5, 5), (6, 5), (-1, 3), (0, 31), (True, 2), (0, True), (False, 2),
                  (0, inf), (-inf, 3), (nan, 3), (0, nan), (0, "1/0")]:
        with pytest.raises(ValueError, match=r"^restriction window \["):
            long_signal.restrict(t, tp)


def test_split_concat_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        sig = random_signal(rng)
        if sig.duration <= 1:
            continue
        mid = Fraction(rng.randint(1, int(sig.duration * 2) - 1), 2)
        left, right = sig.restrict(0, mid), sig.restrict(mid, sig.duration)
        assert left.duration + right.duration == sig.duration
        # value sequence: adjacent equal valuations collapse
        values = [tuple(k for k, _ in groupby(s.values for s in x)) for x in (left, right, sig)]
        assert absorbing_concat(values[0], values[1]) == values[2]
        # merged form: adjacent equal-valued segments summed
        rejoined = Signal(list(left.segments) + list(right.segments))
        merged = [
            [(k, sum(s.duration for s in g)) for k, g in groupby(x, key=lambda s: s.values)]
            for x in (rejoined, sig)
        ]
        assert merged[0] == merged[1]


def test_parse_signal_roundtrip():
    text = """
    # comment line
    x y

    2.5 1 2
    1/3 4 5
    """
    sig = parse_signal(text)
    assert sig.segments[0].duration == Fraction(5, 2)
    assert sig.segments[1].duration == Fraction(1, 3)
    assert sig.segments[0].values == valuation({"x": 1.0, "y": 2.0})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x\n1 2 3\n")
    assert e.value.lineno == 2
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x\n0 1\n")
    assert e.value.lineno == 2 and "positive" in str(e.value)
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x\nabc 1\n")
    assert "bad duration" in str(e.value)
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x\n1 abc\n")
    assert e.value.lineno == 2 and "bad value 'abc'" in str(e.value)
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x\n1 inf\n")
    assert "not finite" in str(e.value)
    with pytest.raises(SignalFormatError) as e:
        parse_signal("x x\n1 2 3\n")
    assert "duplicate" in str(e.value)
    # no header: reported at the line after the last one read
    with pytest.raises(SignalFormatError) as e:
        parse_signal("# only comments\n")
    assert e.value.lineno == 2 and "header" in str(e.value)
    for text, lineno in (("", 1), ("\n", 2), ("# a\n\n# b\n", 4)):
        with pytest.raises(SignalFormatError) as e:
            list(read_stream(text.splitlines(keepends=True)))
        assert e.value.lineno == lineno and str(e.value) == f"line {lineno}: missing header line"


def test_read_stream_is_incremental():
    lines = iter(["x\n", "1 5\n", "2 6\n"])
    stream = read_stream(lines)
    first = next(stream)
    assert first.duration == 1 and first.values == valuation({"x": 5.0})
    second = next(stream)
    assert second.duration == 2
