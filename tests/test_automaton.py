"""Specification DSL, cost functions, and the matching extension."""

from dataclasses import replace
from fractions import Fraction

import pytest

from quantimatch.automaton import (
    Atom,
    Automaton,
    CostKind,
    EvaluationError,
    Location,
    PairingError,
    ParseError,
    Transition,
    WeightedAutomaton,
    cost_value,
    matching_automaton,
    parse_automaton,
)
from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL
from quantimatch.signals import valuation

from conftest import OVERSHOOT_SPEC


def test_parse_overshoot_structure(fig_automaton):
    a = fig_automaton
    assert a.variables == ("x",)
    assert a.clocks == ("c",)
    assert [l.name for l in a.locations] == ["l0", "l1", "l2"]
    l0, l1, l2 = a.locations
    assert l0.initial and not l0.accepting
    assert l2.accepting and not l2.initial
    assert l0.label == (Atom("x", "<", Fraction(15)),)
    assert l1.label == (Atom("x", ">", Fraction(5)),)
    assert l2.label == ()
    t01, t12 = a.transitions
    assert (t01.source, t01.target) == ("l0", "l1")
    assert t01.guard == (Atom("c", "<", Fraction(5)),)
    assert t01.resets == ("c",)
    assert t12.guard == (Atom("c", "<", Fraction(10)),)
    assert t12.resets == ()
    assert a.initial_locations == (l0,)
    assert [l for l in a.locations if l.accepting] == [l2]
    assert a.location("l1") is l1
    with pytest.raises(KeyError):
        a.location("zz")


def test_parser_tolerates_comments_and_layout():
    text = "var x;//trailing\nclock   c;location l0 init accept[x<1&&x>=0];"
    a = parse_automaton(text)
    assert a.locations[0].initial and a.locations[0].accepting
    assert len(a.locations[0].label) == 2


@pytest.mark.parametrize(
    "text,line,col,fragment",
    [
        ("var x;\nclock c;\nlocation l0 init [y < 5];\n", 3, 19, "unknown variable 'y'"),
        ("var x;\nvar x;\n", 2, 5, "already declared"),
        (
            "var x;\nclock c;\nlocation l0 [x<1];\nedge l0 -> l0 when c < 2.5;\n",
            4,
            24,
            "must be integers",
        ),
        ("var x;\nclock c;\nlocation l0 [x<1];\nedge l0 -> l9;\n", 4, 12, "unknown location"),
        ("var x @", 1, 7, "unexpected character '@'"),
        ("", 1, 1, "no locations"),
        ("var x;\nlocation l0 accept [true];\n", 3, 1, "no initial location"),
        ("var x;\nlocation l0 init [x<1];\nlocation l1 [true];\nedge l0 -> l1;", 4, 15,
         "no accepting location"),
        ("var x;\nlocation var [true];\n", 2, 10, "expected location name"),
        ("var x;\nclock c;\nlocation l0 [x<1]\nlocation l1 [true];\n", 4, 1, "expected ';'"),
        ("var x;\nclock c;\nlocation l0 [x ! 1];\n", 1, 16, "unexpected character '!'"),
        ("clock c;\nlocation l0 [true];\nedge l0 -> l0 reset {d};\n", 3, 22, "unknown clock 'd'"),
        ("var x;\nlocation l0 [x x 1];\n", 2, 16, "expected comparison, got 'x'"),
        ("var x;\nlocation l0 [x < y];\n", 2, 18, "expected number, got 'y'"),
        ("var x;\nlocation l0 [true];\nfoo;\n", 3, 1, "expected declaration, got 'foo'"),
        ("var x;\nclock c;\nlocation l0 [x<1];\nedge l9 -> l0;\n", 4, 6,
         "unknown location 'l9'"),
    ],
)
def test_parse_diagnostics(text, line, col, fragment):
    with pytest.raises(ParseError) as e:
        parse_automaton(text)
    assert fragment in str(e.value)
    if "unexpected character" not in fragment:
        assert (e.value.line, e.value.col) == (line, col)


def test_negative_constants_parse():
    # a leading minus belongs to the number; "->" stays an arrow, with or
    # without spaces around it
    a = parse_automaton(
        "var x;\nclock c;\nlocation a init [x > -2 && x<=-0.5];\n"
        "location b accept [true];\nedge a->b when c >= -1;\n"
    )
    assert a.locations[0].label == (
        Atom("x", ">", Fraction(-2)), Atom("x", "<=", Fraction(-1, 2)),
    )
    assert a.transitions == (Transition("a", (Atom("c", ">=", Fraction(-1)),), (), "b"),)
    with pytest.raises(ParseError, match="unexpected character '-'"):
        parse_automaton("var x;\nlocation a [x > - 2];\n")


def test_cost_kind_codes():
    assert CostKind.from_code("b") is CostKind.SAT
    assert CostKind.from_code("r") is CostKind.MIN_MARGIN
    assert CostKind.from_code("t") is CostKind.SUM_MARGIN
    with pytest.raises(ValueError):
        CostKind.from_code("q")


def test_pairing_enforced(fig_automaton):
    for sr, kind in [
        (BOOLEAN, CostKind.SAT),
        (SUPINF, CostKind.MIN_MARGIN),
        (TROPICAL, CostKind.SUM_MARGIN),
    ]:
        WeightedAutomaton(fig_automaton, sr, kind)
    for sr, kind in [
        (BOOLEAN, CostKind.MIN_MARGIN),
        (BOOLEAN, CostKind.SUM_MARGIN),
        (SUPINF, CostKind.SAT),
        (SUPINF, CostKind.SUM_MARGIN),
        (TROPICAL, CostKind.SAT),
        (TROPICAL, CostKind.MIN_MARGIN),
    ]:
        with pytest.raises(PairingError):
            WeightedAutomaton(fig_automaton, sr, kind)


def test_fractional_clock_guard_is_rejected():
    def automaton(guard_const, label_const, label_var="x", label_op="<", guard_op="<",
                  clock="c", resets=("c",), target="l1"):
        return Automaton(
            ("x",),
            ("c",),
            (
                Location("l0", (Atom(label_var, label_op, label_const),), True, False),
                Location("l1", (), False, True),
            ),
            (Transition("l0", (Atom(clock, guard_op, guard_const),), resets, target),),
        )

    def rejected(a, match):
        with pytest.raises(ValueError, match=match):
            WeightedAutomaton(a, SUPINF, CostKind.MIN_MARGIN)

    rejected(automaton(Fraction(5, 2), Fraction(15)), r"l0 -> l1.*c < 5/2")
    # a float is no exact bound for the engine's integral zones
    rejected(automaton(5.0, Fraction(15)), r"l0 -> l1.*c < 5\.0")
    # a malformed programmatic automaton is named where it is wrong,
    # not misread nor left to fail inside the engine
    rejected(automaton(Fraction(5), Fraction(15), label_op="=="), r"location l0.*x == 15")
    rejected(automaton(Fraction(5), Fraction(15), label_var="y"), r"location l0.*y < 15")
    a = automaton(Fraction(5), Fraction(15))
    rejected(replace(a, locations=(*a.locations, a.locations[0])), r"location l0: declared twice")
    rejected(automaton(Fraction(5), Fraction(15), guard_op="=="), r"l0 -> l1.*c == 5")
    rejected(automaton(Fraction(5), Fraction(15), target="l9"), r"l0 -> l9.*undeclared location")
    rejected(automaton(Fraction(5), Fraction(15), clock="d"), r"l0 -> l1.*undeclared clock 'd'")
    rejected(automaton(Fraction(5), Fraction(15), resets=("c", "d")),
             r"l0 -> l1.*undeclared clock 'd'")
    # data constants in location labels may be fractional, and an int
    # guard constant is an integer
    WeightedAutomaton(automaton(Fraction(5), Fraction(5, 2)), SUPINF, CostKind.MIN_MARGIN)
    WeightedAutomaton(automaton(5, 2.5), SUPINF, CostKind.MIN_MARGIN)


LOW = (Atom("x", "<", Fraction(15)),)
HIGH = (Atom("x", ">", Fraction(5)),)


def test_min_margin_values():
    assert cost_value(CostKind.MIN_MARGIN, LOW, (valuation({"x": 7.0}),)) == 8
    assert cost_value(CostKind.MIN_MARGIN, LOW, (valuation({"x": 12.0}),)) == 3
    seq = (valuation({"x": 7.0}), valuation({"x": 12.0}))
    assert cost_value(CostKind.MIN_MARGIN, HIGH, seq) == 2
    assert cost_value(CostKind.MIN_MARGIN, HIGH, ()) == INF
    assert cost_value(CostKind.MIN_MARGIN, (), seq) == INF


def test_sum_margin_values():
    seq = tuple(valuation({"x": v}) for v in (10.0, 40.0, 60.0))
    assert cost_value(CostKind.SUM_MARGIN, LOW, seq) == -65.0
    assert cost_value(CostKind.SUM_MARGIN, HIGH, seq) == 95.0
    assert cost_value(CostKind.SUM_MARGIN, LOW, ()) == 0.0
    assert cost_value(CostKind.SUM_MARGIN, (), seq) == 0.0


def test_sum_margin_counts_a_value_each_time_it_recurs():
    """A sequence keeps no two adjacent values equal, but a value may
    recur after another one; its margin is summed at each occurrence."""
    seq = tuple(valuation({"x": v}) for v in (1.0, 2.0, 1.0))
    assert cost_value(CostKind.SUM_MARGIN, (Atom("x", ">", Fraction(0)),), seq) == 4.0


def test_sat_values():
    seq = tuple(valuation({"x": v}) for v in (10.0, 40.0))
    assert cost_value(CostKind.SAT, LOW, ()) is True
    assert cost_value(CostKind.SAT, LOW, seq) is False
    assert cost_value(CostKind.SAT, HIGH, seq) is True
    # boundary: strict atom fails at the constant, weak atom holds
    at = valuation({"x": 5.0})
    assert cost_value(CostKind.SAT, (Atom("x", ">", Fraction(5)),), (at,)) is False
    assert cost_value(CostKind.SAT, (Atom("x", ">=", Fraction(5)),), (at,)) is True


def test_margin_sign_agrees_with_sat():
    import random

    rng = random.Random(21)
    for _ in range(300):
        atoms = tuple(
            Atom("x", rng.choice(("<", "<=", ">", ">=")), Fraction(rng.randint(-3, 9)))
            for _ in range(rng.randint(1, 3))
        )
        seq = tuple(valuation({"x": float(rng.randint(-3, 9))}) for _ in range(rng.randint(1, 3)))
        margin = cost_value(CostKind.MIN_MARGIN, atoms, seq)
        sat = cost_value(CostKind.SAT, atoms, seq)
        if margin > 0:
            assert sat is True
        elif margin < 0:
            assert sat is False


def test_margin_shift_invariance():
    import random

    rng = random.Random(22)
    for _ in range(200):
        delta = rng.randint(-5, 5)
        op = rng.choice(("<", "<=", ">", ">="))
        const = rng.randint(-4, 8)
        v = float(rng.randint(-4, 8))
        base = cost_value(CostKind.MIN_MARGIN, (Atom("x", op, Fraction(const)),), (valuation({"x": v}),))
        moved = cost_value(
            CostKind.MIN_MARGIN,
            (Atom("x", op, Fraction(const + delta)),),
            (valuation({"x": v + delta}),),
        )
        assert base == moved


def test_sum_margin_splits_over_concatenation():
    a = tuple(valuation({"x": v}) for v in (10.0, 40.0))
    b = (valuation({"x": 60.0}),)
    whole = cost_value(CostKind.SUM_MARGIN, LOW, a + b)
    assert whole == cost_value(CostKind.SUM_MARGIN, LOW, a) + cost_value(
        CostKind.SUM_MARGIN, LOW, b
    )
    assert cost_value(CostKind.MIN_MARGIN, LOW, a + b) == min(
        cost_value(CostKind.MIN_MARGIN, LOW, a), cost_value(CostKind.MIN_MARGIN, LOW, b)
    )


def test_missing_variable_is_evaluation_error():
    with pytest.raises(EvaluationError, match="missing from signal"):
        cost_value(CostKind.MIN_MARGIN, LOW, (valuation({"y": 1.0}),))


def test_matching_automaton_shape(fig_automaton):
    m = matching_automaton(fig_automaton)
    assert m.clocks == ("c", "T'")
    assert [l.name for l in m.locations] == ["l0", "l1", "l2", "start"]
    assert m.initial_locations == (m.locations[-1],)
    assert m.locations[-1].label == ()
    assert [l.accepting for l in m.locations] == [False, False, True, False]
    bridge = m.transitions[-1]
    assert bridge.source == "start" and bridge.target == "l0"
    assert bridge.guard == () and set(bridge.resets) == {"c", "T'"}
    assert m.transitions[:-1] == fig_automaton.transitions


def test_matching_automaton_name_collisions():
    a = Automaton(
        ("x",),
        ("T'",),
        (Location("start", (), initial=True, accepting=True),),
        (),
    )
    m = matching_automaton(a)
    assert m.clocks == ("T'", "T'_")
    assert m.locations[-1].name == "start_"


def test_matching_automaton_zero_clocks():
    a = Automaton(("x",), (), (Location("only", (), True, True),), ())
    m = matching_automaton(a)
    assert m.clocks == ("T'",)
    assert m.transitions == (Transition("start", (), ("T'",), "only"),)


def test_matching_automaton_stacks():
    base = parse_automaton(OVERSHOOT_SPEC)
    twice = matching_automaton(matching_automaton(base))
    assert twice.clocks == ("c", "T'", "T'_")
    assert twice.locations[-1].name == "start_"
    assert twice.initial_locations == (twice.locations[-1],)
