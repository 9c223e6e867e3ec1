"""Timed symbolic automata over real-valued signals.

Locations carry data constraints (conjunctions of `x ⋈ d` atoms) instead
of alphabet letters; transitions carry integer-bounded clock guards and
reset sets.  A `WeightedAutomaton` pairs the automaton with a semiring
and a cost kind; the cost of taking a transition is `cost_value` of the
source location's label against the value sequence observed since the
previous transition.

The text format is parsed by a hand-rolled tokenizer/recursive-descent
pair; names must be declared before use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .semiring import INF, Semiring
from .signals import ValueSeq, value_of


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class PairingError(ValueError):
    """Cost kind and semiring do not belong together."""


class EvaluationError(ValueError):
    """A well-formed run could not be scored (e.g. missing variable)."""


_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class Atom:
    var: str
    op: str  # one of < <= > >=
    const: Fraction


@dataclass(frozen=True)
class Location:
    name: str
    label: tuple[Atom, ...]
    initial: bool = False
    accepting: bool = False


@dataclass(frozen=True)
class Transition:
    source: str
    guard: tuple[Atom, ...]
    resets: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class Automaton:
    variables: tuple[str, ...]
    clocks: tuple[str, ...]
    locations: tuple[Location, ...]
    transitions: tuple[Transition, ...]

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

    @property
    def initial_locations(self) -> tuple[Location, ...]:
        return tuple(l for l in self.locations if l.initial)


class CostKind(Enum):
    SAT = "b"
    MIN_MARGIN = "r"
    SUM_MARGIN = "t"

    @classmethod
    def from_code(cls, code: str) -> "CostKind":
        for kind in cls:
            if kind.value == code:
                return kind
        raise ValueError(f"unknown cost kind {code!r}")


_PAIRING = {
    CostKind.SAT: "boolean",
    CostKind.MIN_MARGIN: "supinf",
    CostKind.SUM_MARGIN: "tropical",
}


@dataclass(frozen=True)
class WeightedAutomaton:
    automaton: Automaton
    semiring: Semiring
    cost: CostKind

    def __post_init__(self):
        expected = _PAIRING[self.cost]
        if self.semiring.name != expected:
            raise PairingError(
                f"cost kind {self.cost.value!r} requires the {expected} semiring, "
                f"not {self.semiring.name}"
            )
        a = self.automaton
        names = [l.name for l in a.locations]
        for l in a.locations:
            if names.count(l.name) > 1:
                raise ValueError(f"location {l.name}: declared twice")
            for at in l.label:
                if at.var not in a.variables or at.op not in _OPS:
                    raise ValueError(f"location {l.name}: label atom {at.var} {at.op} {at.const} "
                                     f"is not a comparison {' '.join(_OPS)} of a declared variable")
        for tr in a.transitions:
            where = f"transition {tr.source} -> {tr.target}"
            if tr.source not in names or tr.target not in names:
                raise ValueError(f"{where}: undeclared location")
            for c in (*(at.var for at in tr.guard), *tr.resets):
                if c not in a.clocks:
                    raise ValueError(f"{where}: undeclared clock {c!r}")
            for at in tr.guard:
                # the engine's zones keep integral bounds only for integer guards
                if at.op not in _OPS or not isinstance(at.const, (int, Fraction)) \
                        or at.const.denominator != 1:
                    raise ValueError(f"{where}: clock guard {at.var} {at.op} {at.const} "
                                     f"is not a comparison {' '.join(_OPS)} with an integer")


def _eval_atom(op: str, d: float, value: float) -> bool:
    if op == "<":
        return value < d
    if op == "<=":
        return value <= d
    if op == ">":
        return value > d
    return value >= d


def _margin(op: str, d: float, value: float) -> float:
    # signed distance to the constraint boundary: positive iff satisfied
    # (up to the boundary itself for strict atoms)
    return value - d if op in (">", ">=") else d - value


def cost_value(kind: CostKind, label: tuple[Atom, ...], seq: ValueSeq):
    """Score a value sequence against a location label.

    SAT: conjunction of satisfaction over all elements and atoms.
    MIN_MARGIN: infimum of the signed margins.
    SUM_MARGIN: sum over elements of the per-element margin sum.
    The empty label scores the multiplicative identity of its semiring.
    """
    # each atom's constant as a float, converted once per call
    atoms = [(at.var, at.op, float(at.const)) for at in label]
    try:
        if kind is CostKind.SAT:
            return all(
                _eval_atom(op, d, value_of(a, var)) for a in seq for var, op, d in atoms
            )
        if kind is CostKind.MIN_MARGIN:
            return min(
                (_margin(op, d, value_of(a, var)) for a in seq for var, op, d in atoms),
                default=INF,
            )
        # a plain left fold, which `sum` is not on every Python version
        total = 0.0
        for a in seq:
            for var, op, d in atoms:
                total += _margin(op, d, value_of(a, var))
        return total
    except KeyError as exc:
        raise _missing(exc) from None


def cost_extender(kind: CostKind, label: tuple[Atom, ...]):
    """`cost_value` of a location label as a step per valuation.

    Returns (cost of the empty sequence, extend): `extend(cost, a)` is
    the cost of a sequence extended by the valuation `a`, given the
    cost of the sequence.  Stepping from the empty sequence's cost gives
    `cost_value` of every sequence bit for bit: SUM_MARGIN continues the
    same left fold, MIN_MARGIN keeps the first least margin as `min`
    does, and SAT stops at the first unsatisfied atom as `all` does, so
    a missing variable raises exactly when `cost_value` raises.  Each
    atom's constant is converted to a float once.
    """
    atoms = tuple((at.var, at.op, float(at.const)) for at in label)
    if kind is CostKind.SAT:
        empty = True

        def step(cost, a):
            return cost and all(_eval_atom(op, d, value_of(a, var)) for var, op, d in atoms)
    elif kind is CostKind.MIN_MARGIN:
        empty = INF

        def step(cost, a):
            for var, op, d in atoms:
                m = _margin(op, d, value_of(a, var))
                if m < cost:
                    cost = m
            return cost
    else:
        empty = 0.0

        def step(cost, a):
            for var, op, d in atoms:
                cost += _margin(op, d, value_of(a, var))
            return cost

    def extend(cost, a):
        try:
            return step(cost, a)
        except KeyError as exc:
            raise _missing(exc) from None

    return empty, extend


def _missing(exc: KeyError) -> EvaluationError:
    return EvaluationError(f"variable {exc.args[0]!r} missing from signal")


def matching_automaton(a: Automaton) -> Automaton:
    """Add a fresh initial location and match-start clock.

    The new location is labeled true, becomes the sole initial location,
    and bridges to every original initial location while resetting all
    clocks including the new one.  Both additions go last in their
    respective tuples.  Applying this twice stacks a second layer;
    callers apply it once.
    """
    names = {l.name for l in a.locations}
    init_name = "start"
    while init_name in names:
        init_name += "_"
    match_clock = "T'"
    while match_clock in a.clocks:
        match_clock += "_"
    clocks = a.clocks + (match_clock,)
    locations = tuple(
        Location(l.name, l.label, False, l.accepting) for l in a.locations
    ) + (Location(init_name, (), initial=True),)
    bridges = tuple(
        Transition(init_name, (), clocks, l.name) for l in a.initial_locations
    )
    return Automaton(a.variables, clocks, locations, a.transitions + bridges)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>//[^\n]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<sym><=|>=|->|&&|[<>,;\[\]{}])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"var", "clock", "location", "edge", "init", "accept", "when", "reset", "true"}


def _tokenize(text: str):
    line, col, pos = 1, 1, 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            out.append((kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: list[str] = []
        self.clocks: list[str] = []
        self.locations: list[Location] = []
        self.transitions: list[Transition] = []
        self.declared: set[str] = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, tok, message):
        raise ParseError(tok[2], tok[3], message)

    def expect(self, kind, lexeme=None):
        tok = self.advance()
        if tok[0] != kind or (lexeme is not None and tok[1] != lexeme):
            want = lexeme or kind
            self.fail(tok, f"expected {want!r}, got {tok[1]!r}")
        return tok

    def ident(self, role):
        tok = self.advance()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            self.fail(tok, f"expected {role} name, got {tok[1]!r}")
        return tok

    def declare(self, tok):
        if tok[1] in self.declared:
            self.fail(tok, f"{tok[1]!r} already declared")
        self.declared.add(tok[1])
        return tok[1]

    def name_list(self, role):
        names = [self.ident(role)]
        while self.peek()[1] == ",":
            self.advance()
            names.append(self.ident(role))
        self.expect("sym", ";")
        return names

    def atom(self, domain: list[str], role: str, integral: bool) -> Atom:
        name_tok = self.ident(role)
        if name_tok[1] not in domain:
            self.fail(name_tok, f"unknown {role} {name_tok[1]!r}")
        op_tok = self.advance()
        if op_tok[1] not in _OPS:
            self.fail(op_tok, f"expected comparison, got {op_tok[1]!r}")
        num_tok = self.advance()
        if num_tok[0] != "number":
            self.fail(num_tok, f"expected number, got {num_tok[1]!r}")
        const = Fraction(num_tok[1])
        if integral and const.denominator != 1:
            self.fail(num_tok, "clock guard constants must be integers")
        return Atom(name_tok[1], op_tok[1], const)

    def constraint(self, domain, role, integral) -> tuple[Atom, ...]:
        if self.peek()[1] == "true":
            self.advance()
            return ()
        atoms = [self.atom(domain, role, integral)]
        while self.peek()[1] == "&&":
            self.advance()
            atoms.append(self.atom(domain, role, integral))
        return tuple(atoms)

    def parse(self) -> Automaton:
        while True:
            tok = self.peek()
            if tok[0] == "eof":
                break
            if tok[1] == "var":
                self.advance()
                self.variables += [self.declare(t) for t in self.name_list("variable")]
            elif tok[1] == "clock":
                self.advance()
                self.clocks += [self.declare(t) for t in self.name_list("clock")]
            elif tok[1] == "location":
                self.advance()
                self.parse_location()
            elif tok[1] == "edge":
                self.advance()
                self.parse_edge()
            else:
                self.fail(tok, f"expected declaration, got {tok[1]!r}")
        if not self.locations:
            self.fail(self.peek(), "no locations")
        if not any(l.initial for l in self.locations):
            self.fail(self.peek(), "no initial location")
        if not any(l.accepting for l in self.locations):
            self.fail(self.peek(), "no accepting location")
        return Automaton(
            tuple(self.variables),
            tuple(self.clocks),
            tuple(self.locations),
            tuple(self.transitions),
        )

    def parse_location(self):
        name = self.declare(self.ident("location"))
        initial = accepting = False
        while self.peek()[1] in ("init", "accept"):
            tok = self.advance()
            if tok[1] == "init":
                initial = True
            else:
                accepting = True
        self.expect("sym", "[")
        label = self.constraint(self.variables, "variable", integral=False)
        self.expect("sym", "]")
        self.expect("sym", ";")
        self.locations.append(Location(name, label, initial, accepting))

    def parse_edge(self):
        loc_names = [l.name for l in self.locations]
        src = self.ident("location")
        if src[1] not in loc_names:
            self.fail(src, f"unknown location {src[1]!r}")
        self.expect("sym", "->")
        dst = self.ident("location")
        if dst[1] not in loc_names:
            self.fail(dst, f"unknown location {dst[1]!r}")
        guard: tuple[Atom, ...] = ()
        resets: list[str] = []
        if self.peek()[1] == "when":
            self.advance()
            guard = self.constraint(self.clocks, "clock", integral=True)
        if self.peek()[1] == "reset":
            self.advance()
            self.expect("sym", "{")
            while True:
                tok = self.ident("clock")
                if tok[1] not in self.clocks:
                    self.fail(tok, f"unknown clock {tok[1]!r}")
                if tok[1] not in resets:
                    resets.append(tok[1])
                if self.peek()[1] != ",":
                    break
                self.advance()
            self.expect("sym", "}")
        self.expect("sym", ";")
        self.transitions.append(Transition(src[1], guard, tuple(resets), dst[1]))


def parse_automaton(text: str) -> Automaton:
    """Parse the automaton text format; see the module docstring."""
    return _Parser(text).parse()
