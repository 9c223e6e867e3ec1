"""Complete idempotent semirings used to score automaton runs.

Three instances are provided:

* ``boolean``  -- ({false, true}, or, and): qualitative matching.
* ``supinf``   -- (reals with +/-inf, max, min): worst-case margins,
  the quantitative analogue of robustness.
* ``tropical`` -- (reals with +inf, min, +), extended below with -inf
  so that sums of unboundedly negative cycle weights stay inside the
  carrier.

Values are plain ``bool`` or ``float``.  The operations never produce
NaN: the one ambiguous float combination, ``(+inf) + (-inf)`` inside
the tropical product, is defined to be ``+inf`` because the additive
identity annihilates products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

INF = float("inf")


@dataclass(frozen=True, repr=False)
class Semiring:
    """Operation table (oplus, otimes, zero, one) plus cycle closure.

    ``star(w)`` is the closed form of ``one + w + w*w + ...`` (with
    semiring operations); it is what lets the generic shortest-distance
    pass terminate on cyclic graphs.
    """

    name: str
    zero: Any
    one: Any
    oplus: Callable[[Any, Any], Any]
    otimes: Callable[[Any, Any], Any]
    star: Callable[[Any], Any]

    def big_oplus(self, values: Iterable[Any]) -> Any:
        """Fold ``oplus`` over ``values``; the empty sum is ``zero``."""
        acc = self.zero
        for v in values:
            acc = self.oplus(acc, v)
        return acc

    def __repr__(self) -> str:
        return f"Semiring({self.name})"


def _bool_or(a: bool, b: bool) -> bool:
    return a or b


def _bool_and(a: bool, b: bool) -> bool:
    return a and b


def _bool_star(w: bool) -> bool:
    return True


def _supinf_star(w: float) -> float:
    # sup {+inf, w, min(w, w), ...} = +inf: the identity dominates.
    return INF


def _tropical_mul(a: float, b: float) -> float:
    # +inf is the additive identity and must annihilate, even against -inf.
    if a == INF or b == INF:
        return INF
    if a == -INF or b == -INF:
        return -INF
    return a + b


def _tropical_star(w: float) -> float:
    # min(0, w, 2w, ...): nonnegative cycles close at 0, negative ones diverge.
    return 0.0 if w >= 0 else -INF


BOOLEAN = Semiring("boolean", False, True, _bool_or, _bool_and, _bool_star)
SUPINF = Semiring("supinf", -INF, INF, max, min, _supinf_star)
TROPICAL = Semiring("tropical", INF, 0.0, min, _tropical_mul, _tropical_star)

SEMIRINGS = {s.name: s for s in (BOOLEAN, SUPINF, TROPICAL)}


def get(name: str) -> Semiring:
    """Look up a semiring by its public name."""
    try:
        return SEMIRINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown semiring {name!r}; choose from {sorted(SEMIRINGS)}"
        ) from None
