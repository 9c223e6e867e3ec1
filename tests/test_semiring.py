"""Algebra tables, laws, and the star operator."""

import random

import pytest

from quantimatch.semiring import BOOLEAN, INF, SUPINF, TROPICAL, get

POOLS = {
    BOOLEAN: [True, False],
    SUPINF: [-INF, INF, -3.0, 0.0, 2.5, 7.0, 10.0],
    TROPICAL: [INF, -INF, -4.0, -1.0, 0.0, 1.5, 3.0],
}


def test_boolean_tables():
    assert BOOLEAN.zero is False and BOOLEAN.one is True
    assert BOOLEAN.oplus(False, True) is True
    assert BOOLEAN.otimes(False, True) is False
    assert BOOLEAN.star(False) is True and BOOLEAN.star(True) is True


def test_supinf_tables():
    assert SUPINF.zero == -INF and SUPINF.one == INF
    assert SUPINF.oplus(8.0, 3.0) == 8.0
    assert SUPINF.otimes(8.0, 2.0) == 2.0
    assert SUPINF.big_oplus([2.0, 7.0, 3.0]) == 7.0
    assert SUPINF.big_oplus([]) == -INF
    assert SUPINF.star(-INF) == INF
    assert SUPINF.star(4.0) == INF


def test_tropical_tables():
    assert TROPICAL.zero == INF and TROPICAL.one == 0.0
    assert TROPICAL.oplus(5.0, -25.0) == -25.0
    assert TROPICAL.otimes(5.0, -25.0) == -20.0
    # +inf is the annihilator even against -inf
    assert TROPICAL.otimes(INF, -INF) == INF
    assert TROPICAL.otimes(-INF, INF) == INF
    assert TROPICAL.otimes(-INF, 7.0) == -INF
    assert TROPICAL.big_oplus([]) == INF


def test_tropical_star_table():
    assert TROPICAL.star(0.0) == 0.0
    assert TROPICAL.star(2.5) == 0.0
    assert TROPICAL.star(INF) == 0.0
    assert TROPICAL.star(-1.0) == -INF
    assert TROPICAL.star(-INF) == -INF


def _star_partial(sr, w, k):
    total = sr.one
    power = sr.one
    for _ in range(k):
        power = sr.otimes(power, w)
        total = sr.oplus(total, power)
    return total


@pytest.mark.parametrize("sr", [BOOLEAN, SUPINF, TROPICAL], ids=lambda s: s.name)
def test_star_dominates_partial_sums(sr):
    # star(w) = sup of e ⊕ w ⊕ w² ⊕ ...; every truncation must be
    # absorbed, and for convergent w the 64-step truncation is exact.
    for w in POOLS[sr]:
        s = sr.star(w)
        partial = _star_partial(sr, w, 64)
        assert sr.oplus(partial, s) == s
        if sr is TROPICAL and w < 0:
            continue  # diverges; only absorption is checkable
        assert s == partial


@pytest.mark.parametrize("sr", [BOOLEAN, SUPINF, TROPICAL], ids=lambda s: s.name)
def test_star_fixpoint(sr):
    for w in POOLS[sr]:
        assert sr.star(w) == sr.oplus(sr.one, sr.otimes(w, sr.star(w)))


@pytest.mark.parametrize("sr", [BOOLEAN, SUPINF, TROPICAL], ids=lambda s: s.name)
def test_algebra_laws_random(sr):
    rng = random.Random(20260815)
    pool = POOLS[sr]
    for _ in range(4000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert sr.oplus(a, b) == sr.oplus(b, a)
        assert sr.oplus(sr.oplus(a, b), c) == sr.oplus(a, sr.oplus(b, c))
        assert sr.otimes(sr.otimes(a, b), c) == sr.otimes(a, sr.otimes(b, c))
        assert sr.oplus(a, sr.zero) == a
        assert sr.otimes(a, sr.one) == a
        assert sr.otimes(sr.one, a) == a
        assert sr.otimes(a, sr.zero) == sr.zero
        assert sr.otimes(sr.zero, a) == sr.zero
        assert sr.oplus(a, a) == a
        assert sr.otimes(a, sr.oplus(b, c)) == sr.oplus(sr.otimes(a, b), sr.otimes(a, c))
        assert sr.otimes(sr.oplus(a, b), c) == sr.oplus(sr.otimes(a, c), sr.otimes(b, c))


@pytest.mark.parametrize("sr", [BOOLEAN, SUPINF, TROPICAL], ids=lambda s: s.name)
def test_natural_order(sr):
    pool = POOLS[sr]
    # a <= b iff a + b = b
    def leq(a, b):
        return sr.oplus(a, b) == b

    for a in pool:
        assert leq(a, a)
        assert leq(sr.zero, a)
    for a in pool:
        for b in pool:
            if leq(a, b) and leq(b, a):
                assert a == b
            # order is total for these instances
            assert leq(a, b) or leq(b, a)


def test_registry():
    assert get("boolean") is BOOLEAN
    assert get("supinf") is SUPINF
    assert get("tropical") is TROPICAL
    with pytest.raises(ValueError):
        get("nope")
