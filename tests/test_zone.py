"""DBM zones cross-checked against an exact Fourier-Motzkin oracle.

Zones are generated from explicit constraint lists (c_i - c_j <= k), so
every operation can be phrased as a small linear system over exact
rationals and decided independently of the DBM code.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

import quantimatch.zone as zn
from quantimatch.oracle import _fm_feasible

CLOCKS2 = ("a", "b")
CLOCKS3 = ("a", "b", "t")


def random_constraints(rng, n, count):
    out = []
    for _ in range(count):
        i = rng.randint(0, n)
        j = rng.randint(0, n)
        while j == i:
            j = rng.randint(0, n)
        out.append((i, j, rng.randint(-6, 8), rng.random() < 0.4))
    return out


def grid(n, step=Fraction(1, 2), lo=0, hi=6):
    axis = []
    v = Fraction(lo)
    while v <= hi:
        axis.append(v)
        v += step
    return product(axis, repeat=n)


def eval_raw(constraints, point):
    """Direct evaluation of the constraint list at a valuation."""
    vals = (Fraction(0), *point)
    if any(v < 0 for v in point):
        return False
    for i, j, k, strict in constraints:
        d = vals[i] - vals[j]
        if d > k or (strict and d == k):
            return False
    return True


def raw_rows(n, constraints):
    """The constraint list as FM rows over variables v1..vn."""
    rows = []
    for i, j, k, strict in constraints:
        coeffs = {}
        if i:
            coeffs[f"v{i}"] = coeffs.get(f"v{i}", 0) + 1
        if j:
            coeffs[f"v{j}"] = coeffs.get(f"v{j}", 0) - 1
        rows.append(({a: c for a, c in coeffs.items() if c}, Fraction(k), strict))
    for k in range(1, n + 1):
        rows.append(({f"v{k}": -1}, Fraction(0), False))
    return rows


def fm(rows, n, extra_vars=()):
    return _fm_feasible(list(rows), [f"v{k}" for k in range(1, n + 1)] + list(extra_vars))


def test_make_membership_matches_raw_constraints():
    rng = random.Random(11)
    for _ in range(40):
        cons = random_constraints(rng, 2, rng.randint(0, 6))
        z = zn.make(CLOCKS2, cons)
        for p in grid(2):
            assert zn.contains(z, p) == eval_raw(cons, p), (cons, p)


def test_emptiness_matches_fm():
    rng = random.Random(12)
    seen_empty = seen_full = 0
    for _ in range(120):
        cons = random_constraints(rng, 2, rng.randint(1, 7))
        z = zn.make(CLOCKS2, cons)
        feasible = fm(raw_rows(2, cons), 2)
        assert (z.m is None) == (not feasible), cons
        seen_empty += z.m is None
        seen_full += z.m is not None
    assert seen_empty > 5 and seen_full > 5


def test_triangle_tightening():
    # a - b <= 2 and b <= 3 imply a <= 5
    z = zn.make(CLOCKS2, [(1, 2, 2, False), (2, 0, 3, False)])
    assert z.m[1][0] == (5, False)
    # strictness propagates through the sum
    z = zn.make(CLOCKS2, [(1, 2, 2, True), (2, 0, 3, False)])
    assert z.m[1][0] == (5, True)
    # contradictory strict pair is empty: a <= 1 and a > 2
    z = zn.make(CLOCKS2, [(1, 0, 1, False), (0, 1, -2, True)])
    assert z.m is None
    # touching strict bounds: a < 1 and a >= 1
    z = zn.make(CLOCKS2, [(1, 0, 1, True), (0, 1, -1, False)])
    assert z.m is None


def test_constrain_incremental_equals_batch():
    rng = random.Random(13)
    for _ in range(60):
        cons = random_constraints(rng, 2, rng.randint(1, 6))
        batch = zn.make(CLOCKS2, cons)
        step = zn.make(CLOCKS2)
        for i, j, k, strict in cons:
            step = zn.constrain(step, i, j, k, strict)
            if step.m is None:
                break
        assert batch == step or (batch.m is None and step.m is None)


def _up_rows(n, constraints, point):
    rows = [({"tau": -1}, Fraction(0), True)]
    for k in range(1, n + 1):
        rows.append(({"tau": 1}, Fraction(point[k - 1]), False))
    for i, j, k, strict in constraints:
        rhs = Fraction(k)
        if i and j:
            rows.append(({}, rhs - (point[i - 1] - point[j - 1]), strict))
        elif i:
            rows.append(({"tau": -1}, rhs - point[i - 1], strict))
        else:
            rows.append(({"tau": 1}, rhs + point[j - 1], strict))
    return rows


def test_up_membership_matches_fm():
    rng = random.Random(14)
    cases = 0
    while cases < 25:
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = zn.make(CLOCKS2, cons)
        if z.m is None:
            continue
        cases += 1
        u = zn.up(z)
        for p in grid(2):
            want = _fm_feasible(_up_rows(2, cons, p), ["tau"])
            assert zn.contains(u, p) == want, (cons, p)


def test_up_is_strict():
    z = zn.point_zone(CLOCKS2, 1)
    u = zn.up(z)
    assert not zn.contains(u, (1, 1))
    assert zn.contains(u, (Fraction(3, 2), Fraction(3, 2)))
    assert not zn.contains(u, (2, 1))
    assert zn.up(zn.make(CLOCKS2, [(1, 0, -1, False)])).m is None


def test_reset_membership_matches_fm():
    rng = random.Random(15)
    cases = 0
    while cases < 25:
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = zn.make(CLOCKS2, cons)
        if z.m is None:
            continue
        cases += 1
        r = zn.reset(z, (1,))
        for p in grid(2):
            got = zn.contains(r, p)
            if p[0] != 0:
                assert not got
                continue
            # feasible iff some pre-reset value w for clock 1 fits
            rows = []
            for i, j, k, strict in cons:
                coeffs = {}
                rhs = Fraction(k)
                for idx, sgn in ((i, 1), (j, -1)):
                    if idx == 0:
                        continue
                    if idx == 1:
                        coeffs["w"] = coeffs.get("w", 0) + sgn
                    else:
                        rhs -= sgn * Fraction(p[idx - 1])
                rows.append(({a: c for a, c in coeffs.items() if c}, rhs, strict))
            rows.append(({"w": -1}, Fraction(0), False))
            rows.append(({}, Fraction(p[1]), False))
            assert got == _fm_feasible(rows, ["w"]), (cons, p)


def test_intersect_guard_membership():
    rng = random.Random(16)
    for _ in range(30):
        cons = random_constraints(rng, 2, rng.randint(0, 4))
        z = zn.make(CLOCKS2, cons)
        op = rng.choice(("<", "<=", ">", ">="))
        k = rng.randint(0, 6)
        g = zn.intersect_guard(z, [(1, op, k)])
        for p in grid(2, step=Fraction(1, 2), hi=7):
            holds = {
                "<": p[0] < k,
                "<=": p[0] <= k,
                ">": p[0] > k,
                ">=": p[0] >= k,
            }[op]
            assert zn.contains(g, p) == (zn.contains(z, p) and holds)


def test_intersect_guard_rejects_unknown_op():
    with pytest.raises(ValueError):
        zn.intersect_guard(zn.point_zone(CLOCKS2, 0), [(1, "!=", 3)])


def test_clamp_time_membership():
    z = zn.up(zn.point_zone(CLOCKS2, 0))
    band = zn.clamp_time(z, 2, 2, 5, True, True)
    assert not zn.contains(band, (2, 2))
    assert zn.contains(band, (3, 3))
    assert not zn.contains(band, (5, 5))
    wall = zn.clamp_time(z, 2, 5, 5)
    assert zn.contains(wall, (5, 5))
    assert not zn.contains(wall, (4, 4))


def test_project_match_membership_matches_fm():
    rng = random.Random(17)
    cases = 0
    while cases < 20:
        cons = random_constraints(rng, 3, rng.randint(1, 6))
        z = zn.make(CLOCKS3, cons)
        if z.m is None:
            continue
        cases += 1
        proj = zn.project_match(z, 3, 2)  # t = c3 - c2, t' = c3
        for a, b in grid(2, step=Fraction(1, 2), hi=7):
            rows = raw_rows(3, cons)
            rows.append(({"v3": 1, "v2": -1}, a, False))
            rows.append(({"v3": -1, "v2": 1}, -a, False))
            rows.append(({"v3": 1}, b, False))
            rows.append(({"v3": -1}, -b, False))
            assert zn.contains(proj, (a, b)) == fm(rows, 3), (cons, a, b)


def test_canonicalize_idempotent_on_op_results():
    rng = random.Random(19)
    for _ in range(40):
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = zn.make(CLOCKS2, cons)
        for produced in (z, zn.up(z), zn.reset(z, (1,)), zn.intersect_guard(z, [(2, "<=", 4)])):
            assert zn.canonicalize(produced) == produced


def test_scale_membership():
    rng = random.Random(20)
    for _ in range(20):
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = zn.make(CLOCKS2, cons)
        s = zn.scale(z, 3)
        for p in grid(2, step=1, hi=5):
            assert zn.contains(s, (3 * p[0], 3 * p[1])) == zn.contains(z, p)
        assert zn.scale(s, Fraction(1, 3)) == z


def test_point_and_zero_zones():
    p = zn.point_zone(CLOCKS2, 4)
    assert zn.contains(p, (4, 4))
    assert not zn.contains(p, (4, 5))
    zero = zn.point_zone(CLOCKS2, 0)
    assert zn.contains(zero, (0, 0))
    assert not zn.contains(zero, (0, 1))


def test_zone_equality_and_hash():
    cons = [(1, 0, 5, False), (0, 2, -1, True)]
    z1 = zn.make(CLOCKS2, cons)
    z2 = zn.make(CLOCKS2, list(reversed(cons)) + [(1, 0, 9, False)])
    assert z1 == z2
    assert hash(z1) == hash(z2)
    assert z1 in {z2}


def test_empty_zone_behavior():
    empty = zn.make(CLOCKS2, [(1, 0, -1, False)])
    assert empty.m is None
    assert not zn.contains(empty, (0, 0))
    assert zn.reset(empty, (1,)).m is None
    assert zn.up(empty).m is None
    assert zn.intersect_guard(empty, [(1, "<", 99)]).m is None
