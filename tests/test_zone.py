"""DBM zones cross-checked against an exact Fourier-Motzkin oracle.

Zones are generated from explicit constraint lists (c_i - c_j <= k), so
every operation can be phrased as a small linear system over exact
rationals and decided independently of the DBM code.  The one-int bound
encoding is checked against (value, strict) pair arithmetic.  Bounds are
integers, and a point is int numerators over a denominator (`at`).
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

import quantimatch.zone as zn
from quantimatch.oracle import _fm_feasible

from conftest import add_bounds, canonicalize, elapse, elapse_by_clamps, free, make

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


def at(point, scale=1):
    """The rational `point` in units of 1/scale, as the int numerators
    over their lcm and that lcm: the arguments `contains` takes after the
    zone."""
    xs = [Fraction(x) * scale for x in point]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


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
        z = make(CLOCKS2, cons)
        for p in grid(2):
            assert zn.contains(z, *at(p)) == eval_raw(cons, p), (cons, p)


def test_emptiness_matches_fm():
    rng = random.Random(12)
    seen_empty = seen_full = 0
    for _ in range(120):
        cons = random_constraints(rng, 2, rng.randint(1, 7))
        z = make(CLOCKS2, cons)
        feasible = fm(raw_rows(2, cons), 2)
        assert (z is None) == (not feasible), cons
        seen_empty += z is None
        seen_full += z is not None
    assert seen_empty > 5 and seen_full > 5


def test_triangle_tightening():
    # a - b <= 2 and b <= 3 imply a <= 5
    z = make(CLOCKS2, [(1, 2, 2, False), (2, 0, 3, False)])
    assert zn.matrix(z)[1][0] == (5, False)
    # strictness propagates through the sum
    z = make(CLOCKS2, [(1, 2, 2, True), (2, 0, 3, False)])
    assert zn.matrix(z)[1][0] == (5, True)
    # contradictory strict pair is empty: a <= 1 and a > 2
    z = make(CLOCKS2, [(1, 0, 1, False), (0, 1, -2, True)])
    assert z is None
    # touching strict bounds: a < 1 and a >= 1
    z = make(CLOCKS2, [(1, 0, 1, True), (0, 1, -1, False)])
    assert z is None


def test_constrain_incremental_equals_batch():
    rng = random.Random(13)
    for _ in range(60):
        cons = random_constraints(rng, 2, rng.randint(1, 6))
        batch = make(CLOCKS2, cons)
        step = make(CLOCKS2)
        for i, j, k, strict in cons:
            step = zn.constrain(step, i, j, zn.encode(k, strict))
            if step is None:
                break
        assert batch == step, cons


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
        z = make(CLOCKS2, cons)
        if z is None:
            continue
        cases += 1
        u = zn.up(z)
        for p in grid(2):
            want = _fm_feasible(_up_rows(2, cons, p), ["tau"])
            assert zn.contains(u, *at(p)) == want, (cons, p)


def test_up_is_strict():
    z = zn.point_zone(CLOCKS2, 1)
    u = zn.up(z)
    assert not zn.contains(u, (1, 1))
    assert zn.contains(u, *at((Fraction(3, 2), Fraction(3, 2))))
    assert not zn.contains(u, (2, 1))
    assert zn.up(make(CLOCKS2, [(1, 0, -1, False)])) is None


def test_reset_membership_matches_fm():
    rng = random.Random(15)
    cases = 0
    while cases < 25:
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = make(CLOCKS2, cons)
        if z is None:
            continue
        cases += 1
        r = zn.reset(z, (1,))
        for p in grid(2):
            got = zn.contains(r, *at(p))
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
        z = make(CLOCKS2, cons)
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
            assert zn.contains(g, *at(p)) == (zn.contains(z, *at(p)) and holds)


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
        z = make(CLOCKS3, cons)
        if z is None:
            continue
        cases += 1
        proj = zn.project_match(z, 3, 2)  # t = c3 - c2, t' = c3
        for a, b in grid(2, step=Fraction(1, 2), hi=7):
            rows = raw_rows(3, cons)
            rows.append(({"v3": 1, "v2": -1}, a, False))
            rows.append(({"v3": -1, "v2": 1}, -a, False))
            rows.append(({"v3": 1}, b, False))
            rows.append(({"v3": -1}, -b, False))
            assert zn.contains(proj, *at((a, b))) == fm(rows, 3), (cons, a, b)


def test_canonicalize_idempotent_on_op_results():
    rng = random.Random(19)
    for _ in range(40):
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = make(CLOCKS2, cons)
        for produced in (z, zn.up(z), zn.reset(z, (1,)), zn.intersect_guard(z, [(2, "<=", 4)])):
            assert canonicalize(produced) == produced


def test_scale_membership():
    rng = random.Random(20)
    for _ in range(20):
        cons = random_constraints(rng, 2, rng.randint(0, 5))
        z = make(CLOCKS2, cons)
        s = zn.scale(z, 3)
        for p in grid(2, step=1, hi=5):
            assert zn.contains(s, *at(p, 3)) == zn.contains(z, *at(p))


def test_make_rejects_non_integer_constant():
    for value in (Fraction(1, 2), 2.5, Fraction(-7, 3)):
        with pytest.raises(ValueError, match="not an integer"):
            make(CLOCKS2, [(1, 0, 3, False), (0, 2, value, True)])
    # integral values of other types are taken as the int they equal
    assert make(CLOCKS2, [(1, 0, Fraction(4), False)]) == make(CLOCKS2, [(1, 0, 4, False)])


def test_point_and_zero_zones():
    p = zn.point_zone(CLOCKS2, 4)
    assert zn.contains(p, (4, 4))
    assert not zn.contains(p, (4, 5))
    zero = zn.point_zone(CLOCKS2, 0)
    assert zn.contains(zero, (0, 0))
    assert not zn.contains(zero, (0, 1))


def test_contains_takes_int_numerators_only():
    z = make(CLOCKS2, [(1, 0, 3, False)])
    for numerators, den in [((Fraction(1, 2), 1), 1), ((1, 1), Fraction(2)),
                            ((1.0, 1), 1), ((1, 1), 2.0)]:
        for zone in (z, None):
            with pytest.raises(TypeError):
                zn.contains(zone, numerators, den)


def test_contains_is_invariant_under_a_common_factor():
    """Numerators over den and their multiples over a multiple of den
    are one point."""
    rng = random.Random(25)
    inside = 0
    for _ in range(200):
        z = make(CLOCKS2, random_constraints(rng, 2, rng.randint(0, 5)))
        d = rng.randint(1, 6)
        xs = [rng.randint(0, 8 * d) for _ in range(2)]
        k = rng.randint(2, 5)
        got = zn.contains(z, xs, d)
        assert got == zn.contains(z, [k * x for x in xs], k * d), (z, xs, d, k)
        inside += got
    assert inside > 20


def test_zone_equality_and_hash():
    cons = [(1, 0, 5, False), (0, 2, -1, True)]
    z1 = make(CLOCKS2, cons)
    z2 = make(CLOCKS2, list(reversed(cons)) + [(1, 0, 9, False)])
    assert z1 == z2
    assert hash(z1) == hash(z2)
    assert z1 in {z2}


def test_empty_zone_behavior():
    """The empty zone is None, and every operation maps it to None."""
    empty = make(CLOCKS2, [(1, 0, -1, False)])
    assert empty is None
    assert zn.matrix(empty) is None
    assert not zn.contains(empty, (0, 0))
    assert not zn.contains(empty, (0, 0), 2)
    assert canonicalize(empty) is None
    assert zn.constrain(empty, 1, 0, zn.encode(5, False)) is None
    assert zn.intersect_guard(empty, [(1, "<", 99)]) is None
    assert zn.reset(empty, (1,)) is None
    assert free(empty, (1,)) is None
    assert zn.up(empty) is None
    assert zn.clamp_time(empty, 2, 0, 3) is None
    assert elapse(empty, 2, 3) == (None, None)
    assert zn.scale(empty, 3) is None
    assert zn.project_match(empty, 2, 1) is None


def _pair_add(a, b):
    if a[0] == zn.INF or b[0] == zn.INF:
        return (zn.INF, True)
    return (a[0] + b[0], a[1] or b[1])


def _pair_tighter(a, b):
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def test_bound_encoding_matches_pair_arithmetic():
    rng = random.Random(21)

    def draw():
        r = rng.random()
        if r < 0.1:
            return (zn.INF, True)
        # small values collide often, so equal values of both
        # strictnesses meet; large ones stand for a grown time scale
        value = rng.randint(-6, 6) if r < 0.8 else rng.randint(-10**15, 10**15)
        return (value, rng.random() < 0.5)

    ties = 0
    for _ in range(4000):
        a, b = draw(), draw()
        ea, eb = zn.encode(*a), zn.encode(*b)
        assert zn.decode(ea) == a and zn.decode(eb) == b
        assert zn.decode(add_bounds(ea, eb)) == _pair_add(a, b), (a, b)
        assert (ea < eb) == _pair_tighter(a, b), (a, b)
        ties += a[0] == b[0] != zn.INF and a[1] != b[1]
    assert ties > 50


def _at_point(rows, point):
    """FM rows plus v_k == point[k-1] for every variable."""
    rows = list(rows)
    for k, x in enumerate(point, 1):
        rows.append(({f"v{k}": 1}, Fraction(x), False))
        rows.append(({f"v{k}": -1}, -Fraction(x), False))
    return rows


def test_pieces_at_scales_2_and_4_are_equal():
    """A region at time scale 2 and the same region at scale 4 hold the
    same points: membership over each one's scale is exact on a 1/2 grid."""
    rng = random.Random(22)
    half = Fraction(1, 2)
    cases = 0
    while cases < 30:
        doubled = random_constraints(rng, 2, rng.randint(1, 6))
        z2 = make(CLOCKS2, doubled)
        if z2 is None:
            continue
        cases += 1
        z4 = make(CLOCKS2, [(i, j, 2 * k, strict) for i, j, k, strict in doubled])
        halves = [(i, j, Fraction(k, 2), strict) for i, j, k, strict in doubled]
        for p in grid(2, step=half, hi=5):
            want = fm(_at_point(raw_rows(2, halves), p), 2)
            assert zn.contains(z2, *at(p, 2)) == want, (halves, p)
            assert zn.contains(z4, *at(p, 4)) == want, (halves, p)


def _time_capped_zones(rng, cases):
    """Random canonical zones over 1-3 clocks plus a last clock T, with
    T <= cur, and a prev <= cur."""
    out = []
    while len(out) < cases:
        k = rng.randint(1, 3)
        clocks = ("a", "b", "c")[:k] + ("T",)
        t = k + 1
        cur = rng.randint(0, 8)
        prev = rng.randint(0, cur)
        cons = random_constraints(rng, t, rng.randint(0, 6))
        cons.append((t, 0, cur, rng.random() < 0.5))
        out.append((make(clocks, cons), t, prev, cur))
    return out


def test_elapse_equals_up_then_both_clamps():
    """On nonempty zones with T < cur, elapse is `up` plus both clamps,
    0 < T < cur and T = cur, and neither output is empty; a zone whose
    T may reach cur is rejected."""
    rng = random.Random(23)
    waits = reaching = 0
    for z, t, _, cur in _time_capped_zones(rng, 3000):
        if z is None:
            continue
        if zn.clamp_time(z, t, cur, cur) is not None:
            with pytest.raises(ValueError, match=f"reach the boundary {cur}"):
                elapse(z, t, cur)
            reaching += 1
            continue
        band, wall = elapse(z, t, cur)
        assert (band, wall) == elapse_by_clamps(z, t, 0, cur), (z, cur)
        assert band is not None and wall is not None, (z, cur)
        waits += 1
    assert waits > 500 and reaching > 500


def test_elapse_frees_the_dead_clocks():
    """With dead clocks, elapse is `up` plus both clamps, then `free` of
    those clocks, on zones with T < cur, n = 2..5 and random dead
    subsets; the outputs are nonempty and stay canonical."""
    rng = random.Random(27)
    freed = 0
    for _ in range(2000):
        k = rng.randint(0, 3)
        n, t = k + 2, k + 1
        clocks = ("a", "b", "c")[:k] + ("T",)
        cur = rng.randint(1, 8)
        cons = random_constraints(rng, t, rng.randint(0, 6)) + [(t, 0, cur, True)]
        z = make(clocks, cons)
        if z is None:
            continue
        dead = tuple(c for c in range(1, t) if rng.random() < 0.5)
        got = zn.elapse_kernel(n, t, dead)(z, cur)
        want = tuple(free(x, dead) for x in elapse_by_clamps(z, t, 0, cur))
        assert got == want, (z, dead, cur)
        for x in got:
            assert x is not None and canonicalize(x) == x, (z, dead, cur)
            freed += bool(dead)
    assert freed > 1000


def test_elapse_from_prev_equals_the_segment_clamps():
    """The fold waits only states with prev <= T < cur, and reads cur
    alone: on such zones, a third of them pinned at prev as a segment's
    inputs are, the kernel with random dead clocks equals `up` plus the
    (prev, cur] clamps, then `free`.  With prev > 0 the clamp at prev
    is not the clamp at 0 that clocks' nonnegativity gives."""
    rng = random.Random(28)
    late = pinned = 0
    for _ in range(3000):
        k = rng.randint(0, 3)
        n, t = k + 2, k + 1
        clocks = ("a", "b", "c")[:k] + ("T",)
        cur = rng.randint(1, 8)
        prev = rng.randint(0, cur - 1)
        cons = random_constraints(rng, t, rng.randint(0, 6))
        cons += [(t, 0, cur, True), (0, t, -prev, False)]
        if rng.random() < 1 / 3:
            cons.append((t, 0, prev, False))
        z = make(clocks, cons)
        if z is None:
            continue
        dead = tuple(c for c in range(1, t) if rng.random() < 0.5)
        got = zn.elapse_kernel(n, t, dead)(z, cur)
        want = tuple(free(x, dead) for x in elapse_by_clamps(z, t, prev, cur))
        assert got == want, (z, dead, prev, cur)
        late += prev > 0
        pinned += prev > 0 and z[t] == 1 - 2 * prev and z[t * n] == 2 * prev + 1
    assert late > 800 and pinned > 200


def test_elapse_edges():
    clocks = ("a", "T")
    empty = make(clocks, [(1, 0, -1, False)])
    assert elapse(empty, 2, 3) == (empty, empty)
    # pinned at prev, as every input entry of a segment is
    at_prev = make(clocks, [(2, 0, 1, False), (0, 2, -1, False), (1, 0, 0, False)])
    band, wall = elapse(at_prev, 2, 3)
    assert (band, wall) == elapse_by_clamps(at_prev, 2, 1, 3)
    assert zn.contains(band, (1, 2)) and not zn.contains(band, (2, 3))
    assert zn.contains(wall, (2, 3)) and not zn.contains(wall, (1, 2))


def test_elapse_rejects_time_past_the_boundary():
    """A zone whose T may reach cur, or pass it, is rejected."""
    clocks = ("a", "T")
    # pinned at cur: such a state waits in the next segment
    at_cur = [(2, 0, 3, False), (0, 2, -3, False), (1, 0, 2, False)]
    for cap in ([(2, 0, 4, False)], [(2, 0, 4, True)], [], [(2, 0, 3, False)], at_cur):
        z = make(clocks, cap)
        with pytest.raises(ValueError, match="reach the boundary 3"):
            elapse(z, 2, 3)


def test_free_is_the_canonical_cylinder_of_the_projection():
    rng = random.Random(24)
    cases = 0
    for _ in range(120):
        cons = random_constraints(rng, 2, rng.randint(0, 6))
        z = make(CLOCKS2, cons)
        c = rng.randint(1, 2)
        f = free(z, (c,))
        assert canonicalize(f) == f
        if z is None:
            assert f is None
            continue
        cases += 1
        # the other clocks' submatrix, with c left at c >= 0
        kept = [
            (i, j, *zn.decode(z[i * 3 + j]))
            for i in range(3) for j in range(3) if c not in (i, j) and i != j
        ]
        assert f == make(CLOCKS2, kept), (cons, c)
        # membership: some nonnegative value of c puts the point in z
        for p in grid(2, hi=5):
            fixed = [x for k, x in enumerate(p, 1) if k != c]
            rows = raw_rows(2, cons)
            for k, x in zip([k for k in (1, 2) if k != c], fixed):
                rows.append(({f"v{k}": 1}, Fraction(x), False))
                rows.append(({f"v{k}": -1}, -Fraction(x), False))
            assert zn.contains(f, *at(p)) == fm(rows, 2), (cons, c, p)
    assert cases > 40
    # freeing several clocks at once equals freeing them one by one
    z = make(CLOCKS3, [(1, 2, 1, False), (2, 3, -2, True), (3, 0, 6, False)])
    assert free(z, (1, 2)) == free(free(z, (1,)), (2,))
    assert free(z, ()) is z


def test_every_operation_keeps_the_diagonal_at_one():
    """A move's gather reads each diagonal entry from z[0], so every
    nonempty zone an operation returns must hold (0, weak) = 1 on its
    whole diagonal."""
    rng = random.Random(25)
    ops = ("<", "<=", ">", ">=")
    checked = 0
    for z, t, prev, cur in _time_capped_zones(rng, 200):
        if z is None:
            continue
        clocks = ("a", "b", "c", "T")[:t]
        n = t + 1
        i, j = rng.sample(range(n), 2)
        c = rng.randint(1, n - 1)
        fire = zn.fire_kernel(n, ((i, j),), zn.gather(n, (c,), (rng.randint(1, n - 1),)))
        produced = [
            z,
            canonicalize(z),
            zn.constrain(z, i, j, rng.randint(-12, 16)),
            zn.intersect_guard(z, [(c, rng.choice(ops), rng.randint(0, 6))]),
            zn.reset(z, (c,)),
            free(z, (c,)),
            fire(rng.randint(-12, 16))(z),
            zn.up(z),
            zn.clamp_time(z, t, prev, cur, True, False),
            zn.scale(z, 3),
            zn.point_zone(clocks, rng.randint(0, 5)),
            make(clocks, random_constraints(rng, t, 3)),
        ]
        if zn.clamp_time(z, t, cur, cur) is None:
            produced.extend(elapse(z, t, cur))
        for out in produced:
            if out is not None:
                assert all(out[k * n + k] == 1 for k in range(n)), (z, out)
                checked += 1
    assert checked > 1000


def test_kernels_return_the_inf_sentinel_itself():
    """Every infinite entry an elapse or fire kernel returns is `INF`
    itself, since `scale`, `decode` and the match set tell it apart by
    identity: an equal float infinity would pass every equality check.
    Random canonical zones with n = 2..5, few constraints so that many
    entries are INF, guards, resets and freed clocks."""
    rng = random.Random(26)
    ops = ("<", "<=", ">", ">=")
    infinite = {"elapse": 0, "fire": 0}
    for _ in range(1500):
        k = rng.randint(0, 3)
        n, t = k + 2, k + 1
        clocks = ("a", "b", "c")[:k] + ("T",)
        cur = rng.randint(1, 8)
        z = make(clocks, random_constraints(rng, t, rng.randint(0, 3)) + [(t, 0, cur, True)])
        if z is None:
            continue
        clock = rng.randint(1, n - 1)
        bound = zn.guard_bound(clock, rng.choice(ops), rng.randint(0, 6))
        resets = [c for c in range(1, n) if rng.random() < 0.3]
        dead = [c for c in range(1, n) if rng.random() < 0.3]
        out = [*zn.elapse_kernel(n, t, tuple(c for c in dead if c != t))(z, cur)]
        fire = zn.fire_kernel(n, (bound[:2],), zn.gather(n, resets, dead))(bound[2])
        out.append(fire(z))
        for kind, w in zip(("elapse", "elapse", "fire"), out):
            for e in w or ():
                if e == zn.INF:
                    assert e is zn.INF, (kind, z, w)
                    infinite[kind] += 1
    assert infinite["elapse"] > 1000 and infinite["fire"] > 1000


def test_floor_kernel_tests_floors_against_every_vector():
    """`floor_kernel` is true exactly when, for some index tuple, every
    clock's floor (the negated value of its row-0 bound) is at most its
    cap; caps are encoded as 2 * -k.  Random zones over 1-3 clocks plus
    T, one to three tuples of one to three clocks each."""
    rng = random.Random(27)
    seen = {True: 0, False: 0}
    for z, t, _, _ in _time_capped_zones(rng, 400):
        if z is None:
            continue
        vecs = tuple(tuple(rng.sample(range(1, t + 1), rng.randint(1, min(3, t))))
                     for _ in range(rng.randint(1, 3)))
        caps = [[rng.randint(-1, 8) for _ in vec] for vec in vecs]
        under = zn.floor_kernel(vecs)(*(-2 * k for ks in caps for k in ks))
        want = any(all(-zn.decode(z[i])[0] <= k for i, k in zip(vec, ks))
                   for vec, ks in zip(vecs, caps))
        assert under(z) is want, (z, vecs, caps)
        seen[want] += 1
    assert min(seen.values()) > 25, seen
