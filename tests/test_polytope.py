"""Molecule vectors, the LP norm, vertex certificates, decompositions."""

import hashlib
import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import freelip as fl
from freelip.polytope import (
    DimensionMismatch,
    FloatModeUnsupported,
    NotDistinct,
    TooManyPoints,
)
from support import (
    _AttainmentLP,
    CHAIN,
    EQUILATERAL,
    VEE,
    count_calls,
    count_run_pivots,
    inject_midpoint,
    labels_for,
    random_exact_matrix,
    random_exact_space,
    random_float_space,
    random_space_with_midpoint,
    reference_ball_lp,
    reference_is_vertex,
    reference_vertex_lp,
)


# -- molecule vectors -------------------------------------------------------


def test_molecule_unit_coordinates():
    sp = fl.validate([[0, 1, 1], [1, 0, 2], [1, 2, 0]], ["e", "a", "b"], base="e")
    assert fl.molecule_vector(sp, "a", "e").vector == (F(1), F(0))
    assert fl.molecule_vector(sp, "a", "b").vector == (F(1, 2), F(-1, 2))


def test_molecule_antisymmetry():
    rng = random.Random(3)
    sp = random_exact_space(rng, 6)
    for _ in range(10):
        p, q = rng.sample(range(6), 2)
        upq = fl.molecule_vector(sp, p, q).vector
        uqp = fl.molecule_vector(sp, q, p).vector
        assert uqp == tuple(-v for v in upq)


def test_molecule_coefficients_sum_to_zero_with_base():
    # Dropping the base coordinate: the full coefficient vector of
    # j(p) - j(q) sums to zero, so the sum over non-base points is the
    # negative of the implicit base coefficient.
    sp = VEE
    m = fl.molecule_vector(sp, "a", "b")
    assert sum(m.vector) == 0  # neither point is the base
    m2 = fl.molecule_vector(sp, "a", "e")
    assert sum(m2.vector) == F(1, 1)  # base coefficient -1 was dropped


# -- free norm ----------------------------------------------------------------


def test_free_norm_zero_vector():
    assert fl.free_norm(EQUILATERAL, [0, 0]) == 0
    assert fl.free_norm(EQUILATERAL, fl.FreeVector((F(0), F(0)))) == 0


def test_free_norm_molecules_are_unit():
    rng = random.Random(5)
    for _ in range(8):
        sp = random_exact_space(rng, rng.randint(3, 6))
        for p in range(sp.n):
            for q in range(sp.n):
                if p != q:
                    m = fl.molecule_vector(sp, p, q)
                    assert fl.free_norm(sp, m.vector) == 1


def test_free_norm_homogeneity_and_triangle():
    rng = random.Random(7)
    sp = random_exact_space(rng, 5)
    a = [F(rng.randint(-5, 5), 2) for _ in range(4)]
    b = [F(rng.randint(-5, 5), 3) for _ in range(4)]
    na, nb = fl.free_norm(sp, a), fl.free_norm(sp, b)
    assert fl.free_norm(sp, [2 * v for v in a]) == 2 * na
    nsum = fl.free_norm(sp, [x + y for x, y in zip(a, b)])
    assert nsum <= na + nb
    assert (na == 0) == all(v == 0 for v in a)


def test_free_norm_duality_witness():
    rng = random.Random(9)
    for _ in range(6):
        sp = random_exact_space(rng, 5)
        a = [F(rng.randint(-6, 6)) for _ in range(4)]
        value, witness = fl.free_norm(sp, a, with_witness=True)
        f = [witness[lab] if lab in witness else F(0) for lab in sp.labels]
        f[sp.base_index] = F(0)
        # witness is feasible (unit ball) and attains the optimum
        assert fl.lipschitz_constant(sp, f) <= 1
        assert fl.pairing(sp, a, f) == value
        # the optimum is a support value over the molecule polytope: no
        # molecule pairs against f above 1, and the norm bounds a.f from above
        for p in range(5):
            for q in range(5):
                if p != q:
                    assert abs(fl.phi(sp, f, p, q)) <= 1


def test_free_vector_serves_as_coefficients():
    rng = random.Random(10)
    sp = random_exact_space(rng, 5, base=2)
    coeffs = (F(3, 2), F(-1), F(0), F(5, 7))
    f = [F(rng.randint(-9, 9), 4) for _ in range(5)]
    vec = fl.FreeVector(coeffs)
    assert len(vec) == 4 and list(vec) == list(coeffs)
    assert fl.pairing(sp, vec, f) == fl.pairing(sp, coeffs, f)
    assert fl.free_norm(sp, vec) == fl.free_norm(sp, coeffs)


def test_free_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fl.free_norm(EQUILATERAL, [1, 2, 3])


def _free_norm_corpus():
    # An integer vector and a molecule on a plain space and on a space with
    # a midpoint for each n in 4..8, each with a random base.
    rng = random.Random(2020)
    for n in range(4, 9):
        for midpoint in (False, True):
            if midpoint:
                sp = random_space_with_midpoint(rng, n, base=rng.randrange(n))[0]
            else:
                sp = random_exact_space(rng, n, base=rng.randrange(n))
            yield sp, [rng.randint(-9, 9) for _ in range(n - 1)]
            p, q = rng.sample(range(n), 2)
            yield sp, fl.molecule_vector(sp, p, q).vector


def test_free_norm_pivot_ledger(monkeypatch):
    # Bland's rule fixes the pivot path, so the pivot total over the corpus
    # is pinned with the outputs: a cheaper pivot must not take other steps.
    # The revised phase two takes the pivots that the dense free tableau took.
    pivots = count_calls(monkeypatch, fl.simplex, "_ball_pivot", limit=102)
    digest = hashlib.sha256()
    for sp, coeffs in _free_norm_corpus():
        digest.update(repr(fl.free_norm(sp, coeffs, with_witness=True)).encode())
    assert pivots[0] == 102
    assert digest.hexdigest() == "88980b0af8b780edef8a196be48b2ed1901b5379446b5442505e30b7937bd80b"


def _patched_ball_lp(monkeypatch, change):
    # the engine's answer passed through change(g, u, b) before free_norm
    # reads it
    solve = fl.simplex._ball_phase_two

    def patched(rows, cost, maximize):
        return change(*solve(rows, cost, maximize), rows.b)

    monkeypatch.setattr(fl.simplex, "_ball_phase_two", patched)


def _balanced_negative_dual(g, u, b):
    # free_norm's rows come in pairs, the two orientations of one pair of
    # points, each with bound d: adding t to both keeps A^T u and adds
    # 2 t d to b.u. So +d' on a pair at distance d and -d on a pair at
    # distance d' whose multipliers are 0 keep A^T u = a and b.u = a.f,
    # and leave two entries negative
    zero = next(r for r in range(0, len(u), 2) if u[r] == u[r + 1] == 0)
    other = next(r for r in range(0, len(u), 2) if r != zero)
    u = list(u)
    for r in (other, other + 1):
        u[r] += b[zero]
    for r in (zero, zero + 1):
        u[r] -= b[other]
    return g, u


def _flipped_dual(g, u, b):
    # one positive multiplier moved to the opposite orientation of its
    # pair, which has the same bound: u >= 0 and b.u = a.f hold, but
    # A^T u misses the coefficients
    r = next(r for r, v in enumerate(u) if v > 0)
    u = list(u)
    u[r ^ 1] += u[r]
    u[r] = 0
    return g, u


@pytest.mark.parametrize(
    "change, message",
    [
        # a witness that leaves the Lipschitz ball: f(x) above d(x, e)
        (lambda g, u, b: ([g[0] + 100, *g[1:]], u), "not 1-Lipschitz"),
        # a feasible witness that is not optimal, with the true multipliers
        (lambda g, u, b: ([0] * len(g), u), "dual certificate"),
        # the optimal witness with multipliers that do not sum to the
        # coefficients, or are negative
        (lambda g, u, b: (g, [2 * v for v in u]), "dual certificate"),
        (lambda g, u, b: (g, [v - (v == 0) for v in u]), "dual certificate"),
        # each fails one clause of the dual check alone
        (_balanced_negative_dual, "dual certificate"),
        (_flipped_dual, "dual certificate"),
    ],
    ids=[
        "infeasible-witness", "suboptimal-witness", "scaled-dual", "negative-dual",
        "balanced-negative-dual", "flipped-dual",
    ],
)
def test_free_norm_rejects_a_wrong_witness_or_dual(monkeypatch, change, message):
    sp = random_exact_space(random.Random(8), 5, base=1)
    coeffs = [3, -1, F(1, 2), 2]
    assert fl.free_norm(sp, coeffs) > 0
    _patched_ball_lp(monkeypatch, change)
    with pytest.raises(fl.simplex.LPFailure, match=message):
        fl.free_norm(sp, coeffs, with_witness=True)


def test_lp_layers_read_the_integer_matrix_and_leave_dist_unbuilt():
    # free_norm and lazy attainment on a space read from ratio strings
    # take d(x,y) from the integers, as the vertex oracle does
    eager = random_space_with_midpoint(random.Random(22), 6, base=4)[0]
    lazy = fl.space_from_dict(fl.space_to_dict(eager))
    assert "dist" not in vars(lazy)
    rng = random.Random(3)
    for p in range(6):
        coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 7))) for _ in range(5)]
        want = fl.free_norm(eager, coeffs, with_witness=True)
        assert fl.free_norm(lazy, coeffs, with_witness=True) == want
        for q in range(6):
            if p != q:
                assert fl.attainment_set(lazy, p, q) == fl.attainment_set(eager, p, q)
    assert "dist" not in vars(lazy)


def test_free_norm_float_mode():
    rng = random.Random(11)
    sp = random_float_space(rng, 4)
    m = fl.molecule_vector(sp, 1, 2)
    assert abs(fl.free_norm(sp, m.vector) - 1.0) < 1e-12


# -- vertex oracle ------------------------------------------------------------


def test_is_vertex_vee_examples():
    cert = fl.is_vertex(VEE, "a", "b")
    assert not cert.vertex
    assert cert.weights == {("a", "e"): F(1, 2), ("e", "b"): F(1, 2)}
    cert2 = fl.is_vertex(VEE, "e", "a")
    assert cert2.vertex and cert2.separating is not None and cert2.margin > 0


def test_is_vertex_equilateral_hexagon():
    for p in range(3):
        for q in range(3):
            if p != q:
                assert fl.is_vertex(EQUILATERAL, p, q).vertex


def test_is_vertex_requires_exact_mode():
    rng = random.Random(13)
    sp = random_float_space(rng, 4)
    with pytest.raises(FloatModeUnsupported, match="^the polytope oracle requires exact mode$"):
        fl.is_vertex(sp, 0, 1)


def test_oracle_point_guard():
    rng = random.Random(15)
    sp = random_exact_space(rng, 13)
    with pytest.raises(TooManyPoints, match="^the polytope oracle is guarded at 12 points$"):
        fl.is_vertex(sp, 0, 1)
    with pytest.raises(TooManyPoints, match="^the polytope oracle is guarded at 12 points$"):
        fl.free_norm(sp, [1] * 12)
    assert fl.is_vertex(sp, 0, 1, max_points=13) is not None


def test_is_vertex_agrees_with_classifier_eight_points():
    rng = random.Random(17)
    for k in range(3):
        if k % 2:
            sp, _ = random_space_with_midpoint(rng, 8)
        else:
            sp = random_exact_space(rng, 8)
        for p in range(8):
            for q in range(p + 1, 8):
                verdict = fl.classify_pair(sp, p, q).is_extreme
                assert fl.is_vertex(sp, p, q).vertex == verdict


# entry denominators: the default narrow set, or primes up to 97, which
# make the common denominators of the distances and of phi large
NARROW = (1, 1, 2, 3)
WIDE = tuple(range(1, 13))
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(0, 2), st.sampled_from([NARROW, PRIMES]))
@example(0, 2, 0, NARROW)
@example(1, 8, 0, PRIMES)
@example(2, 6, 2, PRIMES)
@example(3, 5, 1, NARROW)
def test_is_vertex_matches_reference_oracle(seed, n, midpoints, denominators):
    rng = random.Random(seed)
    matrix = random_exact_matrix(rng, n, denominators)
    while len(matrix) < min(n + midpoints, 8):
        matrix, _ = inject_midpoint(matrix, rng)
    m = len(matrix)
    sp = fl.validate(matrix, labels_for(m), base=rng.randrange(m), mode="exact")
    for p in range(m):
        for q in range(m):
            if p != q:
                assert repr(fl.is_vertex(sp, p, q)) == repr(reference_is_vertex(sp, p, q))


@pytest.mark.parametrize(
    "seed, n, midpoint, denominators",
    [
        (0, 4, False, NARROW),
        (1, 4, True, PRIMES),
        (2, 5, False, PRIMES),
        (3, 6, True, NARROW),
        (4, 7, False, NARROW),
        (5, 7, True, PRIMES),
        (6, 8, False, PRIMES),
    ],
)
def test_is_vertex_takes_the_pivots_of_the_reference_oracle(monkeypatch, seed, n, midpoint, denominators):
    # equal certificates could come from different pivot paths; equal
    # pivot counts, pair by pair, show that the revised phase one on the
    # scaled columns takes the dense tableau's phase-one path. The
    # reference's drive-out pivots come after phase one and are not counted.
    taken = count_calls(monkeypatch, fl.simplex, "_network_pivot")
    dense = count_run_pivots(monkeypatch)
    rng = random.Random(seed)
    matrix = random_exact_matrix(rng, n - midpoint, denominators)
    if midpoint:
        matrix, _ = inject_midpoint(matrix, rng)
    sp = fl.validate(matrix, labels_for(n), base=rng.randrange(n), mode="exact")
    for p in range(n):
        for q in range(n):
            if p != q:
                taken[0] = dense[0] = 0
                fl.is_vertex(sp, p, q)
                reference_is_vertex(sp, p, q)
                assert taken[0] == dense[0] > 0, (p, q)


def _vertex_lp_corpus():
    # the LP of is_vertex on every ordered pair of two random exact spaces
    # per n, one on each denominator set, one of them with a midpoint, each
    # with a random base
    rng = random.Random(4096)
    for i, n in enumerate((4, 5, 6, 7, 9, 12)):
        for denominators, midpoint in ((NARROW, i % 2), (PRIMES, 1 - i % 2)):
            matrix = random_exact_matrix(rng, n - midpoint, denominators)
            if midpoint:
                matrix, _ = inject_midpoint(matrix, rng)
            sp = fl.validate(matrix, labels_for(n), base=rng.randrange(n), mode="exact")
            unit, dm = sp._int_matrix
            for p in range(n):
                for q in range(n):
                    if p != q:
                        arcs = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) != (p, q)]
                        yield unit, dm, sp.base_index, arcs, p, q


def _checked_network_pivots(monkeypatch, limit: int):
    """Count the pivots of the vertex LP, as ``count_calls`` with limit,
    and check each one as it happens: the new determinant is the pivot
    element col[pr] > 0, and no entry of the engine's rows has more bits
    than m^2 unit^2 M (M + 2), M the largest entry of dm and m its size
    (|adj B| <= m M, as the point rows are totally unimodular; b <= unit
    on point rows and unit M on the distance row; each cost <= unit). A
    wrong update fails at its first pivot, not after a ledger's worth of
    growing integers. Returns the count and a solve that sets the bound."""
    calls, bits = [0], [0]
    pivot = fl.simplex._network_pivot

    def checking(rows, basis, pr, pc, col, det):
        calls[0] += 1
        if calls[0] > limit:
            raise AssertionError(f"_network_pivot called more than {limit} times")
        new = pivot(rows, basis, pr, pc, col, det)
        assert new == col[pr] > 0, (new, col[pr])
        assert max(max(map(abs, row)) for row in rows).bit_length() <= bits[0]
        return new

    def solve(unit, dm, e, arcs, p, q):
        m, top = len(dm), max(map(max, dm))
        bits[0] = (m * m * unit * unit * top * (top + 2)).bit_length()
        return fl.simplex._network_phase_one(unit, dm, e, arcs, p, q)

    monkeypatch.setattr(fl.simplex, "_network_pivot", checking)
    return calls, solve


def test_network_phase_one_equals_the_dense_tableau_and_pins_its_pivots(monkeypatch):
    # x and the Farkas vector equal those of the dense tableau on the same
    # network LP, and Bland's rule fixes the pivot path, so the phase-one
    # pivot total over the corpus is pinned with the results
    taken, solve = _checked_network_pivots(monkeypatch, limit=16050)
    dense = count_run_pivots(monkeypatch)
    statuses = []
    for lp in _vertex_lp_corpus():
        got = solve(*lp)
        assert got == reference_vertex_lp(*lp), (len(lp[1]), lp[4:])
        statuses.append(got.status)
    assert len(statuses) == 616
    assert 0 < statuses.count(fl.simplex.INFEASIBLE) < len(statuses)
    # the dense tableau takes 16,922 pivots on this corpus, drive-out included
    assert taken[0] == dense[0] == 16050


def _wide_lp_corpus():
    # built like the benchmark's exact spaces: entry denominators 1-12, so
    # the common unit reaches 27720, n = 5-7, every other space with a
    # midpoint, a random base, and the LP of every unordered pair, as
    # classify --oracle asks for them
    rng = random.Random(27720)
    for i in range(12):
        n, midpoint = 5 + i % 3, i % 2
        matrix = random_exact_matrix(rng, n - midpoint, WIDE)
        if midpoint:
            matrix, _ = inject_midpoint(matrix, rng)
        sp = fl.validate(matrix, labels_for(n), base=rng.randrange(n), mode="exact")
        unit, dm = sp._int_matrix
        for p, q in combinations(range(n), 2):
            arcs = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) != (p, q)]
            yield unit, dm, sp.base_index, arcs, p, q


def test_network_phase_one_at_the_benchmark_denominators_pins_its_pivots(monkeypatch):
    taken, solve = _checked_network_pivots(monkeypatch, limit=2341)
    dense = count_run_pivots(monkeypatch)
    statuses, units = [], set()
    for lp in _wide_lp_corpus():
        got = solve(*lp)
        assert got == reference_vertex_lp(*lp), (len(lp[1]), lp[4:])
        statuses.append(got.status)
        units.add(lp[0])
    assert len(statuses) == 184
    assert 0 < statuses.count(fl.simplex.INFEASIBLE) < len(statuses)
    assert max(units) == 27720
    assert taken[0] == dense[0] == 2341


def _basis_det(dm, e, arcs, q, basis):
    # det B of the integer system of _network_phase_one, by Fraction
    # elimination: the rows of the points but e, the row of q negated, then
    # the distance row; arc (x, y) is (e_x - e_y; dm[x][y]), column
    # len(arcs) + i the unit vector e_i
    m, na = len(dm), len(arcs)
    rows = [z for z in range(m) if z != e]
    cols = []
    for b in basis:
        if b >= na:
            cols.append([F(int(i == b - na)) for i in range(m)])
            continue
        x, y = arcs[b]
        col = [F(int(z == x) - int(z == y)) * (-1 if z == q else 1) for z in rows]
        cols.append(col + [F(dm[x][y])])
    a = [list(r) for r in zip(*cols)]
    det = F(1)
    for c in range(m):
        pr = next((r for r in range(c, m) if a[r][c]), None)
        if pr is None:
            return F(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, m):
            f = a[r][c] / a[c][c]
            a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return det


def test_network_pivot_keeps_the_basis_determinant_positive_and_bounded(monkeypatch):
    # the engine divides exactly by D = det B after each pivot; D is the
    # basis determinant, positive, and, the point rows being totally
    # unimodular, at most the sum of the distance-row entries of the
    # basis (1 for the distance row's artificial), so the integers stay
    # as small as the distances
    seen = []
    pivot = fl.simplex._network_pivot

    def recording(rows, basis, pr, pc, col, det):
        new = pivot(rows, basis, pr, pc, col, det)
        seen.append((new, list(basis)))
        return new

    monkeypatch.setattr(fl.simplex, "_network_pivot", recording)
    for unit, dm, e, arcs, p, q in _wide_lp_corpus():
        na, m = len(arcs), len(dm)
        seen.clear()
        fl.simplex._network_phase_one(unit, dm, e, arcs, p, q)
        assert seen
        for det, basis in seen:
            bound = sum(dm[x][y] for x, y in (arcs[b] for b in basis if b < na))
            bound += na + m - 1 in basis
            assert 0 < det <= bound, (p, q, basis)
            assert det == _basis_det(dm, e, arcs, q, basis), (p, q, basis)


def _ball_lp_corpus():
    # The Lipschitz-ball LPs of lazy attainment and free_norm on one space
    # per n = 2-12, each with a random base; wide denominators at odd n, a
    # midpoint at n = 3, 4, 6, 7, 9, 10, 12. Lazy: every candidate
    # objective in both senses, on every ordered pair for n <= 6, on
    # (x, e) and (x, y) with neither the base e for n = 7, 8, and on one of
    # them for n >= 9; the rows of pairs on a
    # geodesic to q have zero right-hand sides. Then free_norm on an
    # integer vector, a molecule and a vector over wide denominators.
    rng = random.Random(30)
    for n in range(2, 13):
        midpoint = n > 2 and n % 3 != 2
        matrix = random_exact_matrix(rng, n - midpoint, PRIMES if n % 2 else NARROW)
        if midpoint:
            matrix, _ = inject_midpoint(matrix, rng)
        sp = fl.validate(matrix, labels_for(n), base=rng.randrange(n), mode="exact")
        unit, dm, e = *sp._int_matrix, sp.base_index
        pairs = list(permutations(range(n), 2))
        if n > 6:
            x, y = rng.sample([x for x in range(n) if x != e], 2)
            pairs = [(x, e), (x, y)] if n <= 8 else [(x, (e, y)[n % 2])]
        for p, q in pairs:
            prob = _AttainmentLP(sp, p, q)
            rows = fl.simplex._BallRows(dm, prob.var_of, [int(v * unit) for v in prob.h])
            for i, j in combinations(range(n), 2):
                if {i, j} != {p, q}:
                    c = [0] * prob.nv
                    for x, a in ((i, 1), (j, -1)):
                        if prob.var_of[x] is not None:
                            c[prob.var_of[x]] += a
                    for maximize in (False, True):
                        yield prob.lp, rows, unit, c, maximize
        var_of = [None if x == e else x - (x > e) for x in range(n)]
        lp = reference_ball_lp(sp, var_of, n - 1)
        rows = fl.simplex._BallRows(dm, var_of)
        p, q = rng.sample(range(n), 2)
        for c in (
            [rng.randint(-9, 9) for _ in range(n - 1)],
            fl.molecule_vector(sp, p, q).vector,
            [F(rng.randint(-9, 9), rng.choice(PRIMES)) for _ in range(n - 1)],
        ):
            yield lp, rows, unit, c, True


def _check_ball_lp(lp, rows, unit, c, maximize, taken, dense):
    # one LP on both engines: equal x, objective and pivot count, and the
    # multipliers are a dual optimum (u >= 0, u.A = c, u.b = c.g; -c when
    # minimizing)
    before = taken[0], dense[0]
    ref = lp.solve(c, maximize)
    c_den = lcm(*(F(v).denominator for v in c))
    cost = [int(v * c_den) for v in c]
    g, u = fl.simplex._ball_phase_two(rows, cost, maximize)
    assert ref.x == tuple(F(v, unit) for v in g)
    top = sum(v * x for v, x in zip(cost, g))
    assert ref.objective == F(top, c_den * unit)
    assert taken[0] - before[0] == dense[0] - before[1]
    flow = [0] * len(c)
    for row, ur in zip(rows, u):
        for v, a in row:
            flow[v] += a * ur
    sign = 1 if maximize else -1
    assert min(u, default=0) >= 0 and flow == [sign * v for v in cost]
    assert sum(x * y for x, y in zip(rows.b, u)) == sign * top


def test_ball_phase_two_equals_the_dense_tableau_and_pins_its_pivots(monkeypatch):
    # The revised phase two against the dense free tableau, LP by LP; its
    # pivot total over the corpus is pinned, as Bland's rule fixes the path
    taken = count_calls(monkeypatch, fl.simplex, "_ball_pivot", limit=5365)
    dense = count_run_pivots(monkeypatch)
    solved = zero_rhs = 0
    for lp in _ball_lp_corpus():
        _check_ball_lp(*lp, taken, dense)
        solved += 1
        zero_rhs += 0 in lp[1].b
    assert solved == 1961 and 0 < zero_rhs < solved
    assert taken[0] == dense[0] == 5365


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.booleans(), st.sampled_from([NARROW, PRIMES]), st.booleans())
@example(0, 2, False, NARROW, True)
@example(1, 8, True, PRIMES, False)
def test_ball_phase_two_matches_the_dense_tableau_on_any_objective(seed, n, midpoint, denominators, maximize):
    rng = random.Random(seed)
    matrix = random_exact_matrix(rng, n, denominators)
    if midpoint:
        matrix, _ = inject_midpoint(matrix, rng)
    m = len(matrix)
    sp = fl.validate(matrix, labels_for(m), base=rng.randrange(m), mode="exact")
    p, q = rng.sample(range(m), 2)
    prob = _AttainmentLP(sp, p, q)
    unit, dm = sp._int_matrix
    rows = fl.simplex._BallRows(dm, prob.var_of, [int(v * unit) for v in prob.h])
    c = [F(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(prob.nv)]
    with pytest.MonkeyPatch.context() as mp:
        taken = count_calls(mp, fl.simplex, "_ball_pivot")
        dense = count_run_pivots(mp)
        _check_ball_lp(prob.lp, rows, unit, c, maximize, taken, dense)


def test_is_vertex_reads_the_integer_matrix_and_leaves_dist_unbuilt():
    # a space read from ratio strings builds dist on first read; the
    # oracle's columns, target and checks take d(x,y) from the integers
    eager = random_space_with_midpoint(random.Random(21), 6, base=2)[0]
    doc = fl.space_to_dict(eager)
    lazy = fl.space_from_dict(doc)
    assert "dist" not in vars(lazy)
    for p in range(6):
        for q in range(6):
            if p != q:
                assert fl.is_vertex(lazy, p, q) == fl.is_vertex(eager, p, q)
    assert "dist" not in vars(lazy)


def test_is_vertex_rejects_bad_farkas_certificate(monkeypatch):
    # an infeasible verdict whose multipliers separate nothing must fail
    # loudly, not fall back to another LP
    def bogus(unit, dm, e, arcs, p, q):
        return fl.simplex.LPResult(fl.simplex.INFEASIBLE, farkas=(F(0),) * len(dm))

    monkeypatch.setattr(fl.simplex, "_network_phase_one", bogus)
    with pytest.raises(fl.simplex.LPFailure):
        fl.is_vertex(EQUILATERAL, "a", "b")


def _fake_combination(monkeypatch, mu_by_pair, n, pq):
    # an OPTIMAL result with the given values mu on the columns of
    # is_vertex: the other ordered index pairs, lexicographic. Column (x, y)
    # is u_xy scaled by d(x,y), so mu_xy = lambda_xy / d(x,y) for a convex
    # weight lambda_xy. The two VEE fakes below weigh only pairs at
    # distance 1, where mu and lambda are equal.
    cols = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) != pq]
    x = tuple(F(mu_by_pair.get(c, 0)) for c in cols)

    def fake(unit, dm, e, arcs, p, q):
        assert list(arcs) == cols
        return fl.simplex.LPResult(fl.simplex.OPTIMAL, objective=F(0), x=x)

    monkeypatch.setattr(fl.simplex, "_network_phase_one", fake)


def test_is_vertex_rejects_weights_that_miss_the_molecule(monkeypatch):
    # VEE is e, a, b: all weight on u_ea sums to 1 but is not u_ab
    _fake_combination(monkeypatch, {(0, 1): 1}, 3, (1, 2))
    with pytest.raises(fl.simplex.LPFailure, match="combination certificate failed verification"):
        fl.is_vertex(VEE, "a", "b")


def test_is_vertex_rejects_a_negative_weight(monkeypatch):
    # 3/4 u_ae + 1/4 u_ea + 1/4 u_eb - 1/4 u_be is u_ab and sums to 1, so
    # only the sign check can refuse it
    weights = {(1, 0): F(3, 4), (0, 1): F(1, 4), (0, 2): F(1, 4), (2, 0): F(-1, 4)}
    _fake_combination(monkeypatch, weights, 3, (1, 2))
    with pytest.raises(fl.simplex.LPFailure, match="combination certificate failed verification"):
        fl.is_vertex(VEE, "a", "b")


# a, b, c with c between a and b at distances 1 and 3: u_ab is
# 1/4 u_ac + 3/4 u_cb, and the scaled columns carry mu = 1/4 on both
LOPSIDED = fl.validate([[0, 4, 1], [4, 0, 3], [1, 3, 0]], ["a", "b", "c"], base="a", mode="exact")


def test_is_vertex_rejects_weights_read_as_lambda_not_mu(monkeypatch):
    # the convex weights themselves, fed as mu: 1/4 (e_a - e_c) +
    # 3/4 (e_c - e_b) is not u_ab = (e_a - e_b) / 4
    _fake_combination(monkeypatch, {(0, 2): F(1, 4), (2, 1): F(3, 4)}, 3, (0, 1))
    with pytest.raises(fl.simplex.LPFailure, match="combination certificate failed verification"):
        fl.is_vertex(LOPSIDED, "a", "b")


def test_is_vertex_rejects_a_conic_combination(monkeypatch):
    # the same mu on (a, c) and (c, a) cancels in the flow and adds to the
    # weights: u_ab is met, with positive weights that sum to 3/2
    _fake_combination(monkeypatch, {(0, 2): F(1, 2), (2, 0): F(1, 4), (2, 1): F(1, 4)}, 3, (0, 1))
    with pytest.raises(fl.simplex.LPFailure, match="combination certificate failed verification"):
        fl.is_vertex(LOPSIDED, "a", "b")


def test_is_vertex_reports_mu_times_distance_as_the_weights(monkeypatch):
    # the same combination fed as mu = lambda / d is accepted, and the
    # weights come back as lambda
    _fake_combination(monkeypatch, {(0, 2): F(1, 4), (2, 1): F(1, 4)}, 3, (0, 1))
    cert = fl.is_vertex(LOPSIDED, "a", "b")
    assert cert == fl.VertexCertificate(
        vertex=False, separating=None, margin=None,
        weights={("a", "c"): F(1, 4), ("c", "b"): F(3, 4)},
    )


def test_is_vertex_rejects_a_farkas_functional_with_zero_gap(monkeypatch):
    # EQUILATERAL is a, b, c with base a; phi(b) = -1, phi(c) = 0 gives u_ab
    # and u_cb the same slope 1, above every other, so the least gap is 0
    def tie(unit, dm, e, arcs, p, q):
        return fl.simplex.LPResult(fl.simplex.INFEASIBLE, farkas=(F(-1), F(0), F(1)))

    monkeypatch.setattr(fl.simplex, "_network_phase_one", tie)
    with pytest.raises(fl.simplex.LPFailure, match="Farkas certificate failed verification"):
        fl.is_vertex(EQUILATERAL, "a", "b")


def test_is_vertex_separating_functional_checks_out():
    rng = random.Random(19)
    sp = random_exact_space(rng, 5)
    molecules = [fl.molecule_vector(sp, i, j) for i in range(5) for j in range(5) if i != j]
    for p in range(5):
        for q in range(p + 1, 5):
            cert = fl.is_vertex(sp, p, q)
            if not cert.vertex:
                continue
            labels = [lab for i, lab in enumerate(sp.labels) if i != sp.base_index]
            phi_vec = [cert.separating[lab] for lab in labels]
            target = fl.molecule_vector(sp, p, q).vector
            t_val = sum(a * b for a, b in zip(phi_vec, target))
            gaps = [
                t_val - sum(a * b for a, b in zip(phi_vec, m.vector))
                for m in molecules
                if (m.p, m.q) != (sp.labels[p], sp.labels[q])
            ]
            assert min(gaps) == cert.margin > 0


# -- decomposition --------------------------------------------------------------


def test_decomposition_middle_point_convex():
    rep = fl.decomposition_check(CHAIN, "a", "b", "c")
    assert rep.w1 == rep.w2 == F(1, 2)
    assert rep.coefficient_sum == 1
    assert rep.is_convex_combination
    assert all(v == 0 for v in rep.residual)


def test_decomposition_equilateral_not_convex():
    sp = fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "e"], base="e")
    rep = fl.decomposition_check(sp, "a", "b", "e")
    assert rep.w1 == rep.w2 == F(1)
    assert rep.coefficient_sum == 2
    assert not rep.is_convex_combination
    assert all(v == 0 for v in rep.residual)


def test_decomposition_float_mode_follows_betweenness():
    # excess(r;p,q) = 1e-8: inside the float tolerance 1e-9 * 1000 but
    # outside a tolerance of 1e-9 on the coefficient sum
    sp = fl.validate(
        [[0, 1, 0.5, 1000], [1, 0, 0.5 + 1e-8, 1000],
         [0.5, 0.5 + 1e-8, 0, 1000], [1000, 1000, 1000, 0]],
        ["p", "q", "r", "s"], mode="float",
    )
    assert sp.is_between("r", "p", "q")
    assert fl.strict_middles(sp, "p", "q") == ("r",)
    assert fl.classify_pair(sp, "p", "q").witness_middle == "r"
    rep = fl.decomposition_check(sp, "p", "q", "r")
    assert rep.coefficient_sum > 1 + sp.rel_tol
    assert rep.is_convex_combination


def test_decomposition_requires_distinct_points():
    with pytest.raises(NotDistinct):
        fl.decomposition_check(CHAIN, "a", "b", "a")


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7))
def test_decomposition_coefficient_law(seed, n):
    rng = random.Random(seed)
    sp = random_exact_space(rng, n)
    p, q, r = rng.sample(range(n), 3)
    rep = fl.decomposition_check(sp, p, q, r)
    exc = fl.excess(sp, r, p, q).value
    assert rep.coefficient_sum == 1 + exc / sp.dist[p][q]
    assert all(v == 0 for v in rep.residual)
    assert rep.is_convex_combination == (exc == 0)
