"""Molecule vectors, the LP norm, vertex certificates, decompositions."""

import random
from fractions import Fraction as F

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
    CHAIN,
    EQUILATERAL,
    VEE,
    inject_midpoint,
    labels_for,
    random_exact_matrix,
    random_exact_space,
    random_float_space,
    random_space_with_midpoint,
    reference_is_vertex,
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


def test_is_vertex_rejects_bad_farkas_certificate(monkeypatch):
    # an infeasible verdict whose multipliers separate nothing must fail
    # loudly, not fall back to another LP
    def bogus(a_eq, b_eq):
        return fl.simplex.LPResult(fl.simplex.INFEASIBLE, farkas=(F(0),) * len(a_eq))

    monkeypatch.setattr(fl.simplex, "feasible_combination", bogus)
    with pytest.raises(fl.simplex.LPFailure):
        fl.is_vertex(EQUILATERAL, "a", "b")


def _fake_combination(monkeypatch, weights_by_pair, n, pq):
    # an OPTIMAL result with the given weights on the columns of is_vertex:
    # the other ordered index pairs, lexicographic
    cols = [(x, y) for x in range(n) for y in range(n) if x != y and (x, y) != pq]
    x = tuple(F(weights_by_pair.get(c, 0)) for c in cols)

    def fake(a_eq, b_eq):
        assert len(a_eq[0]) == len(cols)
        return fl.simplex.LPResult(fl.simplex.OPTIMAL, objective=F(0), x=x)

    monkeypatch.setattr(fl.simplex, "feasible_combination", fake)


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


def test_is_vertex_rejects_a_farkas_functional_with_zero_gap(monkeypatch):
    # EQUILATERAL is a, b, c with base a; phi(b) = -1, phi(c) = 0 gives u_ab
    # and u_cb the same slope 1, above every other, so the least gap is 0
    def tie(a_eq, b_eq):
        return fl.simplex.LPResult(fl.simplex.INFEASIBLE, farkas=(F(-1), F(0), F(1)))

    monkeypatch.setattr(fl.simplex, "feasible_combination", tie)
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
