"""Slopes, extension preservation, peaking certificates, norm attainment."""

import hashlib
import random
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import freelip as fl
from freelip import simplex
from freelip.lipfun import AlphaTooLarge, BadAlpha, EmptySubset, MiddlePointExists, _closure
from freelip.polytope import DimensionMismatch
from freelip.space import from_points
from support import (
    CHAIN,
    EQUILATERAL,
    VEE,
    closure,
    count_pivots,
    random_exact_space,
    random_float_space,
    random_space_with_midpoint,
    reference_full_attainment,
)


# -- phi and the Lipschitz constant ---------------------------------------


def test_phi_distance_function_is_unit_slope():
    rng = random.Random(2)
    sp = random_exact_space(rng, 6)
    for q in range(sp.n):
        h = [sp.dist[x][q] for x in range(sp.n)]
        for p in range(sp.n):
            if p != q:
                assert fl.phi(sp, h, p, q) == 1
        assert fl.lipschitz_constant(sp, h) == 1


def test_phi_zero_and_antisymmetry():
    sp = EQUILATERAL
    zero = [0, 0, 0]
    assert fl.phi(sp, zero, "a", "b") == 0
    f = [1, 0, 0]
    assert fl.phi(sp, f, "a", "b") == 1
    assert fl.phi(sp, f, "b", "a") == -1


def test_lipschitz_constant_cases():
    sp = fl.validate([[0, 1], [1, 0]], ["a", "b"])
    assert fl.lipschitz_constant(sp, [5, 5]) == 0
    assert fl.lipschitz_constant(sp, [2, 0]) == 2


def test_lipfunction_rebases():
    f = fl.LipFunction(VEE, [3, 4, 2])
    assert not f.vanishes_at_base
    g = f.rebase()
    assert g.vanishes_at_base
    assert g.lip_constant == f.lip_constant


# -- McShane extension -----------------------------------------------------


def test_extension_identity_on_full_subset():
    rng = random.Random(4)
    sp = random_exact_space(rng, 5)
    g = [F(rng.randint(-4, 4)) for _ in range(5)]
    f = fl.mcshane_extend(sp, list(range(5)), g)
    assert list(f.values) == g


def test_extension_two_point_subset():
    rng = random.Random(5)
    sp = random_exact_space(rng, 6)
    p, q = 0, 3
    d = sp.dist[p][q]
    f = fl.mcshane_extend(sp, [p, q], [d, F(0)])
    assert f.values[p] == d and f.values[q] == 0
    assert f.lip_constant == 1
    assert f.sup_norm() == d


def test_extension_two_level_function():
    # Constant d(p,q) on one cluster, 0 on another; the extension keeps
    # L = d(p,q)/dist(U,V) and the sup norm.
    sp = fl.validate(
        [
            [0, 1, 4, 4, 5],
            [1, 0, 5, 4, 4],
            [4, 5, 0, 1, 2],
            [4, 4, 1, 0, 1],
            [5, 4, 2, 1, 0],
        ],
        ["u1", "u2", "v1", "v2", "v3"],
        base="u1",
    )
    val = F(3)
    f = fl.mcshane_extend(sp, ["u1", "u2", "v1", "v2", "v3"], [val, val, 0, 0, 0])
    assert f.lip_constant == F(3, 4)
    assert f.sup_norm() == val
    g = fl.mcshane_extend(sp, ["u1", "v1"], [val, F(0)])
    assert g.lip_constant == F(3, 4)
    assert g.sup_norm() == val


def test_extension_rejects_empty_subset():
    with pytest.raises(EmptySubset):
        fl.mcshane_extend(EQUILATERAL, [], [])


def test_extension_refuses_a_point_named_twice():
    for subset in (["a", "a"], ["b", 0, "a"]):
        with pytest.raises(fl.SpaceError, match="^the subset names 'a' twice$"):
            fl.mcshane_extend(EQUILATERAL, subset, [1] * len(subset))


def test_extension_needs_one_value_per_subset_point():
    with pytest.raises(fl.SpaceError, match="^one value per subset point required$"):
        fl.mcshane_extend(EQUILATERAL, ["a", "b"], [1])


def test_extension_singleton_subset():
    f = fl.mcshane_extend(EQUILATERAL, ["b"], [F(7)])
    assert f.lip_constant == 0
    assert set(f.values) == {F(7)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7), st.booleans())
def test_extension_preserves_constants(seed, n, exact):
    rng = random.Random(seed)
    sp = random_exact_space(rng, n) if exact else random_float_space(rng, n)
    k = rng.randint(1, n)
    subset = rng.sample(range(n), k)
    if exact:
        g = [F(rng.randint(-8, 8), rng.choice([1, 2, 3])) for _ in range(k)]
    else:
        g = [rng.uniform(-8, 8) for _ in range(k)]
    f = fl.mcshane_extend(sp, subset, g)
    lip_g = fl.lipschitz_constant(
        fl.validate(
            [[sp.dist[a][b] for b in subset] for a in subset],
            [sp.labels[a] for a in subset],
            mode=sp.mode,
        ),
        g,
    ) if k > 1 else 0
    sup_g = max(abs(v) for v in g)
    if exact:
        assert [f.values[a] for a in subset] == g
        assert f.lip_constant == lip_g
        assert f.sup_norm() == sup_g
    else:
        scale = max(1.0, float(sup_g))
        assert all(abs(f.values[a] - v) <= 1e-9 * scale for a, v in zip(subset, g))
        assert abs(f.lip_constant - lip_g) <= 1e-9 * max(1.0, lip_g)
        assert abs(f.sup_norm() - sup_g) <= 1e-9 * scale


# -- peaking -----------------------------------------------------------------


def test_peaking_equilateral():
    cert = fl.peaking_candidate(EQUILATERAL, "a", "b", F(1, 2))
    assert cert.c == 1
    assert cert.phi_pq == 1
    assert cert.lip_constant == 1
    assert cert.off_peak_max <= F(1, 2)
    assert cert.near_peak_max < 1
    assert cert.function.vanishes_at_base


def test_peaking_middle_point_fails():
    with pytest.raises(MiddlePointExists):
        fl.peaking_candidate(CHAIN, "a", "b")


def test_peaking_alpha_bounds():
    with pytest.raises(AlphaTooLarge):
        fl.peaking_candidate(EQUILATERAL, "a", "b", F(1))
    with pytest.raises(BadAlpha):
        fl.peaking_candidate(EQUILATERAL, "a", "b", F(0))


def test_peaking_margin_matches_definition():
    rng = random.Random(9)
    for _ in range(10):
        sp = random_exact_space(rng, 6)
        for p in range(6):
            for q in range(p + 1, 6):
                c = fl.peaking_margin(sp, p, q)
                ratios = [
                    fl.excess(sp, r, p, q).value / sp.dist[r][q]
                    for r in range(6)
                    if r not in (p, q)
                ]
                assert c == min([F(1), *ratios])


def test_peaking_default_alpha_certificate():
    rng = random.Random(13)
    for _ in range(10):
        sp = random_exact_space(rng, 5)
        for p in range(5):
            for q in range(5):
                if p == q:
                    continue
                try:
                    cert = fl.peaking_candidate(sp, p, q)
                except MiddlePointExists:
                    assert fl.strict_middles(sp, p, q)
                    continue
                assert cert.alpha == cert.c / 2
                assert cert.phi_pq == 1
                assert cert.lip_constant == 1
                assert cert.off_peak_max <= 1 - cert.alpha
                assert cert.near_peak_max < 1


# -- attainment --------------------------------------------------------------


def test_attainment_refuses_an_unknown_interval_mode():
    with pytest.raises(ValueError, match="^intervals must be 'lazy' or 'full'$"):
        fl.attainment_set(EQUILATERAL, "a", "b", intervals="bogus")


def test_attainment_equilateral_minimal():
    att = fl.attainment_set(EQUILATERAL, "a", "b", intervals="full")
    assert att.members == (("a", "b"), ("b", "a"))
    lo, hi = att.intervals[("a", "c")]
    assert lo < hi  # genuinely free slope elsewhere


def test_attainment_chain_forced_members():
    att = fl.attainment_set(CHAIN, "a", "b", intervals="full")
    assert ("a", "c") in att.members and ("c", "b") in att.members
    assert att.intervals[("a", "c")] == (1, 1)


def test_attainment_always_contains_the_pair():
    rng = random.Random(17)
    sp = random_exact_space(rng, 5)
    att = fl.attainment_set(sp, 1, 3)
    assert (sp.labels[1], sp.labels[3]) in att.members
    assert (sp.labels[3], sp.labels[1]) in att.members


def test_attainment_lazy_matches_full():
    rng = random.Random(19)
    for k in range(8):
        n = rng.randint(3, 5)
        sp = random_exact_space(rng, n)
        for p in range(n):
            for q in range(p + 1, n):
                lazy = fl.attainment_set(sp, p, q, intervals="lazy")
                full = fl.attainment_set(sp, p, q, intervals="full")
                assert lazy.members == full.members


def test_attainment_intervals_antisymmetric():
    att = fl.attainment_set(VEE, "a", "b", intervals="full")
    for (x, y), (lo, hi) in att.intervals.items():
        rlo, rhi = att.intervals[(y, x)]
        assert (rlo, rhi) == (-hi, -lo)


def test_attainment_peaking_consistency():
    rng = random.Random(21)
    for _ in range(6):
        sp = random_exact_space(rng, 5)
        for p in range(5):
            for q in range(p + 1, 5):
                try:
                    fl.peaking_candidate(sp, p, q)
                except MiddlePointExists:
                    continue
                att = fl.attainment_set(sp, p, q)
                assert att.members == (
                    (sp.labels[p], sp.labels[q]),
                    (sp.labels[q], sp.labels[p]),
                )


def test_attainment_alignment_consistency():
    rng = random.Random(27)
    for _ in range(6):
        sp, (p, q, m) = random_space_with_midpoint(rng, 5)
        att = fl.attainment_set(sp, p, q)
        assert (p, m) in att.members and (m, q) in att.members


SPACE_KINDS = {
    "exact": random_exact_space,
    "midpoint": lambda rng, n: random_space_with_midpoint(rng, n)[0],
    "float": random_float_space,
}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 9), st.sampled_from(sorted(SPACE_KINDS)))
@example(seed=4, n=5, kind="float")  # the rational reading breaks a triangle
def test_full_attainment_matches_lp_reference(seed, n, kind):
    # Full intervals come in closed form; the reference runs two LPs per
    # candidate. Equal repr: same members, interval values and order. An
    # injected midpoint gives members beyond the pair itself.
    rng = random.Random(seed)
    sp = SPACE_KINDS[kind](rng, n)
    p, q = rng.sample(range(n), 2)
    try:
        ref = reference_full_attainment(sp, p, q)
    except simplex.LPFailure as exc:
        with pytest.raises(simplex.LPFailure) as got:
            fl.attainment_set(sp, p, q, intervals="full")
        assert str(got.value) == str(exc)
        return
    assert repr(fl.attainment_set(sp, p, q, intervals="full")) == repr(ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 9), st.sampled_from(["exact", "midpoint"]))
def test_full_attainment_members_are_the_metric_segments(seed, n, kind):
    # A third decider, free of shortest paths and LPs: besides the pair,
    # (x,y) and (y,x) are members exactly when p, x, y and q lie in that
    # order on a geodesic.
    rng = random.Random(seed)
    sp = SPACE_KINDS[kind](rng, n)
    p, q = rng.sample(range(n), 2)
    d = sp.dist
    members = {(p, q), (q, p)}
    for x, y in permutations(range(n), 2):
        if {x, y} != {p, q} and d[p][x] + d[x][y] + d[y][q] == d[p][q]:
            members |= {(x, y), (y, x)}
    want = tuple((sp.labels[a], sp.labels[b]) for a, b in sorted(members))
    assert fl.attainment_set(sp, p, q, intervals="full").members == want


def _lazy_corpus():
    # Exact spaces, spaces with an injected midpoint and float spaces, each
    # with a random base, so every base is p or q for some pairs, then a
    # snowflake and an l2 cloud. Some float spaces read as rationals break
    # a triangle and raise LPFailure.
    rng = random.Random(2024)
    spaces = [random_exact_space(rng, n, base=rng.randrange(n)) for n in (2, 3, 4, 5, 6, 7, 5, 6)]
    for n in (4, 5, 6, 7):
        spaces.append(random_space_with_midpoint(rng, n, base=rng.randrange(n))[0])
    for n in (3, 4, 5, 5, 5, 6, 6):
        spaces.append(random_float_space(rng, n, base=rng.randrange(n)))
    spaces.append(random_float_space(random.Random(1), 5))
    # a snowflake and a planar l2 cloud with three collinear points
    spaces.append(fl.holder_transform(random_exact_space(random.Random(7), 6), F(1, 2)))
    cloud = [(0, 0), (1, 2), (2, 4), (5, 1), (-3, 2), (4, -4)]
    spaces.append(from_points({f"x{i}": pt for i, pt in enumerate(cloud)}, "l2"))
    return spaces


def _attainment_text(space, p, q, intervals):
    """The repr of the attainment set, or the LPFailure message."""
    try:
        return repr(fl.attainment_set(space, p, q, intervals=intervals))
    except simplex.LPFailure as exc:
        return f"LPFailure: {exc}"


def test_lazy_attainment_corpus_digest(monkeypatch):
    # On exact spaces lazy mode's printed intervals and members depend on
    # the LP optima (Bland's rule), so the whole output is pinned, and so
    # is the pivot total of the path that reached them.
    pivots = count_pivots(monkeypatch)
    digest = hashlib.sha256()
    for sp in _lazy_corpus():
        if sp.mode == "exact":
            for p, q in permutations(range(sp.n), 2):
                digest.update(_attainment_text(sp, p, q, "lazy").encode() + b"\n")
    assert pivots[0] == 2102
    assert digest.hexdigest() == "a207a8230d80b25243044fdf57208401545e0382344f6556e9e2855fe225553c"


def test_lazy_attainment_corpus_floats_equal_full(monkeypatch):
    # Float spaces take the closed form in both modes and solve no LP; 12
    # runs find the polytope of the rational reading empty.
    pivots = count_pivots(monkeypatch)
    failures = 0
    for sp in _lazy_corpus():
        if sp.mode != "exact":
            for p, q in permutations(range(sp.n), 2):
                lazy = _attainment_text(sp, p, q, "lazy")
                assert lazy == _attainment_text(sp, p, q, "full")
                failures += lazy.startswith("LPFailure")
    assert failures == 12
    assert pivots[0] == 0


def test_closure_of_the_rational_reading():
    rng = random.Random(31)
    spaces = [random_float_space(rng, n) for n in range(2, 10) for _ in range(4)]
    spaces.append(random_float_space(random.Random(1), 5))
    broken = 0
    for sp in spaces:
        unit, m = sp._int_matrix
        c = _closure(sp)
        want = closure([[F(v) for v in row] for row in sp.dist])
        assert [[F(v, unit) for v in row] for row in c] == want
        broken += c != m
    assert broken > 0  # some readings break a triangle, so the loop ran
    exact = random_exact_space(rng, 6)
    assert _closure(exact) is exact._int_matrix[1]


def _count_tableaux(monkeypatch):
    built, solved, scaled = [], [], [0]
    init, solve, int_row = simplex.Tableau.__init__, simplex.Tableau.solve, simplex._int_row

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counting_solve(self, *args, **kwargs):
        solved.append(self)
        return solve(self, *args, **kwargs)

    def counting_int_row(values):
        scaled[0] += 1
        return int_row(values)

    monkeypatch.setattr(simplex.Tableau, "__init__", counting_init)
    monkeypatch.setattr(simplex.Tableau, "solve", counting_solve)
    monkeypatch.setattr(simplex, "_int_row", counting_int_row)
    return built, solved, scaled


def test_full_attainment_runs_no_lp(monkeypatch):
    built, solved, _ = _count_tableaux(monkeypatch)
    fl.attainment_set(random_exact_space(random.Random(7), 7), 1, 2, intervals="full")
    assert built == [] and solved == []


def test_lazy_attainment_builds_one_tableau(monkeypatch):
    # Machine-independent: one Lipschitz-ball tableau, at most
    # 2 * (C(n,2) - 1) objectives solved on it, and every row scaled to
    # ints only once.
    n = 7
    built, solved, scaled = _count_tableaux(monkeypatch)
    fl.attainment_set(random_exact_space(random.Random(7), n), 1, 2, intervals="lazy")
    assert len(built) == 1
    assert 0 < len(solved) <= 2 * (comb(n, 2) - 1) and all(t is built[0] for t in solved)
    # p and q share a variable, so only the row pair of (p, q) vanishes:
    # 2 * (C(n,2) - 1) rows, then one objective per solve.
    assert scaled[0] == 2 * (comb(n, 2) - 1) + len(solved)


@pytest.mark.xfail(
    strict=True,
    raises=simplex.LPFailure,
    reason="ROADMAP item 3: validate accepts a float triangle deficit of one "
    "ulp, and the attainment LP, reading the floats as exact rationals, "
    "then has an empty polytope",
)
def test_float_attainment_with_one_ulp_triangle_deficit():
    sp = random_float_space(random.Random(1), 5)
    att = fl.attainment_set(sp, 0, 3)
    assert (sp.labels[0], sp.labels[3]) in att.members


# -- duality pairing -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_duality_pairing_bounded_by_norm(seed, n):
    rng = random.Random(seed)
    sp = random_exact_space(rng, n)
    coeffs = [F(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(n - 1)]
    norm = fl.free_norm(sp, coeffs)
    # random Lipschitz function normalized into the unit ball
    raw = [F(rng.randint(-9, 9)) for _ in range(n)]
    lip = fl.lipschitz_constant(sp, raw)
    if lip == 0:
        f = raw
    else:
        f = [v / lip for v in raw]
    assert abs(fl.pairing(sp, coeffs, f)) <= norm


# -- one value per point ---------------------------------------------------------


@pytest.mark.parametrize("values", [[0, 1, 2, 99], [0, 1]], ids=["extra", "short"])
@pytest.mark.parametrize(
    "call",
    [
        lambda f: fl.lipschitz_constant(CHAIN, f),
        lambda f: fl.phi(CHAIN, f, "a", "b"),
        lambda f: fl.pairing(CHAIN, [1, 1], f),
        lambda f: fl.LipFunction(CHAIN, f),
    ],
    ids=["lipschitz_constant", "phi", "pairing", "LipFunction"],
)
def test_one_value_per_point(call, values):
    with pytest.raises(fl.SpaceError, match="^one value per point required$"):
        call(values)


def test_pairing_checks_coefficients_as_free_norm_does():
    for coefficients in ([1], [1, 2, 3], fl.FreeVector((F(1),))):
        for fn in (lambda c: fl.pairing(CHAIN, c, [0, 1, 2]), lambda c: fl.free_norm(CHAIN, c)):
            with pytest.raises(DimensionMismatch, match=r"expected 2 coefficients, got \d"):
                fn(coefficients)
    assert fl.pairing(CHAIN, fl.FreeVector((F(1), F(-1))), [0, 1, 2]) == -1
