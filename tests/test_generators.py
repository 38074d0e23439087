"""The example families: paper-exact values, nesting, and constraints."""

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

import freelip as fl
from freelip import space
from freelip.classify import UnknownFamily
from freelip.generators import (
    BadDepth,
    BadLambda,
    BadSequences,
    ConstraintUnsatisfiable,
    FamilySpec,
    _FIXED,
    _power_bound,
    _aligned_with,
    _spiral_points,
    family_at_depths,
)
from support import reference_cloud_matrix, reference_collinear, reference_spiral_points


# -- sup-norm family -----------------------------------------------------------


def test_c0_closed_forms_match_float_coordinates():
    depth = 9
    sp = fl.gen_c0_counterexample(depth)
    # embed in R^depth with sup norm: e = 0, p = 2 e_1, q_n = e_1 + (1+1/n) e_n
    coords = {"e": [0.0] * depth, "p": [2.0] + [0.0] * (depth - 1)}
    for n in range(2, depth + 1):
        v = [0.0] * depth
        v[0] = 1.0
        v[n - 1] = 1 + 1 / n
        coords[f"q{n}"] = v

    def sup_dist(a, b):
        return max(abs(x - y) for x, y in zip(coords[a], coords[b]))

    for a in sp.labels:
        for b in sp.labels:
            assert abs(float(sp.d(a, b)) - sup_dist(a, b)) < 1e-12


def test_c0_pairwise_gaps_exceed_one():
    sp = fl.gen_c0_counterexample(8)
    qs = [f"q{n}" for n in range(2, 9)]
    for i, a in enumerate(qs):
        for b in qs[i + 1 :]:
            assert sp.d(a, b) > 1


def test_c0_modulus_collapse_across_depths():
    for depth in (4, 8, 16):
        sp = fl.gen_c0_counterexample(depth)
        assert fl.classify_pair(sp, "p", "e").is_extreme
        for eps in (F(1, 4), F(1, 2), F(1)):
            table = fl.concavity_modulus(sp, "p", "e", [eps])
            assert table.entries[0].delta == F(2, depth)


def test_c0_rejects_shallow_depth():
    with pytest.raises(BadDepth):
        fl.gen_c0_counterexample(1)


# -- planar spiral ----------------------------------------------------------------


def test_spiral_rejects_bad_lambda_and_depth():
    with pytest.raises(BadLambda):
        fl.gen_planar_spiral(F(3, 2), 4)
    with pytest.raises(BadLambda):
        fl.gen_planar_spiral(F(1, 1), 4)
    with pytest.raises(BadDepth):
        fl.gen_planar_spiral(F(1, 2), 0)


def test_spiral_ball_and_excess_bounds():
    for lam in (F(1, 2), F(3, 4)):
        sp = fl.gen_planar_spiral(lam, 6, seed=3)
        for n in range(1, 7):
            r2n = float(lam ** (2 * n))
            ln = float(lam**n)
            for side, anchor in (("p", "p"), ("q", "q")):
                pt = f"{side}{n}"
                d_anchor = float(sp.d(pt, anchor))
                assert ln - r2n < d_anchor < ln + r2n
                exc = fl.excess(sp, pt, "p", "q").value
                assert 0 < exc < 2 * r2n


def test_spiral_points_inside_stated_balls_exact():
    for lam in (F(1, 2), F(2, 3)):
        sp = fl.gen_planar_spiral(lam, 5, seed=2)
        coords = dict(zip(sp.labels, sp.coords))
        p, q = coords["p"], coords["q"]
        for n in range(1, 6):
            r2 = lam ** (4 * n)  # squared radius
            cp = (p[0] + lam**n * (q[0] - p[0]), p[1] + lam**n * (q[1] - p[1]))
            cq = (q[0] + lam**n * (p[0] - q[0]), q[1] + lam**n * (p[1] - q[1]))
            for label, center in ((f"p{n}", cp), (f"q{n}", cq)):
                x, y = coords[label]
                assert (x - center[0]) ** 2 + (y - center[1]) ** 2 < r2


def _no_collinear_triple(pts) -> bool:
    """Brute-force check over every triple, on ints over one denominator."""
    den = math.lcm(*(x.denominator for pt in pts for x in pt))
    ints = [tuple(int(x * den) for x in pt) for pt in pts]
    return not any(
        reference_collinear(ints[i], ints[j], ints[k])
        for i in range(len(ints))
        for j in range(i + 1, len(ints))
        for k in range(j + 1, len(ints))
    )


def test_spiral_no_collinear_triples_exact():
    for seed in range(3):
        assert _no_collinear_triple(fl.gen_planar_spiral(F(1, 2), 5, seed=seed).coords)
        # depth 32 is the deepest default depth of `diagnose spiral`; the
        # space fails validation there (ROADMAP item 3), so take the points
        pts = _spiral_points(F(1, 2), 32, seed, False)
        assert len(pts) == 66 and _no_collinear_triple(list(pts.values()))


def test_spiral_points_equal_pairwise_reference():
    # the reference draws depth by depth, so its depth-d points are the
    # first 2 + d (one-sided) or 2 + 2d entries of its depth-12 points
    for lam in (F(1, 2), F(2, 3), F(3, 4)):
        for seed in range(5):
            for one_sided in (False, True):
                ref = list(reference_spiral_points(lam, 12, seed, one_sided).items())
                for depth in range(1, 13):
                    size = 2 + depth * (1 if one_sided else 2)
                    assert list(_spiral_points(lam, depth, seed, one_sided).items()) == ref[:size]


def _hex(matrix):
    return [[float(v).hex() for v in row] for row in matrix]


def test_euclidean_distances_bit_identical_to_fraction_reference():
    for lam, depth, seed in ((F(1, 2), 12, 0), (F(2, 3), 9, 3), (F(3, 4), 6, 4)):
        for gen, one_sided in (
            (fl.gen_planar_spiral, False),
            (fl.gen_planar_spiral_one_sided, True),
        ):
            sp = gen(lam, depth, seed)
            ref = reference_cloud_matrix(reference_spiral_points(lam, depth, seed, one_sided))
            assert _hex(sp.dist) == _hex(ref)
    sp = fl.gen_l2_nonholder(None, None, 12)
    assert _hex(sp.dist) == _hex(reference_cloud_matrix(dict(zip(sp.labels, sp.coords))))


def test_depth_32_spiral_equals_reference(monkeypatch):
    # the one deep case: the pairwise reference takes about a second here
    pts = _spiral_points(F(1, 2), 32, 0, False)
    assert list(pts.items()) == list(reference_spiral_points(F(1, 2), 32, 0, False).items())
    # validation rejects this space (ROADMAP item 3); compare the matrix
    # the builder hands to validate
    monkeypatch.setattr(space, "validate", lambda matrix, *args, **kwargs: matrix)
    assert _hex(space.from_points(pts, base="p")) == _hex(reference_cloud_matrix(pts))


_coord = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_point = st.tuples(_coord, _coord)
_O = (F(0), F(0))


@settings(max_examples=300, deadline=None)
@given(_point, st.lists(_point, min_size=2, max_size=7))
@example(_O, [(F(1), F(1)), _O])  # a point coincides with c
@example(_O, [(F(1), F(1)), (F(2), F(3))])  # in general position
@example(_O, [(F(0), F(1)), (F(0), F(-2))])  # vertical line through c
@example(_O, [(F(0), F(1)), (F(1), F(0))])  # one vertical, one horizontal
@example(_O, [(F(1), F(0)), (F(-1, 2), F(0))])  # horizontal line through c
@example(_O, [(F(1), F(2)), (F(5), F(1)), (F(-1, 2), F(-1)), (F(3), F(6))])  # three on one line
@example((F(1), F(1)), [(F(2), F(1)), (F(1), F(3)), (F(3), F(2))])  # slopes 0, vertical, 1/2
def test_slope_set_equals_pairwise_cross_product(c, pts):
    pairwise = any(
        reference_collinear(c, pts[a], pts[b])
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
    )
    assert _aligned_with(c, pts) == pairwise


def test_spiral_one_sided_isolated_endpoint():
    lam = F(1, 2)
    sp = fl.gen_planar_spiral_one_sided(lam, 6, seed=1)
    assert all(not lab.startswith("p") or lab == "p" for lab in sp.labels)
    lower = 1 - float(lam) - float(lam) ** 2  # d(p,q)=1
    for n in range(1, 7):
        assert float(sp.d("p", f"q{n}")) > lower > 0


# -- l2 family ----------------------------------------------------------------------


def test_l2_margins_certified():
    sp = fl.gen_l2_nonholder(None, None, 8)
    margins = sp.meta["margins"]
    assert set(margins) == {f"r{n}" for n in range(2, 9)}
    for v in margins.values():
        assert v >= float(F(1, 2**40))


def test_l2_defining_inequality_recheck():
    sp = fl.gen_l2_nonholder(None, None, 6)
    with mp.workdps(40):
        for n in range(2, 7):
            lam = 1 + F(1, 2**n)
            lam_mp = mp.mpf(lam.numerator) / mp.mpf(lam.denominator)
            d0 = mp.mpf(float(sp.d("0", f"r{n}")))
            d1 = mp.mpf(float(sp.d(f"r{n}", "e1")))
            assert d0**lam_mp + d1**lam_mp < 1


def test_l2_nonholder_witness_inequality():
    sp = fl.gen_l2_nonholder(None, None, 8)
    # alpha = 2/3: the first n with lambda_n < 3/2 is n = 2
    lams = {n: 1 + F(1, 2**n) for n in range(2, 9)}
    first = min(n for n, lam in lams.items() if lam < F(3, 2))
    assert first == 2
    with mp.workdps(32):
        d0 = mp.mpf(float(sp.d("0", "r2"))) ** mp.mpf(1.5)
        d1 = mp.mpf(float(sp.d("r2", "e1"))) ** mp.mpf(1.5)
        assert d0 + d1 < 1


def test_l2_rejects_bad_sequences():
    with pytest.raises(BadSequences):
        fl.gen_l2_nonholder([F(1, 4), F(1, 2)], None, 3)  # increasing a
    with pytest.raises(BadSequences):
        fl.gen_l2_nonholder(None, [F(1, 2), F(1, 4)], 3)  # lambda <= 1
    with pytest.raises(BadSequences):
        fl.gen_l2_nonholder([F(3, 2), F(1, 4)], None, 3)  # a outside (0, 1)
    with pytest.raises(BadSequences):
        fl.gen_l2_nonholder(None, [F(3, 2), F(7, 4)], 3)  # increasing lambda
    with pytest.raises(BadDepth):
        fl.gen_l2_nonholder(None, None, 1)


# sha256 over repr((labels, dist, coords, rel_tol, mode, sorted(meta.items())))
# of gen_l2_nonholder(None, None, 22), recorded with the 50-digit mpmath
# certificate that the integer bound replaced; margins included.
L2_DEPTH_22_GOLDEN = "b7768f8ce94bc77f957f43058bfaa541c8183951e0ceaeb95b5878c67b670d92"


def test_l2_depth_22_golden_digest():
    sp = fl.gen_l2_nonholder(None, None, 22)
    key = (sp.labels, sp.dist, sp.coords, sp.rel_tol, sp.mode, sorted(sp.meta.items()))
    assert hashlib.sha256(repr(key).encode()).hexdigest() == L2_DEPTH_22_GOLDEN


def test_l2_depth_23_has_no_admissible_b():
    # perfbench/workloads.KNOWN_FAILURES matches this message
    with pytest.raises(ConstraintUnsatisfiable, match="^no admissible b at n=23"):
        fl.gen_l2_nonholder(None, None, 23)


def _fractions(lo, hi, dens):
    """Fractions in (lo, hi] over a denominator drawn from dens."""
    return dens.flatmap(
        lambda d: st.builds(F, st.integers(math.floor(lo * d) + 1, math.floor(hi * d)), st.just(d))
    )


_base = _fractions(0, 4, st.integers(1, 10**6))
_exponent = st.one_of(
    _fractions(F(1, 2), 3, st.just(2**12)),  # dyadic: kept exactly
    _fractions(F(1, 2), 3, st.integers(1, 10**4)),  # mostly not: cut to 128 bits
)


@settings(max_examples=200, deadline=None)
@given(_base, _exponent)
@example(F(4), F(1, 2))  # exact: the root of a power of two
@example(F(1), F(7, 3))  # x = 1 with a non-dyadic exponent
@example(F(1, 10**6), F(3))  # tiny base, whole exponent
@example(F(2), F(1, 2) + F(1, 2**23))  # the default l2 exponent at n = 22
def test_power_bound_is_a_tight_upper_bound(x, e):
    with mp.workdps(100):
        ref = (mp.mpf(x.numerator) / x.denominator) ** (mp.mpf(e.numerator) / e.denominator)
        bound = mp.mpf(_power_bound(x, e)) / mp.mpf(2) ** _FIXED
        # 10^-90 covers the reference's own rounding; one unit of the
        # bound's fixed point, 2^-256, is far larger
        assert bound >= ref - mp.mpf(10) ** -90
        assert bound - ref <= mp.mpf(2) ** -100


# -- family plumbing -------------------------------------------------------------------


def test_every_generator_output_validates():
    # validate() already ran inside; re-validate from the raw matrix.
    for sp in (
        fl.gen_c0_counterexample(6),
        fl.gen_planar_spiral(F(1, 2), 4, seed=0),
        fl.gen_planar_spiral_one_sided(F(2, 3), 4, seed=0),
        fl.gen_l2_nonholder(None, None, 5),
    ):
        again = fl.validate(
            [list(row) for row in sp.dist],
            sp.labels,
            base=sp.base_index,
            mode=sp.mode,
            rel_tol=sp.rel_tol,
        )
        assert again.n == sp.n


@pytest.mark.parametrize("depths", [(2, 4), (5, 9)], ids=["shallow", "deeper"])
@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("planar_spiral", {"lam": F(1, 2), "seed": 11}),
        FamilySpec("planar_spiral_one_sided", {"lam": F(1, 2), "seed": 11}),
        FamilySpec("c0_counterexample"),
        FamilySpec("l2_nonholder"),
    ],
    ids=lambda spec: spec.family,
)
def test_family_prefix_property(spec, depths):
    # every family nests: generate(d) is the first k points of generate(D)
    shallow, deep = family_at_depths(spec, depths)
    k = shallow.n
    assert deep.labels[:k] == shallow.labels
    assert tuple(row[:k] for row in deep.dist[:k]) == shallow.dist
    assert (deep.base_index, deep.mode, deep.rel_tol) == (
        shallow.base_index, shallow.mode, shallow.rel_tol
    )
    assert deep.coord_norm == shallow.coord_norm
    if shallow.coords is None:
        assert deep.coords is None
    else:
        # the l2 family pads every point with zeros up to the depth
        for short, long in zip(shallow.coords, deep.coords):
            assert long[: len(short)] == short and not any(long[len(short):])
    prefix = fl.validate(
        [row[:k] for row in deep.dist[:k]],
        deep.labels[:k],
        base=deep.base_index,
        mode=deep.mode,
        rel_tol=deep.rel_tol,
        coords=None if deep.coords is None else dict(zip(deep.labels, deep.coords[:k])),
        coord_norm=deep.coord_norm,
    )
    assert prefix.n == k


def test_family_at_depths_empty_and_ordering():
    spec = FamilySpec("c0_counterexample")
    assert family_at_depths(spec, []) == []
    with pytest.raises(BadDepth):
        family_at_depths(spec, [4, 4])
    spaces = family_at_depths(spec, [4, 8])
    assert spaces[0].n == 5 and spaces[1].n == 9
    k = spaces[0].n
    for i in range(k):
        for j in range(k):
            assert spaces[1].dist[i][j] == spaces[0].dist[i][j]


def test_holder_of_family():
    # A snowflake of a family is holder_transform of its truncation, as
    # `generate holder` builds it, and it keeps the truncation's labels.
    base = FamilySpec("c0_counterexample")
    sp = fl.holder_transform(base.generate(4), F(1, 2))
    assert sp.mode == "float"
    assert sp.labels == base.generate(4).labels
    assert abs(sp.d("p", "e") - math.sqrt(2)) < 1e-12


def test_probe_labels_and_refusals_of_every_family():
    specs = {
        "planar_spiral": FamilySpec("planar_spiral", {"lam": F(1, 2)}),
        "planar_spiral_one_sided": FamilySpec("planar_spiral_one_sided", {"lam": F(1, 2)}),
        "c0_counterexample": FamilySpec("c0_counterexample"),
        "l2_nonholder": FamilySpec("l2_nonholder"),
    }
    expected = {
        # family: (anchor pair, forward probe, backward probe, refusal)
        "planar_spiral": (("p", "q"), "q3", "p3", "anchor pair must be ('p','q')"),
        "planar_spiral_one_sided": (("p", "q"), "q3", None, "anchor pair must be ('p','q')"),
        "c0_counterexample": (("p", "e"), "q3", "q3", "anchor pair must be {'p','e'}"),
        "l2_nonholder": (("0", "e1"), "r3", "r3", "anchor pair must be {'0','e1'}"),
    }
    for fam, ((p, q), fwd, bwd, refusal) in expected.items():
        spec = specs[fam]
        assert spec.probe_label(p, q, 3) == fwd
        assert spec.probe_label(q, p, 3) == bwd
        with pytest.raises(UnknownFamily) as err:
            spec.probe_label(p, "x", 3)
        assert str(err.value) == f"{refusal}, got {(p, 'x')!r}"
    # "constant" is a test-only family (tests/test_classify.py), not in the
    # table; nor is "holder_of": `generate holder` calls holder_transform
    for fam in ("bogus", "constant", "holder_of"):
        bogus = FamilySpec(fam)
        for call in (lambda: bogus.generate(4), lambda: bogus.probe_label("p", "q", 3)):
            with pytest.raises(UnknownFamily, match=f"^unknown family id '{fam}'$"):
                call()
