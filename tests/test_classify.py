"""Pair verdicts, concavity reports, property (Z), and trend diagnostics."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip.classify import UnknownFamily
from freelip.generators import FamilySpec
from support import (
    CHAIN,
    EQUILATERAL,
    permuted,
    random_exact_space,
    random_space_with_midpoint,
    scaled,
)


def test_classify_pair_equilateral_extreme():
    v = fl.classify_pair(EQUILATERAL, "a", "b")
    assert v.is_extreme and v.witness_middle is None
    assert v.min_ratio == 1


def test_classify_pair_chain_middle_witness():
    v = fl.classify_pair(CHAIN, "a", "b")
    assert not v.is_extreme
    assert v.witness_middle == "c"
    assert v.min_ratio == 0
    assert any("convex combination" in note for note in v.notes)


def test_classify_pair_c0_extreme_at_every_depth():
    for depth in (2, 5, 9):
        sp = fl.gen_c0_counterexample(depth)
        v = fl.classify_pair(sp, "p", "e")
        assert v.is_extreme and v.witness_middle is None


def test_classify_all_consistency():
    rng = random.Random(11)
    for k in range(10):
        if k % 2:
            sp, _ = random_space_with_midpoint(rng, rng.randint(4, 6))
        else:
            sp = random_exact_space(rng, rng.randint(3, 6))
        report = fl.classify_all(sp)
        assert report.is_concave == (not report.violating_triples)
        assert report.is_concave == all(v.is_extreme for v in report.pair_verdicts)
        assert report.violating_triples == fl.aligned_triples(sp)


def test_classify_all_spiral_and_l2_concave():
    sp = fl.gen_planar_spiral(F(1, 2), 3, seed=1)
    assert fl.classify_all(sp).is_concave
    l2 = fl.gen_l2_nonholder(None, None, 5)
    assert fl.classify_all(l2).is_concave


def test_property_z_equilateral_threshold():
    res = fl.property_z(EQUILATERAL, "a", "b", F(1, 2))
    assert not res.holds_at_eps
    assert res.min_ratio == 1
    res2 = fl.property_z(EQUILATERAL, "a", "b", F(1))
    assert res2.holds_at_eps and res2.witness == "c"


def test_property_z_with_middle_holds_for_every_eps():
    for eps in (F(1, 100), F(1, 10), F(1)):
        res = fl.property_z(CHAIN, "a", "b", eps)
        assert res.holds_at_eps and res.min_ratio == 0


def test_property_z_two_point_space_vacuous():
    sp = fl.validate([[0, 1], [1, 0]], ["e", "x"])
    res = fl.property_z(sp, "e", "x", F(1))
    assert not res.holds_at_eps
    assert res.min_ratio == math.inf


def test_three_predicates_collapse_on_exact_spaces():
    rng = random.Random(23)
    for k in range(15):
        if k % 2:
            sp, _ = random_space_with_midpoint(rng, rng.randint(4, 7))
        else:
            sp = random_exact_space(rng, rng.randint(3, 7))
        for p in range(sp.n):
            for q in range(p + 1, sp.n):
                v = fl.classify_pair(sp, p, q)
                trivial_segment = fl.metric_segment(sp, p, q) == (
                    sp.labels[p],
                    sp.labels[q],
                )
                ratio, _ = fl.min_excess_ratio(sp, p, q)
                positive = ratio == math.inf or ratio > 0
                assert v.is_extreme == trivial_segment == positive


def test_relabeling_invariance():
    rng = random.Random(31)
    sp = random_exact_space(rng, 6)
    perm = list(range(6))
    rng.shuffle(perm)
    sp2 = permuted(sp, perm)
    for p in range(6):
        for q in range(p + 1, 6):
            v1 = fl.classify_pair(sp, sp.labels[p], sp.labels[q])
            v2 = fl.classify_pair(sp2, sp.labels[p], sp.labels[q])
            assert v1.is_extreme == v2.is_extreme
            assert v1.witness_middle == v2.witness_middle
            assert v1.min_ratio == v2.min_ratio


def test_base_point_independence():
    rng = random.Random(37)
    sp = random_exact_space(rng, 5)
    verdicts = [
        (v.pair, v.is_extreme, v.witness_middle, v.min_ratio)
        for v in fl.classify_all(sp).pair_verdicts
    ]
    for b in range(1, 5):
        sp_b = sp.with_base(b)
        verdicts_b = [
            (v.pair, v.is_extreme, v.witness_middle, v.min_ratio)
            for v in fl.classify_all(sp_b).pair_verdicts
        ]
        assert verdicts_b == verdicts


def test_scale_invariance_of_verdicts_and_ratio():
    rng = random.Random(41)
    sp = random_exact_space(rng, 5)
    big = scaled(sp, F(7, 3))
    for p in range(5):
        for q in range(p + 1, 5):
            v1 = fl.classify_pair(sp, p, q)
            v2 = fl.classify_pair(big, p, q)
            assert v1.is_extreme == v2.is_extreme
            assert v1.min_ratio == v2.min_ratio


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(3, 6),
    st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]),
)
def test_holder_spaces_classify_concave(seed, n, alpha):
    sp = random_exact_space(random.Random(seed), n)
    out = fl.holder_transform(sp, alpha)
    assert fl.classify_all(out).is_concave


def test_property_z_spiral_ratio_bound():
    # At depth n the accumulating point p_n keeps the minimum excess ratio
    # below 2 lam^(2n) / (lam^n - lam^(2n)), which sinks to 0 with depth.
    lam = F(1, 2)
    prev = None
    for depth in (3, 5, 7):
        sp = fl.gen_planar_spiral(lam, depth, seed=4)
        ratio, _ = fl.min_excess_ratio(sp, "p", "q")
        bound = 2 * float(lam ** (2 * depth)) / (
            float(lam**depth) - float(lam ** (2 * depth))
        )
        assert 0 < ratio < bound
        if prev is not None:
            assert ratio < prev
        prev = ratio


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the float excess of an exact-coordinate spiral "
    "point rounds to <= 0 at depth 18, so min_ratio is not positive",
)
def test_spiral_extreme_pair_has_positive_ratio_at_depth_18():
    verdict = fl.classify_pair(fl.gen_planar_spiral(F(1, 2), 18, 0), "p", "q")
    assert verdict.is_extreme
    assert verdict.min_ratio > 0


# -- family diagnostics ------------------------------------------------------


def constant_family(space, probe):
    return FamilySpec("constant", {"space": space, "probe": probe})


def test_sequence_diagnostics_c0():
    spec = FamilySpec("c0_counterexample")
    diag = fl.sequence_diagnostics(spec, "p", "e", depths=(4, 8, 16, 32, 64))
    ratios = [r.ratio for r in diag.records]
    # excess(q_n;p,e)/d(q_n,e) = (2/n)/(1+1/n) = 2/(n+1)
    for rec in diag.records:
        assert abs(rec.ratio - 2 / (rec.n + 1)) < 1e-12
    assert diag.monotone_decreasing
    assert diag.flag  # 2/65 < 0.1 * 2/5


def test_sequence_diagnostics_c0_shallow_depths_no_flag():
    spec = FamilySpec("c0_counterexample")
    diag = fl.sequence_diagnostics(spec, "p", "e", depths=(4, 8, 16, 32))
    # slow 1/n decay: the factor 5/33 misses the 0.1 threshold
    assert diag.monotone_decreasing and not diag.flag


def test_sequence_diagnostics_constant_family():
    spec = constant_family(EQUILATERAL, "c")
    diag = fl.sequence_diagnostics(spec, "a", "b", depths=(4, 8, 16))
    assert all(r.ratio == 1.0 for r in diag.records)
    assert not diag.flag


def test_sequence_diagnostics_one_sided_empty_side():
    spec = FamilySpec("planar_spiral_one_sided", {"lam": F(1, 2), "seed": 2})
    diag = fl.sequence_diagnostics(spec, "q", "p", depths=(4, 8))
    assert diag.records == () and not diag.flag
    diag_q = fl.sequence_diagnostics(spec, "p", "q", depths=(4, 8))
    assert diag_q.flag and diag_q.monotone_decreasing


def test_strongly_exposed_trend_spiral():
    spec = FamilySpec("planar_spiral", {"lam": F(1, 2), "seed": 9})
    trend = fl.strongly_exposed_verdict(spec, "p", "q", depths=(4, 8))
    assert all(r.strongly_exposed for r in trend.records)
    assert all(r.min_ratio > 0 for r in trend.records)
    assert trend.limit_property_z_flag


def test_strongly_exposed_constant_family_no_flag():
    spec = constant_family(EQUILATERAL, "c")
    trend = fl.strongly_exposed_verdict(spec, "a", "b", depths=(4, 8, 16))
    assert all(r.min_ratio == 1 for r in trend.records)
    assert not trend.limit_property_z_flag


def test_strongly_exposed_with_middle_every_depth():
    spec = constant_family(CHAIN, "c")
    trend = fl.strongly_exposed_verdict(spec, "a", "b", depths=(4, 8))
    assert all(not r.strongly_exposed for r in trend.records)
    assert all(r.min_ratio == 0 for r in trend.records)
    assert not trend.limit_property_z_flag


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        fl.strongly_exposed_verdict(object(), "p", "q", depths=(4,))
    spec = FamilySpec("c0_counterexample")
    with pytest.raises(UnknownFamily):
        fl.sequence_diagnostics(spec, "p", "zzz", depths=(4,))
