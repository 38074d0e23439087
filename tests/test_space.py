"""Validation, excess, segments, alignment, modulus, and the snowflake."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip.space import BadExponent, BadGrid, SamePoint, ValidationError
from support import CHAIN, EQUILATERAL, random_exact_space, scaled


# -- validation ----------------------------------------------------------


def test_validate_equilateral_ok():
    sp = fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base="a")
    assert sp.n == 3 and sp.mode == "exact" and sp.base_label == "a"


def test_validate_triangle_violation_reported_with_deficit():
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 3, 1], [3, 0, 1], [1, 1, 0]], ["a", "b", "c"])
    kinds = {(v.kind, v.i, v.j, v.k, v.deficit) for v in err.value.violations}
    assert ("triangle", 0, 1, 2, F(1)) in kinds


def test_validate_collects_every_axiom():
    with pytest.raises(ValidationError) as err:
        fl.validate(
            [[0, -1, 2], [1, 0, 0], [2, 0, 1]], ["a", "b", "c"], base="z"
        )
    kinds = {v.kind for v in err.value.violations}
    assert {"asymmetric", "negative", "zero_distance", "nonzero_diagonal", "bad_base"} <= kinds


# Violation lists recorded from the Fraction-based triangle loop; the
# deficits of an asymmetric matrix depend on which entry of a pair is read.
FRACTIONAL_VIOLATIONS = [
    [0, F(7, 2), F(1, 3), F(5, 4), 2],
    [F(7, 2), 0, F(2, 3), F(1, 2), F(9, 5)],
    [F(1, 3), F(3, 4), 0, F(5, 6), 1],
    [F(5, 4), F(1, 2), F(5, 6), 0, F(1, 7)],
    [2, F(9, 5), 1, F(1, 7), 0],
]
FRACTIONAL_EXPECTED = [
    ("asymmetric", 1, 2, None, None),
    ("triangle", 0, 1, 2, F(29, 12)),
    ("triangle", 0, 1, 3, F(7, 4)),
    ("triangle", 0, 3, 2, F(1, 12)),
    ("triangle", 0, 4, 2, F(2, 3)),
    ("triangle", 0, 4, 3, F(17, 28)),
    ("triangle", 1, 4, 2, F(2, 15)),
    ("triangle", 1, 4, 3, F(81, 70)),
    ("triangle", 2, 4, 3, F(1, 42)),
]
FLOAT_DEFICITS = [
    2.4166666666666665, 1.75, 0.08333333333333337, 0.6666666666666667,
    0.6071428571428572, 0.1333333333333333, 1.1571428571428573, 0.02380952380952378,
]
MIXED_VIOLATIONS = [
    [0, F(-1, 2), 2, F(1, 3)],
    [F(1, 2), 0, 0, 1],
    [2, 0, F(1, 5), F(2, 7)],
    [F(1, 3), 1, F(2, 7), 0],
]
MIXED_EXPECTED = [
    ("bad_base", None, None, None, None),
    ("nonzero_diagonal", 2, None, None, None),
    ("asymmetric", 0, 1, None, None),
    ("negative", 0, 1, None, None),
    ("zero_distance", 1, 2, None, None),
    ("triangle", 0, 2, 1, F(5, 2)),
    ("triangle", 0, 2, 3, F(29, 21)),
    ("triangle", 1, 3, 0, F(1, 6)),
    ("triangle", 1, 3, 2, F(5, 7)),
]


def _violations(matrix, mode, base=0):
    with pytest.raises(ValidationError) as err:
        fl.validate(matrix, [f"x{i}" for i in range(len(matrix))], base=base, mode=mode)
    return [(v.kind, v.i, v.j, v.k, v.deficit) for v in err.value.violations]


def test_validate_exact_violations_order_and_deficits():
    got = _violations(FRACTIONAL_VIOLATIONS, "exact")
    assert got == FRACTIONAL_EXPECTED
    assert all(type(v[4]) is F for v in got if v[0] == "triangle")
    assert _violations(MIXED_VIOLATIONS, "exact", base="z") == MIXED_EXPECTED


def test_validate_float_violations_order_and_deficits():
    floats = [[float(v) for v in row] for row in FRACTIONAL_VIOLATIONS]
    got = _violations(floats, "float")
    assert [v[:4] for v in got] == [v[:4] for v in FRACTIONAL_EXPECTED]
    assert [v[4] for v in got if v[0] == "triangle"] == FLOAT_DEFICITS


def test_validate_rejects_duplicate_labels_and_shape():
    with pytest.raises(ValidationError):
        fl.validate([[0, 1], [1, 0]], ["a", "a"])
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 1]], ["a", "b"])
    assert err.value.violations[0].kind == "not_square"


@pytest.mark.parametrize("mode", ["Exact", "FLOAT", "", None, "fraction"])
def test_validate_rejects_unknown_mode(mode):
    # a mode other than exact/float once gave float distances with a
    # Fraction eps grid and a space_to_dict without its tolerance
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 1], [1, 0]], ["a", "b"], mode=mode)
    assert [v.kind for v in err.value.violations] == ["bad_mode"]


def test_validate_powered_l2_family_breaks_triangle():
    # Raising the concave family's distances to a power 1/alpha with
    # alpha < 1/lambda_n must break the triangle inequality.
    sp = fl.gen_l2_nonholder(None, None, 4)
    inv_alpha = 1.5  # alpha = 2/3, lambda_2 = 5/4 < 3/2
    powered = [[float(v) ** inv_alpha for v in row] for row in sp.dist]
    with pytest.raises(ValidationError) as err:
        fl.validate(powered, sp.labels, base="0", mode="float")
    assert any(v.kind == "triangle" for v in err.value.violations)


def test_float_mode_tolerates_rounding_level_deficits():
    d = [[0, 1, 1], [1, 0, 2 + 1e-13], [1, 2 + 1e-13, 0]]
    sp = fl.validate(d, ["a", "b", "c"], mode="float")
    assert sp.mode == "float"


# -- excess --------------------------------------------------------------


def test_excess_endpoint_zero():
    assert fl.excess(EQUILATERAL, "a", "a", "b").value == 0
    assert fl.excess(EQUILATERAL, "b", "a", "b").value == 0


def test_excess_equilateral_third_point():
    assert fl.excess(EQUILATERAL, "c", "a", "b").value == 1


def test_excess_c0_family_paper_value():
    sp = fl.gen_c0_counterexample(12)
    for n in range(2, 13):
        assert fl.excess(sp, f"q{n}", "p", "e").value == F(2, n)


def test_excess_same_point_rejected():
    with pytest.raises(SamePoint):
        fl.excess(EQUILATERAL, "c", "a", "a")


# -- segments and alignment -----------------------------------------------


def test_segment_equilateral_trivial():
    assert fl.metric_segment(EQUILATERAL, "a", "b") == ("a", "b")


def test_segment_chain_contains_middle():
    assert fl.metric_segment(CHAIN, "a", "b") == ("a", "b", "c")


def test_segment_matches_bruteforce_on_random_spaces():
    rng = random.Random(7)
    for _ in range(20):
        sp = random_exact_space(rng, 7)
        for p in range(7):
            for q in range(p + 1, 7):
                expected = tuple(
                    sp.labels[r]
                    for r in range(7)
                    if sp.dist[r][p] + sp.dist[r][q] == sp.dist[p][q]
                )
                assert fl.metric_segment(sp, p, q) == expected


def test_aligned_triples_equilateral_empty():
    assert fl.aligned_triples(EQUILATERAL) == ()


def test_aligned_triples_chain():
    assert fl.aligned_triples(CHAIN) == (("c", "a", "b"),)


def test_aligned_triples_deterministic_order():
    rng = random.Random(3)
    sp = random_exact_space(rng, 6)
    triples = fl.aligned_triples(sp)
    keyed = [tuple(sp.index(x) for x in t) for t in triples]
    assert keyed == sorted(keyed)


# -- modulus ---------------------------------------------------------------


def test_modulus_equilateral():
    table = fl.concavity_modulus(EQUILATERAL, "a", "b", [F(1, 2)])
    assert table.entries[0].delta == 1
    assert table.entries[0].witness == "c"


def test_modulus_with_middle_point_is_zero():
    table = fl.concavity_modulus(CHAIN, "a", "b", [F(1, 2)])
    assert table.entries[0].delta == 0


def test_modulus_c0_value_and_infinity_sentinel():
    sp = fl.gen_c0_counterexample(10)
    table = fl.concavity_modulus(sp, "p", "e", [F(1, 2), F(100)])
    assert table.entries[0].delta == F(2, 10)
    assert table.entries[0].witness == "q10"
    assert table.entries[1].delta == math.inf
    assert table.entries[1].witness is None


def test_modulus_rejects_bad_grid():
    with pytest.raises(BadGrid):
        fl.concavity_modulus(EQUILATERAL, "a", "b", [])
    with pytest.raises(BadGrid):
        fl.concavity_modulus(EQUILATERAL, "a", "b", [F(0)])


# -- snowflake --------------------------------------------------------------


def test_holder_concrete_distances():
    sp = fl.validate([[0, 1, 4], [1, 0, 3], [4, 3, 0]], ["p0", "p1", "p4"])
    out = fl.holder_transform(sp, F(1, 2))
    assert out.d("p0", "p1") == 1.0
    assert out.d("p0", "p4") == 2.0
    assert abs(out.d("p1", "p4") - math.sqrt(3)) < 1e-12
    assert out.mode == "float"
    assert "mode_change" in out.meta


def test_holder_rejects_bad_exponent():
    for alpha in (0, 1, F(3, 2), -1):
        with pytest.raises(BadExponent):
            fl.holder_transform(EQUILATERAL, alpha)


def test_holder_kills_alignment_even_near_margin():
    # Distances with a tiny ratio leave the snowflaked margin small but
    # far above the float tolerance, so the tolerance alone says "not
    # aligned".
    eps = F(1, 10**8)
    sp = fl.validate(
        [[0, eps, 1], [eps, 0, 1 + eps], [1, 1 + eps, 0]],
        ["a", "m", "b"],
        mode="exact",
    )
    assert fl.aligned_triples(sp) == (("a", "m", "b"),)
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        out = fl.holder_transform(sp, alpha)
        assert fl.aligned_triples(out) == ()


@pytest.mark.xfail(
    strict=True,
    raises=ValidationError,
    reason="ROADMAP item 1: holder_transform validates the snowflake under the "
    "float tolerance, so a distance whose ratio to the largest, raised to alpha, "
    "falls to 1e-9 is rejected as zero_distance",
)
def test_holder_of_valid_base_with_tiny_distance():
    t = F(1, 10**10)
    sp = fl.validate([[0, 1, 1 + t], [1, 0, t], [1 + t, t, 0]], ["a", "b", "c"])
    out = fl.holder_transform(sp, F(9, 10))
    assert fl.aligned_triples(out) == ()


# -- properties -------------------------------------------------------------


space_strategy = st.builds(
    lambda seed, n: random_exact_space(random.Random(seed), n),
    st.integers(0, 10**6),
    st.integers(3, 7),
)


@settings(max_examples=60, deadline=None)
@given(space_strategy, st.data())
def test_excess_nonnegative_and_symmetric(sp, data):
    n = sp.n
    r = data.draw(st.integers(0, n - 1))
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1).filter(lambda x: x != p))
    e1 = fl.excess(sp, r, p, q).value
    e2 = fl.excess(sp, r, q, p).value
    assert e1 == e2 >= 0


@settings(max_examples=40, deadline=None)
@given(space_strategy, st.data())
def test_segment_bound(sp, data):
    # excess(x;p,q) <= 2 * dist(x, [p,q])
    n = sp.n
    x = data.draw(st.integers(0, n - 1))
    p = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(0, n - 1).filter(lambda v: v != p))
    seg = fl.metric_segment(sp, p, q)
    bound = 2 * min(sp.d(x, r) for r in seg)
    assert fl.excess(sp, x, p, q).value <= bound


@settings(max_examples=40, deadline=None)
@given(space_strategy, st.data())
def test_modulus_monotone_in_eps(sp, data):
    p = data.draw(st.integers(0, sp.n - 1))
    q = data.draw(st.integers(0, sp.n - 1).filter(lambda v: v != p))
    grid = sorted(
        data.draw(
            st.lists(
                st.fractions(F(1, 8), F(30)), min_size=2, max_size=5
            )
        )
    )
    table = fl.concavity_modulus(sp, p, q, grid)
    deltas = [e.delta for e in table.entries]
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))


@settings(max_examples=30, deadline=None)
@given(space_strategy, st.fractions(F(1, 5), F(7)).filter(lambda c: c > 0))
def test_scale_equivariance(sp, c):
    big = scaled(sp, c)
    assert fl.aligned_triples(big) == fl.aligned_triples(sp)
    p, q, r = 0, 1, sp.n - 1
    assert fl.excess(big, r, p, q).value == c * fl.excess(sp, r, p, q).value
    grid = [F(1, 2)]
    small_d = fl.concavity_modulus(sp, p, q, grid).entries[0].delta
    big_d = fl.concavity_modulus(big, p, q, [F(1, 2) * c]).entries[0].delta
    if small_d == math.inf:
        assert big_d == math.inf
    else:
        assert big_d == c * small_d


@settings(max_examples=25, deadline=None)
@given(space_strategy, st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
def test_holder_concavity_property(sp, alpha):
    assert fl.aligned_triples(fl.holder_transform(sp, alpha)) == ()
