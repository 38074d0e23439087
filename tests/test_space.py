"""Validation, excess, segments, alignment, modulus, and the snowflake."""

import copy
import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip.space import (
    BadExponent, BadGrid, SamePoint, UnknownLabel, ValidationError, from_points,
)
from support import (
    CHAIN, EQUILATERAL, count_calls, random_exact_space, reference_cloud_matrix, scaled,
)


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


def test_validate_reports_an_entry_that_is_not_a_number():
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, "x"], ["x", 0]], ["a", "b"])
    assert [v.kind for v in err.value.violations] == ["bad_entry"]


# an infinite float entry was reported as a zero distance on every pair
# (the tolerance became infinite) and a NaN one as asymmetric; in exact
# mode both escaped as OverflowError or ValueError tracebacks
@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_validate_reports_an_entry_that_is_not_finite(entry):
    matrix = [[0, 1, entry], [1, 0, 1], [entry, 1, 0]]
    with pytest.raises(ValidationError) as err:
        fl.validate(matrix, ["a", "b", "c"], mode="float")
    assert [(v.kind, v.i, v.j) for v in err.value.violations] == [
        ("bad_entry", 0, 2), ("bad_entry", 2, 0)
    ]
    with pytest.raises(ValidationError) as err:
        fl.validate(matrix, ["a", "b", "c"], mode="exact")
    assert [v.kind for v in err.value.violations] == ["bad_entry"]


def test_validate_reports_an_entry_past_the_float_range():
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 10**400], [10**400, 0]], ["a", "b"], mode="float")
    assert [v.kind for v in err.value.violations] == ["bad_entry"]


def test_l2_distance_past_the_float_range_is_a_bad_entry():
    # the squared distance over den**2 raised OverflowError in from_points
    with pytest.raises(ValidationError) as err:
        from_points({"a": (F(0),), "b": (F(10**308),)})
    assert [(v.kind, v.i, v.j) for v in err.value.violations] == [
        ("bad_entry", 0, 1), ("bad_entry", 1, 0)
    ]


def test_validate_keeps_entries_of_the_mode_type():
    half = F(1, 2)
    sp = fl.validate([[0, half], [half, 0]], ["a", "b"])
    assert sp.dist[0][1] is half


def test_one_integer_matrix_per_exact_space(tmp_path, monkeypatch):
    # the reader's integer matrix, which validate checks, is the one the
    # kernel, the vertex oracle and the attainment pass read
    doc = {"labels": ["a", "b", "c", "d"],
           "matrix": [[0, "1/2", "3/4", "5/4"], ["1/2", 0, "1/4", "3/4"],
                      ["3/4", "1/4", 0, "1/2"], ["5/4", "3/4", "1/2", 0]]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    reads = count_calls(monkeypatch, fl.formats, "_ratio_ints")
    scales = count_calls(monkeypatch, fl.space, "_scaled_ints")
    sp = fl.load_space(str(path))
    fl.classify_all(sp)
    for p, q in [("a", "d"), ("b", "c"), ("d", "b")]:
        fl.is_vertex(sp, p, q)
        fl.attainment_set(sp, p, q, intervals="full")
    assert (reads[0], scales[0]) == (1, 0)


def test_with_base_keeps_the_squared_distances_of_a_cloud(monkeypatch):
    calls = count_calls(monkeypatch, fl.space, "_squared_distances")
    sp = fl.gen_planar_spiral(F(1, 2), 4, seed=0)
    fl.classify_all(sp)
    assert calls == [1]
    moved = sp.with_base("q")
    assert moved.base_label == "q" and sp.base_label != "q"
    assert fl.classify_all(moved).violating_triples == fl.classify_all(sp).violating_triples
    assert calls == [1]


def test_with_base_leaves_the_dist_of_a_loaded_space_unbuilt(tmp_path):
    path = tmp_path / "space.json"
    matrix = [[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]]
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": matrix}))
    sp = fl.load_space(str(path))
    moved = sp.with_base("c")
    assert "dist" not in vars(sp) and "dist" not in vars(moved)
    assert moved._int_matrix is sp._int_matrix
    assert (moved.base_label, sp.base_label) == ("c", "a")
    assert moved.dist == sp.dist == ((0, F(1, 2), 1), (F(1, 2), 0, F(1, 2)), (1, F(1, 2), 0))


# how a file may write an exact entry: as space_to_dict does, unreduced,
# and as a bare int where it is one
_ENTRY_WRITERS = {
    "canonical": lambda v, k: f"{v.numerator}/{v.denominator}",
    "unreduced": lambda v, k: f"{v.numerator * k}/{v.denominator * k}",
    "bare_ints": lambda v, k: v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}",
}


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 7), st.integers(0, 2**32), st.integers(1, 6),
    st.sampled_from(sorted(_ENTRY_WRITERS)),
)
def test_a_lazily_built_exact_space_behaves_as_one_built_eagerly(n, seed, k, writer):
    eager = random_exact_space(random.Random(seed), n, base=seed % n)
    doc = fl.space_to_dict(eager)
    doc["matrix"] = [[_ENTRY_WRITERS[writer](v, k) for v in row] for row in eager.dist]

    def lazy():
        sp = fl.space_from_dict(doc)
        assert "dist" not in vars(sp)
        return sp

    assert lazy()._int_matrix == eager._int_matrix
    dist = lazy().dist
    assert dist == eager.dist
    assert type(dist) is tuple and all(type(row) is tuple for row in dist)
    assert all(type(v) is F for row in dist for v in row)
    assert repr(lazy()) == repr(eager)
    assert dataclasses.asdict(lazy()) == dataclasses.asdict(eager)
    other = (seed + 1) % n
    assert repr(dataclasses.replace(lazy(), base_index=other)) == repr(
        dataclasses.replace(eager, base_index=other))
    for copied in (copy.copy, copy.deepcopy, lambda sp: pickle.loads(pickle.dumps(sp))):
        assert repr(copied(lazy())) == repr(eager)
    scale = lazy().scale
    assert (scale, type(scale)) == (eager.scale, type(eager.scale))
    assert repr(lazy().with_base(other)) == repr(eager.with_base(other))
    assert fl.space_digest(lazy()) == fl.space_digest(eager)
    assert fl.space_to_dict(lazy()) == fl.space_to_dict(eager)


FLOAT_TRIANGLE = [[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]]


# a nan tolerance compares false with every error, so the space passed and
# was called concave; a negative one reported a triangle deficit of -0.5 on
# this valid metric, and an infinite one a zero distance on every pair;
# None, a string and a flag are no tolerance either
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("rel_tol", [math.nan, -1.0, math.inf, None, "1e-9", True])
def test_validate_refuses_a_tolerance_that_is_not_finite_and_nonnegative(rel_tol, mode):
    with pytest.raises(ValidationError) as err:
        fl.validate(FLOAT_TRIANGLE, ["a", "b", "c"], mode=mode, rel_tol=rel_tol)
    assert [v.kind for v in err.value.violations] == ["bad_tolerance"]


def test_from_points_refuses_a_nan_tolerance():
    cloud = {"a": (F(0), F(0)), "b": (F(1), F(0)), "c": (F(0), F(1))}
    with pytest.raises(ValidationError) as err:
        from_points(cloud, rel_tol=math.nan)
    assert [v.kind for v in err.value.violations] == ["bad_tolerance"]


def _read_cloud(entry, points, labels=None):
    """The space of a cloud through one entry point: from_points under
    l2 or l1, or validate with coords under l2 on a placeholder matrix."""
    if entry != "validate":
        return from_points(points, entry)
    labels = list(points) if labels is None else labels
    matrix = [[0.0 if a == b else 1.0 for b in labels] for a in labels]
    return fl.validate(matrix, labels, mode="float", coords=points, coord_norm="l2")


# unequal dimensions were cut short by zip, so the space validated and
# classify_all raised IndexError; float and str coordinates raised
# AttributeError on their missing denominator. validate read the same
# points through an unchecked Fraction loop: a bare ValueError, a str
# point read as one-character coordinates, unequal dimensions accepted.
@pytest.mark.parametrize("points", [
    {"a": [0, 0], "b": [3], "c": [0, 4]},
    {"a": ["x", 0], "b": [1, 1]},
    {"a": [None, 0], "b": [1, 1]},
    {"a": [math.nan, 0], "b": [1, 1]},
    {"a": [math.inf, 0], "b": [1, 1]},
    {"a": 3, "b": [1]},
    {"a": "12", "b": "34"},
])
@pytest.mark.parametrize("entry", ["l2", "l1", "validate"])
def test_from_points_refuses_bad_coordinates(points, entry):
    with pytest.raises(ValidationError) as err:
        _read_cloud(entry, points)
    assert [v.kind for v in err.value.violations] == ["bad_entry"]


def test_validate_refuses_coordinates_without_a_label():
    # a label without a point raised KeyError
    with pytest.raises(ValidationError) as err:
        _read_cloud("validate", {"a": [0, 0], "b": [1, 1]}, labels=["a", "b", "c"])
    assert [v.kind for v in err.value.violations] == ["bad_entry"]


# "L2" was read as linf and labelled "L2"; validate kept any coord_norm
@pytest.mark.parametrize("norm", ["L2", "banana", None])
def test_from_points_refuses_an_unknown_norm(norm):
    with pytest.raises(ValidationError) as err:
        from_points({"a": [0, 0], "b": [3, 4]}, norm)
    assert [v.kind for v in err.value.violations] == ["bad_norm"]


@pytest.mark.parametrize("norm", ["L2", "banana", ""])
def test_validate_refuses_an_unknown_coordinate_norm(norm):
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 5], [5, 0]], ["a", "b"], coords={"a": [0, 0], "b": [3, 4]}, coord_norm=norm)
    assert [v.kind for v in err.value.violations] == ["bad_norm"]


def test_one_squared_distance_pass_per_point_cloud(tmp_path, monkeypatch):
    # from_points computes the cloud's squared distances for its l2
    # distances and hands them to the space, whose filter reads them;
    # a space validated with coords computes them on first use
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps({"points": {"a": [0, 0], "b": [1, 2], "c": [2, 4], "d": [5, 1]}}))
    calls = count_calls(monkeypatch, fl.space, "_squared_distances")
    sp = fl.load_space(str(path))
    assert not fl.classify_all(sp).is_concave
    assert fl.aligned_triples(sp) == (("b", "a", "c"),)
    assert calls == [1]
    coords = dict(zip(sp.labels, sp.coords))
    again = fl.validate(sp.dist, sp.labels, mode="float", coords=coords, coord_norm="l2")
    assert calls == [1]
    fl.classify_all(again)
    fl.aligned_triples(again)
    assert calls == [2]


@pytest.mark.parametrize("norm", ["l2", "l1", "linf"])
def test_from_points_reads_coordinates_through_fraction(norm):
    want = from_points({"a": (F(1, 2), F(0)), "b": (F(1, 3), F(1)), "c": (F(2), F(3))}, norm)
    got = from_points({"a": (0.5, 0), "b": ("1/3", 1), "c": (2, "3")}, norm)
    assert (got.dist, got.coords) == (want.dist, want.coords)


def _cloud_matrix(points):
    """from_points' l2 floats, past the float range as math.inf."""
    try:
        return reference_cloud_matrix(points)
    except OverflowError:
        return [[math.inf if a != b else 0.0 for b in points] for a in points]


def _outcome(build):
    try:
        sp = build()
    except ValidationError as exc:
        return exc.violations
    return sp.labels, sp.base_index, sp.dist, sp.mode, sp.rel_tol, sp.coords, sp.coord_norm


_unit = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def near_duplicate_clouds(draw):
    """Planar clouds at a scale of 1, 2**-520 (distances below 2**-511)
    or 10**200 (squares past the float range), with points 10**-k off
    others."""
    pts = draw(st.lists(st.tuples(_unit, _unit), min_size=2, max_size=6, unique=True))
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.sampled_from(pts))
        k = draw(st.integers(1, 20))
        pts.append((x + F(draw(st.sampled_from([-1, 1])), 10**k), y))
    scale = draw(st.sampled_from([F(1), F(1, 2**520), F(10**200)]))
    return {f"x{i}": (x * scale, y * scale) for i, (x, y) in enumerate(dict.fromkeys(pts))}


# the rounding bound that lets an l2 cloud skip the triangle check
BOUND = 2.0**-48


@settings(max_examples=150, deadline=None)
@given(near_duplicate_clouds(), st.sampled_from([0, 1e-17, BOUND, 1e-9]))
def test_from_points_equals_the_full_validation(points, rel_tol):
    # from_points skips the cubic triangle check where the rounding bound
    # proves it finds nothing; the full check must agree
    full = _outcome(lambda: fl.validate(
        _cloud_matrix(points), list(points), mode="float", rel_tol=rel_tol,
        coords=points, coord_norm="l2",
    ))
    assert _outcome(lambda: from_points(points, rel_tol=rel_tol)) == full


def test_validate_accepts_a_zero_tolerance():
    sp = fl.validate(FLOAT_TRIANGLE, ["a", "b", "c"], mode="float", rel_tol=0)
    assert sp.rel_tol == 0 and fl.classify_all(sp).is_concave


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


# -- the pair contract ------------------------------------------------------

# Every public function of a pair (p, q), called as (space, r, p, q); r is
# read only by the two that also take a third point.
PAIR_CALLS = [
    pytest.param(lambda sp, r, p, q: sp.is_between(r, p, q), True, id="is_between"),
    pytest.param(lambda sp, r, p, q: fl.excess(sp, r, p, q), True, id="excess"),
    pytest.param(lambda sp, r, p, q: fl.metric_segment(sp, p, q), False, id="metric_segment"),
    pytest.param(lambda sp, r, p, q: fl.strict_middles(sp, p, q), False, id="strict_middles"),
    pytest.param(lambda sp, r, p, q: fl.concavity_modulus(sp, p, q, [1]), False, id="modulus"),
    pytest.param(lambda sp, r, p, q: fl.min_excess_ratio(sp, p, q), False, id="min_excess_ratio"),
    pytest.param(lambda sp, r, p, q: fl.classify_pair(sp, p, q), False, id="classify_pair"),
    pytest.param(lambda sp, r, p, q: fl.property_z(sp, p, q, 1), False, id="property_z"),
    pytest.param(lambda sp, r, p, q: fl.phi(sp, [0, 0, 0], p, q), False, id="phi"),
    pytest.param(lambda sp, r, p, q: fl.peaking_margin(sp, p, q), False, id="peaking_margin"),
    pytest.param(lambda sp, r, p, q: fl.peaking_candidate(sp, p, q), False, id="peaking_candidate"),
    pytest.param(lambda sp, r, p, q: fl.attainment_set(sp, p, q), False, id="attainment_set"),
    pytest.param(lambda sp, r, p, q: fl.molecule_vector(sp, p, q), False, id="molecule_vector"),
    pytest.param(lambda sp, r, p, q: fl.is_vertex(sp, p, q), False, id="is_vertex"),
]


@pytest.mark.parametrize("call, takes_r", PAIR_CALLS)
def test_pair_contract(call, takes_r):
    # p = q is refused, by label or by index, with one message naming the point
    with pytest.raises(SamePoint, match="^a pair needs two distinct points, not 'a' twice$"):
        call(CHAIN, "c", "a", "a")
    with pytest.raises(SamePoint, match="not 'b' twice"):
        call(CHAIN, "c", 1, "b")
    # every label is resolved before the pair is compared, in the order r, p, q
    for (r, p, q), unknown in (
        (("c", "yy", "zz"), "yy"),
        (("c", "a", "zz"), "zz"),
        (("c", "zz", "zz"), "zz"),
        (("c", 7, "a"), "index 7"),
    ):
        with pytest.raises(UnknownLabel, match=unknown):
            call(CHAIN, r, p, q)
    if takes_r:
        for p, q in (("yy", "zz"), ("a", "a")):
            with pytest.raises(UnknownLabel, match="'xx'"):
                call(CHAIN, "xx", p, q)


def test_index_refuses_a_flag():
    # True == 1 and False == 0, but a flag is no index, as for validate's base
    for flag in (True, False):
        with pytest.raises(UnknownLabel, match=f"^no point labeled {flag}$"):
            CHAIN.index(flag)
        for p, q in ((flag, "c"), ("c", flag)):
            with pytest.raises(UnknownLabel, match=f"^no point labeled {flag}$"):
                CHAIN.pair(p, q)
    # read as indices, True and False would name the pair ('b', 'a')
    with pytest.raises(UnknownLabel, match="^no point labeled True$"):
        fl.classify_pair(CHAIN, True, False)
    assert (CHAIN.index(1), CHAIN.pair(1, 0)) == (1, (1, 0))


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
    reason="ROADMAP item 3: holder_transform validates the snowflake under the "
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


@pytest.mark.parametrize("base", [3, -1])
def test_validate_refuses_a_base_outside_the_points(base):
    # 3 is one past the last index of three points
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base=base)
    assert [v.kind for v in err.value.violations] == ["bad_base"]


@pytest.mark.parametrize(
    "base", [1.5, -0.5, 1.0, True, False, F(1), None, [1]],
    ids=["1.5", "-0.5", "1.0", "True", "False", "Fraction", "None", "list"],
)
def test_validate_refuses_a_base_that_is_not_a_label_or_an_index(base):
    # int() would read 1.5 as 1, -0.5 as 0 and True as 1
    with pytest.raises(ValidationError) as err:
        fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base=base)
    assert [v.kind for v in err.value.violations] == ["bad_base"]


class _Index:
    """An integer type that is not int, as numpy's are."""

    def __index__(self):
        return 1


def test_validate_accepts_an_index_of_another_integer_type():
    space = fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base=_Index())
    assert space.base_label == "b"


def test_validate_accepts_the_last_point_as_base():
    space = fl.validate([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ["a", "b", "c"], base=2)
    assert space.base_label == "c"
