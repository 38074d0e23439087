"""The readers: JSON matrices, JSON point clouds and CSV, and the one
point-cloud constructor they share with the generators."""

import json
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip import formats
from freelip.formats import FormatError, load_space, parse_number, space_from_csv
from freelip.space import from_points
from support import reference_cloud_matrix


def test_linf_cloud_is_exact():
    sp = fl.space_from_dict(
        {"points": {"o": [0, 0], "x": ["3/2", 1], "y": [1, "-1/3"]}, "norm": "linf"}
    )
    assert sp.mode == "exact" and sp.coord_norm == "linf" and sp.base_label == "o"
    assert sp.dist == (
        (0, F(3, 2), 1),
        (F(3, 2), 0, F(4, 3)),
        (1, F(4, 3), 0),
    )
    assert all(isinstance(v, F) for row in sp.dist for v in row)


def test_l2_cloud_honours_its_tolerance():
    cloud = {"points": {"o": [0, 0], "x": [1, 0], "y": [0, 1]}, "norm": "l2", "tolerance": 1e-6}
    sp = fl.space_from_dict(cloud)
    assert sp.mode == "float" and sp.rel_tol == 1e-6
    assert fl.space_from_dict(fl.space_to_dict(sp)).rel_tol == 1e-6
    # exact norms compare exactly, whatever the tolerance
    assert fl.space_from_dict({**cloud, "norm": "l1"}).abs_tol == 0


def test_mode_base_and_tolerance_argument_then_object_then_default():
    def options(doc, **kwargs):
        sp = fl.space_from_dict(doc, **kwargs)
        return sp.mode, sp.base_label, sp.rel_tol

    matrix = {"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}
    cloud = {"points": {"a": [0], "b": [1]}, "norm": "l2"}
    assert options(matrix) == ("exact", "a", 1e-9)
    assert options(cloud) == ("float", "a", 1e-9)
    given = {"mode": "float", "base": "b", "tolerance": 1e-6}
    assert options({**matrix, **given}) == ("float", "b", 1e-6)
    assert options({**cloud, **given}) == ("float", "b", 1e-6)
    assert options({**matrix, **given}, mode="exact", base="a", rel_tol=1e-3) == ("exact", "a", 1e-3)
    assert options({**cloud, **given}, base="a", rel_tol=1e-3) == ("float", "a", 1e-3)


@pytest.mark.parametrize("given", ["argument", "object"])
def test_exact_mode_on_l2_cloud_raises_format_error(given):
    cloud = {"points": {"o": [0, 0], "x": [1, 1]}, "norm": "l2"}
    with pytest.raises(FormatError, match="an l2 point cloud is float, not exact"):
        if given == "argument":
            fl.space_from_dict(cloud, mode="exact")
        else:
            fl.space_from_dict({**cloud, "mode": "exact"})


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_exact_norm_cloud_keeps_exact_mode(norm):
    cloud = {"points": {"o": [0, 0], "x": [1, "1/2"]}, "norm": norm}
    assert fl.space_from_dict(cloud, mode="exact").mode == "exact"
    with pytest.raises(FormatError, match=f"an {norm} point cloud is exact, not float"):
        fl.space_from_dict(cloud, mode="float")


def test_matrix_mode_inferred_from_entries():
    doc = {"labels": ["a", "b", "c"], "matrix": [[0, 1, "1/2"], [1, 0, 1], ["1/2", 1, 0]]}
    exact = fl.space_from_dict(doc)
    assert exact.mode == "exact" and exact.d("a", "c") == F(1, 2)
    doc["matrix"][1][2] = doc["matrix"][2][1] = "1.0"
    floats = fl.space_from_dict(doc)
    assert floats.mode == "float" and floats.d("a", "c") == 0.5


def _old_entry_is_exact(v) -> bool:
    # the rule the matrix reader applied to the raw entries before it
    # inferred the mode from the parsed ones
    return isinstance(v, (int, F)) or (isinstance(v, str) and not any(c in v for c in ".eE"))


_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([" 1/2", "3 ", " 0.5 ", "\t2e3\n", " -7 "]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "x", "1e", "1/2/3", "1.5/2", "inf", "nan", "1_000", [1], {}]),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries, min_size=1, max_size=5))
def test_mode_inferred_from_parsed_entries_matches_the_raw_entry_rule(entries):
    try:
        for v in entries:
            parse_number(v)
    except FormatError as exc:
        expected = str(exc)
    else:
        expected = "exact" if all(_old_entry_is_exact(v) for v in entries) else "float"
    doc = {"labels": ["a"], "matrix": [entries]}
    # the reader's last step is validate(..., mode=...); report the mode instead
    with mock.patch.object(formats, "validate", lambda *args, mode, **kwargs: mode):
        try:
            got = fl.space_from_dict(doc)
        except FormatError as exc:
            got = str(exc)
    assert got == expected


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]], "mode": "fuzzy"}, "unknown mode 'fuzzy'"),
        ({"points": {"a": [0], "b": [1]}, "norm": "l3"}, "unknown norm 'l3'"),
        ({"points": {"a": [0], "b": [1]}, "mode": "fuzzy"}, "unknown mode 'fuzzy'"),
        ({"points": {"a": [0, 0], "b": [1]}}, "all points need the same dimension"),
        ({"labels": ["a"], "base": "a"}, "neither 'matrix' nor 'points'"),
    ],
    ids=["mode", "norm", "cloud-mode", "mixed-dimension", "no-matrix-no-points"],
)
def test_malformed_object_raises_format_error(doc, message):
    with pytest.raises(FormatError, match=message):
        fl.space_from_dict(doc)


def test_top_level_json_must_be_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([[0, 1], [1, 0]]))
    with pytest.raises(FormatError, match="must be an object"):
        load_space(str(path))


def test_empty_csv():
    with pytest.raises(FormatError, match="empty CSV"):
        space_from_csv("\n\n")


_coord = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def clouds(draw):
    dim = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[_coord] * dim), min_size=2, max_size=6, unique=True))
    return {f"x{i}": pt for i, pt in enumerate(pts)}


@settings(max_examples=150, deadline=None)
@given(clouds(), st.sampled_from(["l2", "l1", "linf"]))
def test_from_points_equals_fraction_reference(points, norm):
    sp = from_points(points, norm)
    ref = reference_cloud_matrix(points, norm)
    if norm == "l2":
        assert sp.mode == "float"
        assert [[v.hex() for v in row] for row in sp.dist] == [
            [v.hex() for v in row] for row in ref
        ]
    else:
        assert sp.mode == "exact"
        assert [list(row) for row in sp.dist] == ref
    assert sp.coords == tuple(points.values()) and sp.coord_norm == norm
