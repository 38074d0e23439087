"""The readers: JSON matrices, JSON point clouds and CSV, and the one
point-cloud constructor they share with the generators."""

import hashlib
import json
import math
from collections import OrderedDict
from decimal import Decimal
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import freelip as fl
from freelip import cli, formats
from freelip.formats import FormatError, dumps_pretty, load_space, parse_number, space_from_csv
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


# -- the pretty writer -------------------------------------------------


def _stdlib(x):
    return json.dumps(x, sort_keys=True, indent=2)


def _outcome(write, x):
    """The text written, or the type and message of the error raised."""
    try:
        return write(x)
    except TypeError as exc:
        return type(exc), str(exc)


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):  # the stdlib writes the int, not this
        return "seven"


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308]),
    st.text(alphabet=st.sampled_from('a"\\\n\t\x00\x1f[],:{}é\u2028\U0001f600'), max_size=6),
    st.builds(_Str, st.text(max_size=3)),
    st.builds(_Int, st.integers(-5, 5)),
)


def _dicts(children):
    # mostly one key type per dict, since sorting str against int keys
    # raises TypeError; the last strategy mixes them and reaches it
    return st.one_of(
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.integers(-(2**70), 2**70), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(st.text(max_size=3), children, max_size=4).map(
            lambda d: OrderedDict(reversed(d.items()))
        ),
        st.dictionaries(
            st.one_of(st.text(max_size=2), st.integers(), st.floats(), st.booleans(), st.none()),
            children,
            max_size=3,
        ),
    )


_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        _dicts(children),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_dumps_pretty_equals_the_stdlib(x):
    assert _outcome(dumps_pretty, x) == _outcome(_stdlib, x)


@pytest.mark.parametrize(
    "x",
    [
        "plain", _Str('q"uote'), 0, -(2**100), _Int(7), True, False, None,
        math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, [], {}, (), [[]], {"a": {}},
        {"k": ["x", 1, 2.5, None, True, {"z": [], "y": ()}]},
        {1: "a", 2.5: "b", True: "c", -(2**70): "d"},
        {None: 1}, {False: 0}, {math.inf: 1, -math.inf: 2}, {_Str("b"): 1, "a": 2},
        OrderedDict([("b", 1), ("a", 2)]), ["\u2028\U0001f600", "[,]", "\\"],
    ],
)
def test_dumps_pretty_equals_the_stdlib_on_edge_values(x):
    assert dumps_pretty(x) == _stdlib(x)


@pytest.mark.parametrize(
    "x",
    [F(1, 2), [F(1, 2)], {"a": F(1, 2)}, {(1, 2): 0}, {"a": 1, 2: 0}, {None: 0, 1: 0}, {1, 2}, b"x"],
    ids=["fraction", "fraction-item", "fraction-value", "tuple-key", "str-int-keys",
         "none-int-keys", "set", "bytes"],
)
def test_dumps_pretty_raises_what_the_stdlib_raises(x):
    raised = _outcome(dumps_pretty, x)
    assert raised[0] is TypeError and raised == _outcome(_stdlib, x)


# -- parse_number ------------------------------------------------------


@pytest.mark.parametrize(
    "s",
    ["3/4", "-3/4", "+3/4", "03/4", " 3/4 ", "1_0/3", "\u0663/4", "\u00b2/4", "3/0", "3/-4",
     "3 / 4", "3/4/5", "/4", "3/", "-/4", "6/8", "-0/5"],
)
def test_parse_number_reads_a_ratio_as_fraction_does(s):
    try:
        expected = F(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(FormatError, match="not a number"):
            parse_number(s)
    else:
        got = parse_number(s)
        assert type(got) is F and got == expected


@pytest.mark.parametrize(
    "v", [math.inf, -math.inf, math.nan, "1e400", "-1e400", "1.5e999"],
)
def test_parse_number_refuses_what_is_not_finite(v):
    with pytest.raises(FormatError, match="not a finite number"):
        parse_number(v)


@pytest.mark.parametrize(
    "text",
    [
        '{"labels": ["a", "b"], "matrix": [[0, 1e400], [1e400, 0]]}',
        '{"labels": ["a", "b"], "matrix": [[0, NaN], [NaN, 0]]}',
        '{"labels": ["a", "b"], "matrix": [[0, -Infinity], [-Infinity, 0]], "mode": "exact"}',
        '{"labels": ["a", "b"], "matrix": [[0, "1e400"], ["1e400", 0]]}',
        '{"points": {"a": [0], "b": [1e400]}, "norm": "l1"}',
        '{"points": {"a": [0], "b": [Infinity]}}',
    ],
    ids=["float", "nan", "exact-mode", "string", "l1-cloud", "l2-cloud"],
)
def test_readers_refuse_numbers_that_are_not_finite(tmp_path, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="not a finite number"):
        load_space(str(path))


def test_csv_reader_refuses_a_number_that_is_not_finite():
    with pytest.raises(FormatError, match="not a finite number"):
        space_from_csv("a,b\n0,1e400\n1e400,0\n")


# The number readers and writers as they were when they tested Fraction
# first. The library must give the same value, of the same type, or raise
# the same error with the same message.
def _fraction_first_parse_number(v):
    if isinstance(v, bool):
        raise FormatError(f"not a number: {v!r}")
    if isinstance(v, (int, F)):
        return F(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise FormatError(f"not a finite number: {v!r}")
        return v
    if isinstance(v, str):
        s = v.strip()
        try:
            ratio = formats._RATIO.fullmatch(s)
            if ratio:
                return F(int(ratio[1]), int(ratio[2]))
            if any(c in s for c in ".eE"):
                x = float(s)
                if not math.isfinite(x):
                    raise FormatError(f"not a finite number: {v!r}")
                return x
            return F(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a number: {v!r}") from exc
    raise FormatError(f"not a number: {v!r}")


def _fraction_first_number_to_json(v):
    if isinstance(v, F):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return v
    if isinstance(v, int):
        return f"{v}/1"
    return v


class _Float(float):
    def __repr__(self):
        return f"_Float({float(self)!r})"


class _Frac(F):
    pass


NUMBER_CASES = [
    True, False, 0, 7, -3, 10**30, _Int(5), F(3, 4), F(-6), _Frac(1, 3),
    1.5, -0.0, 1e-300, math.inf, -math.inf, math.nan, _Float(2.5), _Float(math.inf),
    "3/4", " -5/10 ", "2", "1.25", "1e400", "x", "1/0", _Str("1/2"), _Str("0.5"),
    None, [1], Decimal("1.5"),
]


def _number_outcome(fn, v):
    try:
        got = fn(v)
    except Exception as exc:  # the error is part of the outcome
        return ("raises", type(exc), str(exc))
    return ("returns", type(got), repr(got))


@pytest.mark.parametrize("v", NUMBER_CASES, ids=repr)
@pytest.mark.parametrize(
    "fn, reference",
    [
        (parse_number, _fraction_first_parse_number),
        (formats.number_to_json, _fraction_first_number_to_json),
    ],
    ids=["parse_number", "number_to_json"],
)
def test_testing_fraction_last_keeps_every_outcome(fn, reference, v):
    assert _number_outcome(fn, v) == _number_outcome(reference, v)


def _fraction_first_canon_entry(v):
    if isinstance(v, F):
        return f"{v.numerator}/{v.denominator}"
    return repr(float(v))


def _reference_digest(space):
    # every entry of dist through one canonical rule, whatever the mode
    order = sorted(range(space.n), key=lambda i: space.labels[i])
    canon = {
        "labels": [space.labels[i] for i in order],
        "matrix": [[_fraction_first_canon_entry(space.dist[i][j]) for j in order] for i in order],
        "mode": space.mode,
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("v", NUMBER_CASES, ids=repr)
@pytest.mark.parametrize("mode", [None, "exact", "float"])
def test_digest_reads_each_entry_as_its_canonical_text(mode, v):
    # the exact digest prints from the integer matrix and the float one by
    # float.__repr__ of the stored entry; both must hash what the one rule
    # over dist hashes, for every number a file may write
    big = 4
    doc = {"labels": ["b", "a", "c"], "matrix": [[0, v, big], [v, 0, big], [big, big, 0]]}

    def digest_outcome(digest):
        return _number_outcome(lambda doc: digest(fl.space_from_dict(doc, mode=mode)), doc)

    assert digest_outcome(fl.space_digest) == digest_outcome(_reference_digest)


# 3-point matrices whose entries a file may write in many ways; the
# integer reader takes those made only of ints and "n/d" strings
_READER_CASES = {
    "reduced": (True, [[0, "1/2", "3/4"], ["1/2", 0, "1/4"], ["3/4", "1/4", 0]]),
    "unreduced": (True, [["0/7", "2/4", "9/12"], ["3/6", "0/1", "5/20"], ["6/8", "2/8", "0/3"]]),
    "signs": (True, [["-0/3", "+1/2", "+3/4"], ["1/2", "+0/1", "1/4"], ["3/4", "1/4", "-0/1"]]),
    "whitespace": (True, [[0, " 1/2", "3/4\t"], ["\n1/2 ", 0, " 1/3 "], ["3/4", "1/3", 0]]),
    "bare_ints": (True, [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
    "ints_and_ratios": (True, [[0, 1, "3/2"], ["2/2", 0, "1/2"], ["3/2", "1/2", 0]]),
    "big_ints": (True, [[0, 10**40, 10**40], [10**40, 0, "1/3"], [10**40, "1/3", 0]]),
    "negative": (True, [[0, "-1/2", 1], ["-1/2", 0, 1], [1, 1, 0]]),
    "triangle": (True, [[0, "7/2", 1], ["7/2", 0, "4/3"], [1, "4/3", 0]]),
    "asymmetric": (True, [[0, "1/2", 1], ["1/3", 0, 1], [1, 1, 0]]),
    "zero_distance": (True, [[0, "0/5", 1], ["0/5", 0, 1], [1, 1, 0]]),
    "one_zero": (False, [[0, "1/0", 1], ["1/0", 0, 1], [1, 1, 0]]),
    "bools": (False, [[0, True, 1], [True, 0, 1], [1, 1, 0]]),
    "digit_strings": (False, [[0, "1", "2"], ["1", 0, "1"], ["2", "1", 0]]),
    "decimals": (False, [[0, "0.5", 0.75], ["0.5", 0, "0.25"], [0.75, "0.25", 0]]),
    "ratios_and_decimals": (False, [[0, "1/2", "0.75"], ["1/2", 0, "1/4"], ["0.75", "1/4", 0]]),
    "ratio_then_bad_entry": (False, [[0, "1/2", "1/0"], ["1/2", 0, "x"], ["1/0", "x", 0]]),
    "spaced_slash": (False, [[0, "1 / 2", 1], ["1 / 2", 0, 1], [1, 1, 0]]),
    "past_int_digits": (False, [[0, "9" * 5000 + "/1", 1], ["1/2", 0, 1], [1, 1, 0]]),
}


@pytest.mark.parametrize("mode", [None, "exact", "float"])
@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_integer_reader_prints_what_parse_number_prints(case, mode, tmp_path, monkeypatch, capsys):
    takes_ints, matrix = _READER_CASES[case]
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "base": "b", "matrix": matrix}))
    argv = ["classify", str(path), "--json"] + ([] if mode is None else ["--mode", mode])
    read = formats._ratio_ints
    results = []
    monkeypatch.setattr(formats, "_ratio_ints", lambda raw: results.append(read(raw)) or results[-1])

    def outcome():
        code = cli.main(argv)
        out, err = capsys.readouterr()
        lines = [line for line in out.splitlines() if '"timestamp"' not in line]
        return code, lines, err

    got = outcome()
    assert [r is not None for r in results] == ([] if mode == "float" else [takes_ints])
    # the reference: every entry read by parse_number
    monkeypatch.setattr(formats, "_ratio_ints", lambda raw: None)
    assert got == outcome()
