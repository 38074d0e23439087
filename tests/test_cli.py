"""Exit codes, report determinism, round trips, and subcommand payloads."""

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import freelip
from freelip import cli, lipfun, simplex
from freelip.cli import main
from cli_corpus import run_corpus
from support import random_float_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


VALID_SPACE = {
    "labels": ["a", "b", "c"],
    "base": "a",
    "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "mode": "exact",
}

CHAIN_SPACE = {
    "labels": ["a", "b", "c"],
    "base": "a",
    "matrix": [[0, 2, 1], [2, 0, 1], [1, 1, 0]],
    "mode": "exact",
}

BROKEN_SPACE = {
    "labels": ["a", "b", "c"],
    "base": "a",
    "matrix": [[0, 3, 1], [3, 0, 1], [1, 1, 0]],
    "mode": "exact",
}

ONE_POINT_SPACE = {"labels": ["a"], "base": "a", "matrix": [[0]], "mode": "exact"}


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and "VALID" in out


def test_validate_triangle_violation_exit_2(tmp_path, capsys):
    path = write(tmp_path, "sp.json", BROKEN_SPACE)
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 2
    payload = json.loads(out)["payload"]
    assert payload["valid"] is False
    v = payload["violations"][0]
    assert v["kind"] == "triangle"
    assert (v["i"], v["j"], v["k"]) == (0, 1, 2)
    assert v["deficit"] == "1/1"


def test_validate_malformed_json_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1 and "error" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": [[0, 1], [1, 0]]},
        {"labels": ["a", "b"], "matrix": [0, 1]},
        {"points": [[0, 0], [1, 0]]},
        {"labels": "ab", "matrix": [[0, 1], [1, 0]]},
    ],
    ids=["no-labels", "rows-not-arrays", "points-array", "labels-string"],
)
def test_malformed_space_object_exit_1(tmp_path, capsys, doc):
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_point_with_coordinates_that_are_not_an_array_exit_1(tmp_path, capsys):
    path = write(tmp_path, "cloud.json", {"points": {"a": [0, 0], "b": 1}, "norm": "l2"})
    assert run(capsys, "validate", path) == (
        1, "", "error: the coordinates of 'b' must be an array\n"
    )


# an infinite float entry read as zero_distance on every pair and a NaN
# one as asymmetric (exit 2); with --mode exact, and for a point cloud, an
# infinite number escaped as an OverflowError traceback
@pytest.mark.parametrize(
    "name, text, flags, shown",
    [
        ("inf.json", '{"labels": ["a", "b"], "matrix": [[0, 1e400], [1e400, 0]]}', [], "inf"),
        ("nan.json", '{"labels": ["a", "b"], "matrix": [[0, NaN], [NaN, 0]]}', [], "nan"),
        ("inf.json", '{"labels": ["a", "b"], "matrix": [[0, 1e400], [1e400, 0]]}',
         ["--mode", "exact"], "inf"),
        ("inf.csv", "a,b\n0,1e400\n1e400,0\n", ["--mode", "exact"], "'1e400'"),
        ("cloud.json", '{"points": {"a": [0], "b": [1e400]}, "norm": "l1"}', [], "inf"),
        ("cloud.json", '{"points": {"a": [0], "b": [-Infinity]}}', [], "-inf"),
    ],
    ids=["float", "nan", "exact-mode", "csv-exact-mode", "l1-cloud", "l2-cloud"],
)
def test_number_that_is_not_finite_exits_1(tmp_path, capsys, name, text, flags, shown):
    path = tmp_path / name
    path.write_text(text)
    assert run(capsys, "validate", str(path), *flags) == (
        1, "", f"error: not a finite number: {shown}\n"
    )


def test_eps_that_is_not_finite_exits_1(tmp_path, capsys):
    # an OverflowError traceback on an exact space
    path = write(tmp_path, "sp.json", CHAIN_SPACE)
    assert run(capsys, "modulus", path, "a", "b", "--eps", "1e400") == (
        1, "", "error: not a finite number: '1e400'\n"
    )


def test_l2_distance_past_the_float_range_exits_2(tmp_path, capsys):
    path = write(tmp_path, "cloud.json", {"points": {"a": [0], "b": [1e308]}})
    code, out, _ = run(capsys, "validate", path, "--json")
    assert code == 2
    violations = json.loads(out)["payload"]["violations"]
    assert [(v["kind"], v["i"], v["j"]) for v in violations] == [("bad_entry", 0, 1), ("bad_entry", 1, 0)]


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.json")
    assert code == 1


def test_classify_with_oracle_agreement(tmp_path, capsys):
    # a single point has no pair: every list prints empty
    for doc in (VALID_SPACE, ONE_POINT_SPACE):
        path = write(tmp_path, "sp.json", doc)
        code, out, _ = run(capsys, "classify", path, "--oracle", "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        payload = json.loads(out)["payload"]
        assert payload["concave"] is True and payload["aligned_triples"] == []
        assert all(row["agrees"] for row in payload["oracle"])
        assert all(p["extreme"] for p in payload["pairs"])
        n = len(doc["labels"])
        assert len(payload["pairs"]) == len(payload["oracle"]) == n * (n - 1) // 2


def test_classify_middle_point_emits_weights(tmp_path, capsys):
    path = write(tmp_path, "sp.json", CHAIN_SPACE)
    code, out, _ = run(capsys, "classify", path, "--oracle", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    rows = {tuple(r["pair"]): r for r in payload["oracle"]}
    cert = rows[("a", "b")]["certificate"]
    assert cert["type"] == "convex_weights"
    assert cert["weights"] == {"a,c": "1/2", "c,b": "1/2"}
    pair = [p for p in payload["pairs"] if (p["p"], p["q"]) == ("a", "b")][0]
    assert pair["extreme"] is False and pair["witness"] == "c"


def test_classify_single_pair(tmp_path, capsys):
    path = write(tmp_path, "sp.json", CHAIN_SPACE)
    code, out, _ = run(capsys, "classify", path, "--pair", "a", "b", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert len(payload["pairs"]) == 1
    assert "concave" not in payload


def test_classify_json_leaves_the_dist_of_an_exact_file_unbuilt(tmp_path, capsys, monkeypatch):
    # the reader, validate, the kernel, the digest and the writer all read
    # the integer matrix; the Fraction matrix is built only when read
    doc = dict(CHAIN_SPACE, matrix=[[0, "2/1", "1/1"], ["4/2", 0, "1/1"], [1, "1/1", "0/1"]])
    path = write(tmp_path, "sp.json", doc)
    loaded = []
    load = cli.formats.load_space
    monkeypatch.setattr(cli.formats, "load_space", lambda *a, **k: loaded.append(load(*a, **k)) or loaded[-1])
    code, out, _ = run(capsys, "classify", path, "--json")
    (sp,) = loaded
    assert code == 0 and "dist" not in vars(sp)
    payload = json.loads(out)["payload"]
    assert payload["aligned_triples"] == [["c", "a", "b"]]
    assert payload["space_digest"] == freelip.space_digest(freelip.space_from_dict(CHAIN_SPACE))


def test_classify_oracle_unavailable_on_float(tmp_path, capsys):
    sp = dict(VALID_SPACE, mode="float", matrix=[[0, 1.0, 1.0], [1.0, 0, 1.0], [1.0, 1.0, 0]])
    path = write(tmp_path, "sp.json", sp)
    code, out, err = run(capsys, "classify", path, "--oracle")
    assert code == 1 and out == ""
    assert err == "error: the polytope oracle requires exact mode\n"


def test_no_analysis_for_invalid_space(tmp_path, capsys):
    path = write(tmp_path, "sp.json", BROKEN_SPACE)
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 2
    payload = json.loads(out)["payload"]
    assert "pairs" not in payload


# a space with three broken triangles
THREE_BREAKS = {
    "labels": ["a", "b", "c", "d"],
    "matrix": [[0, 3, 1, 1], [3, 0, 1, 5], [1, 1, 0, 1], [1, 5, 1, 0]],
}
THREE_BREAKS_TEXT = (
    "INVALID\n"
    "  triangle at 0,1,2 deficit 1\n"
    "  triangle at 1,3,0 deficit 1\n"
    "  triangle at 1,3,2 deficit 3\n"
)
THREE_BREAKS_PAYLOAD = {
    "valid": False,
    "violations": [
        {"kind": "triangle", "i": 0, "j": 1, "k": 2, "deficit": "1/1"},
        {"kind": "triangle", "i": 1, "j": 3, "k": 0, "deficit": "1/1"},
        {"kind": "triangle", "i": 1, "j": 3, "k": 2, "deficit": "3/1"},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ["modulus", "a", "b", "--eps", "1/2"],
        ["attainment", "a", "b"],
        ["validate"],
        ["classify"],
        ["classify", "--oracle", "--pair", "a", "b"],
    ],
)
def test_invalid_space_exit_2_with_payload(tmp_path, capsys, argv):
    # every command that reads a space file reports it alike: exit 2, the
    # violations under --json, and each violation in text mode
    path = write(tmp_path, "sp.json", THREE_BREAKS)
    code, out, err = run(capsys, argv[0], path, *argv[1:], "--json")
    envelope = json.loads(out)
    assert (code, err) == (2, "")
    assert (envelope["command"], envelope["input_digest"]) == (argv[0], None)
    assert envelope["payload"] == THREE_BREAKS_PAYLOAD
    assert run(capsys, argv[0], path, *argv[1:]) == (2, THREE_BREAKS_TEXT, "")


def test_invalid_space_from_a_generator_or_holder_input_exits_1(tmp_path, capsys):
    # not a space file of the command: one error line, exit 1; the benchmark
    # matches the spiral's "error: zero_distance" as a known failure
    path = write(tmp_path, "sp.json", THREE_BREAKS)
    code, out, err = run(capsys, "generate", "holder", "--input", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: triangle at 0,1,2 deficit 1; ") and err.count("\n") == 1
    code, out, err = run(capsys, "diagnose", "spiral", "--pair", "p", "q")
    assert (code, out) == (1, "")
    assert err.startswith("error: zero_distance at ") and err.count("\n") == 1


def test_generate_holder_without_input_exits_1(capsys):
    assert run(capsys, "generate", "holder") == (1, "", "error: generate holder needs --input\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "spiral", "--lambda", "1/0"],
        ["diagnose", "spiral", "--pair", "p", "q", "--lambda", "1/0"],
        ["generate", "holder", "--alpha", "1/0", "--input", "SPACE"],
    ],
    ids=["generate-lambda", "diagnose-lambda", "holder-alpha"],
)
def test_rational_flag_with_zero_denominator_exits_1(tmp_path, capsys, argv):
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, err = run(capsys, *[path if a == "SPACE" else a for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


TWO_POINTS = {"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}


@pytest.mark.parametrize(
    "doc",
    [dict(TWO_POINTS, tolerance=None), {"points": {"a": [0], "b": [1]}, "tolerance": None}],
    ids=["matrix", "l2-cloud"],
)
def test_null_tolerance_exits_1(tmp_path, capsys, doc):
    path = write(tmp_path, "sp.json", doc)
    assert run(capsys, "validate", path) == (
        1, "", "error: 'tolerance' must be a number, not None\n"
    )


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "doc", [TWO_POINTS, {"points": {"a": [0], "b": [1]}}], ids=["matrix", "l2-cloud"]
)
def test_boolean_tolerance_exits_1(tmp_path, capsys, doc, flag):
    # float(True) is 1.0, which would call every pair a zero distance
    path = write(tmp_path, "sp.json", dict(doc, tolerance=flag))
    assert run(capsys, "validate", path) == (
        1, "", f"error: 'tolerance' must be a number, not {flag}\n"
    )


FLOAT_TRIANGLE = {"labels": ["a", "b", "c"], "matrix": [[0, 1.0, 1.5], [1.0, 0, 1.0], [1.5, 1.0, 0]]}


def test_string_tolerance_exits_1(tmp_path, capsys):
    path = write(tmp_path, "sp.json", dict(FLOAT_TRIANGLE, tolerance="x"))
    assert run(capsys, "validate", path) == (
        1, "", "error: 'tolerance' must be a number, not 'x'\n"
    )


@pytest.mark.parametrize(
    "tolerance, shown",
    [('"nan"', "'nan'"), ('"inf"', "'inf'"), ("1e400", "inf"), ("-1", "-1"), ("-0.5", "-0.5")],
    ids=["nan", "inf", "overflow", "negative", "negative-float"],
)
def test_tolerance_that_is_not_finite_and_nonnegative_exits_1(tmp_path, capsys, tolerance, shown):
    # a nan tolerance compares false with every error, a negative one makes
    # a valid metric INVALID, and an infinite one calls every pair a zero
    # distance; the JSON text is written as given, so 1e400 is read as inf
    path = tmp_path / "sp.json"
    path.write_text(json.dumps(FLOAT_TRIANGLE)[:-1] + f', "tolerance": {tolerance}}}')
    assert run(capsys, "validate", str(path)) == (
        1, "", f"error: 'tolerance' must be finite and at least 0, not {shown}\n"
    )


def test_tolerance_flag_that_is_nan_exits_1(tmp_path, capsys):
    path = write(tmp_path, "sp.json", FLOAT_TRIANGLE)
    assert run(capsys, "classify", path, "--tolerance", "nan") == (
        1, "", "error: 'tolerance' must be finite and at least 0, not nan\n"
    )


def test_zero_tolerance_stays_valid(tmp_path, capsys):
    path = write(tmp_path, "sp.json", dict(FLOAT_TRIANGLE, tolerance=0))
    assert run(capsys, "validate", path) == (0, "VALID  3 points, mode=float, base=a\n", "")
    path = write(tmp_path, "sp.json", FLOAT_TRIANGLE)
    assert run(capsys, "validate", path, "--tolerance", "0") == (
        0, "VALID  3 points, mode=float, base=a\n", ""
    )


@pytest.mark.parametrize(
    "base", [None, [1], 1.5, -0.5, True], ids=["null", "array", "1.5", "-0.5", "true"]
)
def test_base_that_is_neither_label_nor_index_exits_2(tmp_path, capsys, base):
    path = write(tmp_path, "sp.json", dict(TWO_POINTS, base=base))
    code, out, err = run(capsys, "validate", path, "--json")
    assert (code, err) == (2, "")
    assert json.loads(out)["payload"]["violations"] == [
        {"kind": "bad_base", "i": None, "j": None, "k": None, "deficit": None}
    ]
    assert run(capsys, "validate", path) == (2, "INVALID\n  bad_base\n", "")


NEAR_LINE = {"labels": ["a", "b", "c"], "matrix": [[0, 1, 2.0000001], [1, 0, 1], [2.0000001, 1, 0]]}


@pytest.mark.parametrize(
    "doc", [dict(NEAR_LINE, tolerance=1e-9), NEAR_LINE], ids=["with-tolerance", "without"]
)
def test_tolerance_flag_wins_over_the_file(tmp_path, capsys, doc):
    path = write(tmp_path, "sp.json", doc)
    assert run(capsys, "validate", path)[0] == 2
    assert run(capsys, "validate", path, "--tolerance", "1e-6") == (
        0, "VALID  3 points, mode=float, base=a\n", ""
    )


def test_tolerance_flag_wins_over_a_generated_l2_cloud(tmp_path, capsys):
    path = str(tmp_path / "l2.json")
    assert run(capsys, "generate", "l2", "--depth", "5", "--out", path)[0] == 0
    assert json.loads(Path(path).read_text())["tolerance"] == 1e-9
    assert run(capsys, "validate", path)[0] == 0
    code, out, _ = run(capsys, "validate", path, "--tolerance", "0.05", "--json")
    assert code == 2
    assert json.loads(out)["payload"]["violations"] == [
        {"kind": "zero_distance", "i": 0, "j": 5, "k": None, "deficit": None}
    ]


def test_classify_oracle_guarded_at_12_points(tmp_path, capsys):
    n = 13
    sp = {
        "labels": [f"x{i}" for i in range(n)],
        "matrix": [[int(i != j) for j in range(n)] for i in range(n)],
    }
    path = write(tmp_path, "sp.json", sp)
    code, out, err = run(capsys, "classify", path, "--oracle")
    assert code == 1 and out == ""
    assert err == "error: the polytope oracle is guarded at 12 points\n"


def test_modulus_c0_fixture(tmp_path, capsys):
    gen_path = str(tmp_path / "c0.json")
    code, _, _ = run(capsys, "generate", "c0", "--depth", "10", "--out", gen_path)
    assert code == 0
    code, out, _ = run(capsys, "modulus", gen_path, "p", "e", "--eps", "0.5", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["entries"][0]["delta"] == "1/5"


def test_modulus_infinite_sentinel(tmp_path, capsys):
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, _ = run(capsys, "modulus", path, "a", "b", "--eps", "99", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["entries"][0]["delta"] == "inf"


def test_generate_round_trip_and_sizes(tmp_path, capsys):
    c0 = str(tmp_path / "c0.json")
    code, out, _ = run(capsys, "generate", "c0", "--depth", "8", "--out", c0)
    assert code == 0 and "9 points" in out
    assert run(capsys, "validate", c0)[0] == 0

    spiral = str(tmp_path / "spiral.json")
    code, out, _ = run(
        capsys, "generate", "spiral", "--lambda", "1/2", "--depth", "5",
        "--seed", "1", "--out", spiral,
    )
    assert code == 0 and "12 points" in out
    assert run(capsys, "validate", spiral)[0] == 0
    code, out, _ = run(capsys, "classify", spiral, "--json")
    assert json.loads(out)["payload"]["concave"] is True

    holder = str(tmp_path / "holder.json")
    code, out, _ = run(
        capsys, "generate", "holder", "--alpha", "1/2", "--input", c0, "--out", holder
    )
    assert code == 0
    assert run(capsys, "validate", holder)[0] == 0

    doc = json.loads(Path(spiral).read_text())
    assert doc["provenance"]["family"] == "planar_spiral"
    assert doc["provenance"]["seed"] == 1


def test_generate_l2(tmp_path, capsys):
    out_path = str(tmp_path / "l2.json")
    code, _, _ = run(capsys, "generate", "l2", "--depth", "8", "--out", out_path)
    assert code == 0
    doc = json.loads(Path(out_path).read_text())
    assert "margins" in doc["provenance"]
    assert run(capsys, "validate", out_path)[0] == 0


def test_attainment_equilateral(tmp_path, capsys):
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, _ = run(capsys, "attainment", path, "a", "b", "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["members"] == [["a", "b"], ["b", "a"]]


def test_float_attainment_reads_the_closure(tmp_path, capsys):
    # The float space passes validation, but read as exact rationals its
    # distances break a triangle by one ulp; attainment reads d(x0,x3) off
    # the closure, so the polytope is not empty and both modes agree.
    space = random_float_space(random.Random(1), 5)
    path = write(tmp_path, "float.json", freelip.space_to_dict(space))
    payloads = []
    for intervals in ("lazy", "full"):
        code, out, err = run(capsys, "attainment", path, "x0", "x3", "--intervals", intervals, "--json")
        assert code == 0 and err == ""
        payloads.append(json.loads(out)["payload"])
    assert payloads[0] == payloads[1]
    assert ["x0", "x3"] in payloads[0]["members"] and ["x3", "x0"] in payloads[0]["members"]


def test_attainment_lp_failure_is_one_error_line(tmp_path, capsys, monkeypatch):
    # an LP that fails is reported on one error line, with no traceback
    def failing(*args, **kwargs):
        raise simplex.LPFailure("attainment LP ended infeasible; the polytope is never empty")

    monkeypatch.setattr(lipfun, "attainment_set", failing)
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, err = run(capsys, "attainment", path, "a", "b", "--json")
    assert code == 1 and out == ""
    assert err == "error: attainment LP ended infeasible; the polytope is never empty\n"


def test_diagnose_spiral_flags(capsys):
    code, out, _ = run(
        capsys, "diagnose", "spiral", "--lambda", "1/2", "--seed", "7",
        "--pair", "p", "q", "--depths", "4", "8", "--json",
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["sequence"]["flag"] is True
    assert payload["exposure"]["limit_property_z_flag"] is True
    assert all(r["strongly_exposed"] for r in payload["exposure"]["records"])


def test_diagnose_refuses_depths_that_do_not_increase(capsys):
    # in the order given, 32 then 4 would read as a decay factor of 6.6
    for depths in (["32", "4"], ["4", "4"]):
        for json_flag in ([], ["--json"]):
            got = run(capsys, "diagnose", "c0", "--pair", "p", "e", "--depths", *depths, *json_flag)
            assert got == (1, "", "error: depths must be strictly increasing\n")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: at depth 32 validate rejects spiral points within "
    "2^-30 of p as zero_distance under the float tolerance, so the command exits 1",
)
def test_diagnose_spiral_at_default_depths_exits_0(capsys):
    code, _, err = run(capsys, "diagnose", "spiral", "--pair", "p", "q", "--json")
    assert code == 0, err


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 4: the fixed l2 margin 2^-40 cannot be met at n=23 "
    "even at b=0 ('no admissible b at n=23'), so the command exits 1",
)
def test_diagnose_l2_at_default_depths_exits_0(capsys):
    code, _, err = run(capsys, "diagnose", "l2", "--pair", "0", "e1", "--json")
    assert code == 0, err


def test_oracle_disagreement_exit_3(tmp_path, capsys, monkeypatch):
    # A real disagreement cannot occur; force one to pin the exit contract.
    import freelip.cli as cli_mod
    from freelip.polytope import VertexCertificate

    def fake_is_vertex(space, p, q, max_points=12):
        return VertexCertificate(
            vertex=False, separating=None, margin=None, weights={}
        )

    monkeypatch.setattr(cli_mod.polytope, "is_vertex", fake_is_vertex)
    path = write(tmp_path, "sp.json", VALID_SPACE)
    code, out, _ = run(capsys, "classify", path, "--oracle", "--json")
    assert code == 3
    payload = json.loads(out)["payload"]
    assert "disagreement" in payload
    assert payload["disagreement"]["classifier_extreme"] is True
    assert payload["disagreement"]["oracle_vertex"] is False
    assert "oracle_certificate" in payload["disagreement"]
    assert run(capsys, "classify", path, "--oracle") == (3, "DISAGREEMENT on pair ('a', 'b')\n", "")


def test_payload_determinism(tmp_path, capsys):
    path = write(tmp_path, "sp.json", CHAIN_SPACE)
    _, out1, _ = run(capsys, "classify", path, "--oracle", "--json")
    _, out2, _ = run(capsys, "classify", path, "--oracle", "--json")
    p1, p2 = json.loads(out1), json.loads(out2)
    blob1 = json.dumps(p1["payload"], sort_keys=True, separators=(",", ":"))
    blob2 = json.dumps(p2["payload"], sort_keys=True, separators=(",", ":"))
    assert blob1 == blob2
    assert p1["input_digest"] == p2["input_digest"]


def test_digest_label_order_independent(tmp_path, capsys):
    import freelip as fl

    sp1 = fl.validate([[0, 1, 2], [1, 0, 2], [2, 2, 0]], ["a", "b", "c"])
    sp2 = fl.validate([[0, 2, 2], [2, 0, 1], [2, 1, 0]], ["c", "a", "b"])
    assert fl.space_digest(sp1) == fl.space_digest(sp2)


def test_csv_ingestion(tmp_path, capsys):
    path = tmp_path / "sp.csv"
    path.write_text("a,b,c\n0,2,1\n2,0,1\n1,1,0\n")
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["concave"] is False


def test_point_cloud_ingestion(tmp_path, capsys):
    cloud = {
        "points": {"o": [0, 0], "x": [1, 0], "y": ["1/2", 0]},
        "norm": "l2",
        "base": "o",
    }
    path = write(tmp_path, "cloud.json", cloud)
    code, out, _ = run(capsys, "classify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["concave"] is False
    assert payload["aligned_triples"] == [["y", "o", "x"]]


def _without_timestamp(out: str):
    if not out.startswith("{"):
        return out
    envelope = json.loads(out)
    envelope.pop("timestamp", None)
    return envelope


def _defaults(parser: argparse.ArgumentParser) -> dict:
    out = {"": repr(parser._defaults)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out[name] = _defaults(sub)
        else:
            out[action.dest] = repr(action.default)
    return out


def test_shared_parser_matches_fresh_process(tmp_path, capsys):
    # one parser serves every call in a process; each call must print what
    # the same command prints in a process of its own, and leave the
    # parser's defaults as built
    chain = write(tmp_path, "chain.json", CHAIN_SPACE)
    one = write(tmp_path, "one.json", ONE_POINT_SPACE)
    commands = [
        ["diagnose", "c0", "--pair", "p", "e", "--json"],
        ["classify", chain, "--oracle", "--json"],
        ["diagnose", "c0", "--pair", "p", "e", "--depths", "4", "6", "--json"],
        ["modulus", chain, "a"],
        ["attainment", chain, "a", "b", "--intervals", "full", "--json"],
        ["validate", chain],
        ["modulus", chain, "a", "b", "--eps", "1/2", "--json"],
        ["diagnose", "c0", "--pair", "p", "e", "--json"],
        ["classify", chain, "--pair", "b", "a"],
        ["classify", one, "--json"],
    ]
    before = _defaults(cli._parser())
    assert cli._parser() is cli._parser()
    shared = [(main(argv), _without_timestamp(capsys.readouterr().out)) for argv in commands]
    assert _defaults(cli._parser()) == before
    assert [code for code, _ in shared] == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]

    src = str(Path(freelip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv, (code, out) in zip(commands, shared):
        fresh = subprocess.run(
            [sys.executable, "-m", "freelip.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (fresh.returncode, _without_timestamp(fresh.stdout)) == (code, out), argv


def test_cli_import_pulls_in_no_third_party_package():
    # freelip runs on the standard library; mpmath is a test-only reference
    src = str(Path(freelip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, freelip.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "False"


# tests/cli_corpus.py; the commands digest was re-recorded when lazy
# attainment began to take the closed form on float spaces, which changed
# only the eight float `attainment --json` calls without `--intervals full`:
# each now prints what its full twin prints. argparse wraps usage lines
# differently from Python 3.13 on
CLI_CORPUS_COMMANDS = (1175, "10666a006eb70c684e54a635ca820df0462308c749c0ca227b3fe2a0d8ddf36c")
CLI_CORPUS_PARSER = {
    (3, 10): "60346ec71f81db57ff1956c4db311d66560b3d25c1e78f4e6a038e4aee83a6ce",
    (3, 11): "60346ec71f81db57ff1956c4db311d66560b3d25c1e78f4e6a038e4aee83a6ce",
    (3, 12): "60346ec71f81db57ff1956c4db311d66560b3d25c1e78f4e6a038e4aee83a6ce",
    (3, 13): "22c14063938123d6f022b6e6b1080a74221f99a313277a98e6c69323fb6c6cd2",
}


def test_cli_corpus_digest():
    # every exit code and every byte printed over more than 1,100 calls
    corpus = run_corpus()
    assert corpus["commands"] == CLI_CORPUS_COMMANDS
    assert corpus["parser"] == (19, CLI_CORPUS_PARSER[sys.version_info[:2]])
