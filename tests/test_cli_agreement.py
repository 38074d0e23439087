"""CLI-level agreement checks on generated spaces.

These checks were the "Console script" step of the CI workflow, inline
bash and Python around the installed ``freelip``. Each now calls
``freelip.cli.main`` in process on the inputs that step generated. The
checks of that step that other tests already held are not repeated
here: the stdlib JSON text (``test_classify_with_oracle_agreement``),
CSV input (``test_csv_ingestion``), and equal lazy and full attainment
on the one-ulp float file (``test_float_attainment_reads_the_closure``).
"""

import json
import random
from fractions import Fraction

import pytest

from freelip import space_to_dict
from freelip.cli import main
from support import random_space_with_midpoint


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The input files by name: c0 at depth 4, its holder snowflake, the
    spiral at depth 4, a twelve-point exact space in which x11 lies
    between x3 and x2 and x5 is the base, and three collinear l2 points
    whose integer squared distances are past the float range, so every
    root of the l2 filter is inf and the exact test behind it decides."""
    root = tmp_path_factory.mktemp("spaces")
    path = {name: str(root / f"{name}.json") for name in ("c0", "holder", "spiral", "twelve", "line")}
    for argv in (["c0", "--depth", "4"], ["holder", "--input", path["c0"]], ["spiral", "--depth", "4"]):
        assert main(["generate", *argv, "--out", path[argv[0]]]) == 0
    twelve, _ = random_space_with_midpoint(random.Random(12), 12, base=5)
    t = 10**200 + 1
    line = {"points": {"a": ["0"], "b": [f"{t}/{10**200}"], "c": [f"{2 * t}/{10**200}"]}, "norm": "l2"}
    for name, doc in (("twelve", space_to_dict(twelve)), ("line", line)):
        with open(path[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return path


def report(capsys, *argv):
    """The envelope that ``argv --json`` prints, after it exits 0."""
    code = main([*argv, "--json"])
    out = capsys.readouterr()
    assert code == 0, out.err
    return json.loads(out.out)


@pytest.mark.parametrize("copy", ["unreduced", "csv"])
def test_copy_of_c0_prints_its_digest_and_payload(files, tmp_path, capsys, copy):
    # c0's matrix written again with unreduced ratios and bare ints, which
    # the integer reader reduces, or as CSV, whose whole numbers are digit
    # strings that send it to parse_number
    with open(files["c0"], encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = [[Fraction(v) for v in row] for row in doc["matrix"]]
    if copy == "csv":
        path = tmp_path / "c0.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in [doc["labels"], *rows]))
    else:
        doc["matrix"] = [
            [v.numerator if v.denominator == 1 else f"{v.numerator * k}/{v.denominator * k}"
             for k, v in enumerate(row, start=2)]
            for row in rows
        ]
        path = tmp_path / "c0.json"
        path.write_text(json.dumps(doc))
    want = report(capsys, "classify", files["c0"])
    got = report(capsys, "classify", str(path))
    assert (got["input_digest"], got["payload"]) == (want["input_digest"], want["payload"])


@pytest.mark.parametrize("name", ["c0", "holder", "spiral"])
def test_pair_prints_the_whole_space_entry(files, capsys, name):
    whole = report(capsys, "classify", files[name])["payload"]["pairs"]
    for entry in whole:
        one = report(capsys, "classify", files[name], "--pair", entry["p"], entry["q"])
        assert one["payload"]["pairs"] == [entry]


@pytest.mark.parametrize(
    "name, p, q",
    [
        ("c0", "p", "e"),
        ("twelve", "x3", "x2"),  # the pair of the midpoint x11
        ("twelve", "x5", "x11"),  # a pair with the base
        ("holder", "p", "e"),
        ("spiral", "p", "q"),
    ],
)
def test_lazy_attainment_is_full_attainment_or_a_part_of_it(files, capsys, name, p, q):
    lazy, full = (
        report(capsys, "attainment", files[name], p, q, "--intervals", mode)["payload"]
        for mode in ("lazy", "full")
    )
    assert lazy["members"] == full["members"]
    assert lazy["intervals"].items() <= full["intervals"].items()
    # a float space takes the closed form on the closure of its rational
    # reading in both modes, so there the payloads are equal
    if name in ("holder", "spiral"):
        assert lazy == full


# twelve points are the most that the vertex oracle takes by default
@pytest.mark.parametrize("name, pairs", [("c0", 10), ("twelve", 66)])
def test_oracle_agrees_on_every_pair(files, capsys, name, pairs):
    oracle = report(capsys, "classify", files[name], "--oracle")["payload"]["oracle"]
    assert len(oracle) == pairs and all(row["agrees"] is True for row in oracle)


def test_line_past_the_float_range_has_its_middle(files, capsys):
    whole = report(capsys, "classify", files["line"])["payload"]
    assert whole["concave"] is False and whole["aligned_triples"] == [["b", "a", "c"]]
    pair = report(capsys, "classify", files["line"], "--pair", "a", "c")["payload"]
    assert [entry["witness"] for entry in pair["pairs"]] == ["b"]


@pytest.mark.parametrize(
    "argv",
    [
        ["c0", "--pair", "p", "e"],
        # spirals up to n=34: the l2 filter and the exact test behind it
        ["spiral", "--pair", "p", "q", "--depths", "4", "8", "16"],
        ["l2", "--pair", "0", "e1", "--depths", "4", "8", "16", "22"],
    ],
    ids=["c0", "spiral", "l2"],
)
def test_diagnose_exits_0(capsys, argv):
    report(capsys, "diagnose", *argv)
