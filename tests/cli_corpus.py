"""A fixed corpus of in-process ``freelip.cli.main`` calls, and a digest
over everything they print.

The corpus runs every subcommand in text and ``--json`` mode over exact,
float, point-cloud, CSV, generated, invalid, malformed and missing
inputs, plus usage errors, ``--version`` and ``--help`` of the program
and of each subcommand. Each call is recorded as its argv, exit code,
stdout and stderr, with the envelope timestamp and the temporary
directory replaced by placeholders, so a digest moves exactly when some
call prints or exits differently. The calls that argparse answers by
itself get a digest of their own: argparse wraps usage lines differently
across Python versions, so that one is pinned per version. Help text is
formatted at 80 columns.

Print both digests and their numbers of calls with
``PYTHONPATH=src python tests/cli_corpus.py``.
"""

import functools
import hashlib
import io
import json
import math
import os
import random
import re
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from freelip import cli

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

EQUILATERAL = {"labels": ["a", "b", "c"], "base": "a", "matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
CHAIN = {"labels": ["a", "b", "c"], "matrix": [[0, 2, 1], [2, 0, 1], [1, 1, 0]], "mode": "exact"}
THREE_BREAKS = {
    "labels": ["a", "b", "c", "d"],
    "matrix": [[0, 3, 1, 1], [3, 0, 1, 5], [1, 1, 0, 1], [1, 5, 1, 0]],
}
TWO_POINTS = {"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}

# every command that reads a space file, with the pair (P, Q) filled in
FILE_COMMANDS = [
    ["validate"],
    ["validate", "--mode", "float"],
    ["validate", "--base", "Q"],
    ["classify"],
    ["classify", "--tolerance", "1e-6"],
    ["classify", "--pair", "P", "Q"],
    ["classify", "--pair", "Q", "P"],
    ["classify", "--oracle"],
    ["classify", "--oracle", "--pair", "P", "Q"],
    ["modulus", "P", "Q", "--eps", "1/2", "1", "0.25"],
    ["attainment", "P", "Q"],
    ["attainment", "P", "Q", "--intervals", "full"],
]


def _cloud(rng: random.Random, n: int, dim: int, fractional: bool = False) -> dict:
    seen: set = set()
    while len(seen) < n:
        seen.add(tuple(rng.randint(-4, 4) for _ in range(dim)))
    pts = sorted(seen)
    fmt = (lambda c: f"{c}/3") if fractional else (lambda c: c)
    return {f"x{i}": [fmt(c) for c in p] for i, p in enumerate(pts)}


def _matrix(points: dict, dist) -> list:
    vecs = list(points.values())
    return [[dist(u, v) for v in vecs] for u in vecs]


def _l1(u, v):
    return sum(abs(a - b) for a, b in zip(u, v))


def _l2(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def _csv(doc: dict) -> str:
    rows = [",".join(doc["labels"])] + [",".join(str(v) for v in row) for row in doc["matrix"]]
    return "\n".join(rows) + "\n"


def _inputs() -> list:
    """(file name, text, P, Q) for every space file of the corpus."""
    rng = random.Random(20170)
    docs = [
        ("equilateral.json", EQUILATERAL, "a", "b"),
        ("chain.json", CHAIN, "a", "b"),
        ("chain_base_c.json", dict(CHAIN, base="c"), "b", "a"),
        ("three_breaks.json", THREE_BREAKS, "a", "b"),
        ("broken_chain.json", dict(CHAIN, matrix=[[0, 3, 1], [3, 0, 1], [1, 1, 0]]), "a", "b"),
        ("null_base.json", dict(TWO_POINTS, base=None), "a", "b"),
        ("zero_distance.json", dict(TWO_POINTS, matrix=[[0, 0], [0, 0]]), "a", "b"),
        ("asymmetric.json", dict(CHAIN, matrix=[[0, 2, 1], [1, 0, 1], [1, 1, 0]]), "a", "b"),
        ("near_line.json", {"labels": ["a", "b", "c"],
                            "matrix": [[0, 1, 2.0000001], [1, 0, 1], [2.0000001, 1, 0]]}, "a", "c"),
        ("fractions.json", {"labels": ["a", "b", "c", "d"], "matrix": [
            [0, "1/2", "3/4", "5/4"], ["1/2", 0, "1/4", "3/4"],
            ["3/4", "1/4", 0, "1/2"], ["5/4", "3/4", "1/2", 0]]}, "a", "d"),
        ("null_tolerance.json", dict(TWO_POINTS, tolerance=None), "a", "b"),
        ("string_tolerance.json", dict(TWO_POINTS, tolerance="x"), "a", "b"),
        ("nan_tolerance.json", dict(TWO_POINTS, tolerance="nan"), "a", "b"),
        ("inf_tolerance.json", dict(TWO_POINTS, tolerance="inf"), "a", "b"),
        ("negative_tolerance.json", dict(TWO_POINTS, tolerance=-1), "a", "b"),
        ("bad_mode.json", dict(TWO_POINTS, mode="fuzzy"), "a", "b"),
        ("junk_entry.json", dict(TWO_POINTS, matrix=[[0, "abc"], ["abc", 0]]), "a", "b"),
        ("bool_entry.json", dict(TWO_POINTS, matrix=[[0, True], [True, 0]]), "a", "b"),
        ("no_labels.json", {"matrix": [[0, 1], [1, 0]]}, "a", "b"),
        ("rows_not_arrays.json", {"labels": ["a", "b"], "matrix": [0, 1]}, "a", "b"),
        ("unknown_norm.json", {"points": {"a": [0], "b": [1]}, "norm": "l3"}, "a", "b"),
        ("ragged_cloud.json", {"points": {"a": [0], "b": [1, 2]}}, "a", "b"),
        ("exact_l2_cloud.json", {"points": {"a": [0], "b": [1]}, "mode": "exact"}, "a", "b"),
    ]
    for k, (n, dim) in enumerate([(5, 2), (6, 2), (7, 3)]):
        pts = _cloud(rng, n, dim)
        docs.append((f"l1_cloud_{k}.json", {"points": pts, "norm": "l1", "base": "x1"}, "x0", "x2"))
        exact = {"labels": list(pts), "matrix": _matrix(pts, _l1)}
        docs.append((f"l1_matrix_{k}.json", exact, "x0", "x2"))
        docs.append((f"l1_matrix_{k}.csv", exact, "x2", "x0"))
    pts = _cloud(rng, 6, 2)
    docs.append(("linf_cloud.json", {"points": pts, "norm": "linf"}, "x0", "x5"))
    for k, fractional in enumerate([False, True]):
        pts = _cloud(rng, 5 + k, 2, fractional)
        docs.append((f"l2_cloud_{k}.json", {"points": pts, "norm": "l2"}, "x0", "x3"))
    pts = _cloud(rng, 6, 2)
    floats = {"labels": list(pts), "matrix": _matrix(pts, _l2), "tolerance": 1e-9}
    docs.append(("l2_matrix.json", floats, "x1", "x4"))
    docs.append(("l2_matrix.csv", floats, "x1", "x4"))
    out = []
    for name, doc, p, q in docs:
        text = _csv(doc) if name.endswith(".csv") else json.dumps(doc)
        out.append((name, text, p, q))
    out += [
        ("not_json.json", "{not json", "a", "b"),
        ("array.json", "[1, 2]", "a", "b"),
        ("empty.csv", "", "a", "b"),
        ("ragged.csv", "a,b\n0,1\n1\n", "a", "b"),
    ]
    return out


def _parser_argvs(tmp: str) -> list:
    """Calls that argparse answers by itself: help, version, usage errors."""
    at = functools.partial(os.path.join, tmp)
    argvs = [
        [],
        ["--version"],
        ["--help"],
        ["bogus"],
        ["validate"],
        ["generate", "x"],
        ["generate", "c0", "--depth", "x"],
        ["classify", at("chain.json"), "--pair", "a"],
        ["modulus", at("chain.json"), "a", "b"],
        ["attainment", at("chain.json"), "a", "b", "--intervals", "some"],
        ["diagnose", "c0"],
        ["diagnose", "holder", "--pair", "p", "e"],
        ["validate", at("chain.json"), "--format", "xml"],
    ]
    for sub in ["validate", "classify", "modulus", "generate", "attainment", "diagnose"]:
        argvs.append([sub, "--help"])
    return argvs


def _command_argvs(tmp: str) -> list:
    """Every subcommand call of the corpus, on the files in tmp."""
    at = functools.partial(os.path.join, tmp)
    argvs = [
        ["generate", "c0", "--depth", "6", "--out", at("c0.json")],
        ["generate", "spiral", "--depth", "4", "--seed", "1", "--out", at("spiral.json")],
        ["generate", "spiral", "--depth", "3", "--one-sided", "--out", at("spiral1.json")],
        ["generate", "l2", "--depth", "5", "--out", at("l2.json")],
        ["generate", "holder", "--input", at("chain.json"), "--out", at("holder.json")],
        ["generate", "holder", "--alpha", "2/3", "--input", at("l1_matrix_0.json")],
        ["generate", "holder", "--input", at("three_breaks.json")],
        ["generate", "holder", "--input", at("missing.json")],
        ["generate", "holder"],
        ["generate", "holder", "--alpha", "3/2", "--input", at("chain.json")],
        ["generate", "c0", "--depth", "4"],
        ["generate", "c0", "--depth", "0"],
        ["generate", "spiral", "--depth", "3", "--lambda", "1/3"],
        ["generate", "spiral", "--depth", "3", "--lambda", "2"],
        ["generate", "spiral", "--depth", "3", "--lambda", "x"],
        ["generate", "l2", "--depth", "3"],
        ["generate", "l2", "--depth", "4", "--lambda", "1/3"],
        ["generate", "c0", "--out", at("no_dir/c0.json")],
    ]
    for json_flag in ([], ["--json"]):
        argvs += [
            ["diagnose", "c0", "--pair", "p", "e", "--depths", "4", "6", *json_flag],
            ["diagnose", "c0", "--pair", "p", "e", *json_flag],
            ["diagnose", "c0", "--pair", "p", "nowhere", "--depths", "4", *json_flag],
            ["diagnose", "spiral", "--pair", "p", "q", "--depths", "4", "8", "--seed", "7", *json_flag],
            ["diagnose", "spiral", "--pair", "p", "q", "--depths", "4", "--one-sided", *json_flag],
            ["diagnose", "l2", "--pair", "0", "e1", "--depths", "3", "5", *json_flag],
            ["diagnose", "c0", "--pair", "p", "e", "--depths", "0", *json_flag],
        ]
    argvs += [
        ["diagnose", "spiral", "--pair", "p", "q"],
        ["diagnose", "l2", "--pair", "0", "e1", "--json"],
    ]
    files = [(name, p, q) for name, _, p, q in _inputs()]
    files += [("c0.json", "p", "e"), ("spiral.json", "p", "q"), ("spiral1.json", "p", "q"),
              ("l2.json", "0", "e1"), ("holder.json", "a", "b"), ("missing.json", "a", "b")]
    for name, p, q in files:
        for command in FILE_COMMANDS:
            argv = [{"P": p, "Q": q}.get(a, a) for a in command]
            argv.insert(1, at(name))
            argvs += [argv, argv + ["--json"]]
    argvs += [
        ["validate", at("l1_matrix_0.json"), "--format", "csv"],
        ["validate", at("l1_matrix_0.csv"), "--format", "json"],
        ["classify", at("l1_matrix_1.csv"), "--mode", "float", "--json"],
        ["classify", at("l1_cloud_0.json"), "--mode", "float"],
        ["classify", at("l2_cloud_0.json"), "--mode", "exact"],
        ["validate", at("chain.json"), "--base", "nowhere", "--json"],
        ["validate", at("chain.json"), "--base", "2", "--json"],
        ["modulus", at("chain.json"), "a", "b", "--eps", "0", "--json"],
        ["modulus", at("chain.json"), "a", "b", "--eps", "x"],
        ["modulus", at("chain.json"), "a", "a", "--eps", "1/2"],
        ["attainment", at("chain.json"), "a", "nowhere"],
        ["classify", at("chain.json"), "--pair", "a", "a", "--json"],
        ["classify", at("l2_matrix.json"), "--tolerance", "nan"],
    ]
    return argvs


def calls(argvs: list):
    """Run each argv through ``cli.main`` in process, and yield it with its
    exit code, stdout and stderr."""
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        yield argv, code, out.getvalue(), err.getvalue()


def _digest(argvs: list, tmp: str) -> tuple[int, str]:
    digest = hashlib.sha256()
    for argv, code, out, err in calls(argvs):
        record = [argv, code, TIMESTAMP.sub('"timestamp": "T"', out), err]
        digest.update(json.dumps(record).replace(tmp, "<tmp>").encode("utf-8") + b"\n")
    return len(argvs), digest.hexdigest()


@contextmanager
def corpus_dir():
    """A temporary directory holding the corpus's space files, with help
    text formatted at 80 columns while it is open."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text, _, _ in _inputs():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            yield tmp
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def run_corpus() -> dict:
    """Run the corpus: the number of calls and the digest of the subcommand
    calls under "commands", and of the calls that argparse answers under
    "parser"."""
    with corpus_dir() as tmp:
        return {
            "commands": _digest(_command_argvs(tmp), tmp),
            "parser": _digest(_parser_argvs(tmp), tmp),
        }


if __name__ == "__main__":
    print(json.dumps(run_corpus()))
