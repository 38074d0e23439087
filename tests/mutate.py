"""Mutation runner for the certificate checks and the LP guards.

Each target is one ``if`` in a function of ``freelip``: the exact
re-verification of a certificate, or a guard of an LP engine that raises
``LPFailure``. Each mutant weakens the condition of that ``if`` in one
way: the check is dropped (the condition becomes ``False``), one clause
of an ``or`` is dropped, one comparison moves to its boundary (``<`` and
``<=``, ``>`` and ``>=`` trade places), or one ``any`` becomes ``all``.
A mutant is named by its target and its edit, never by a line number.

A mutant is killed when the tier-1 test files that import its module
fail on it, run with ``-x`` on a temporary copy of the repository; the
first failing test kills it. ``MUTANTS.json``, next to this script,
records each mutant as killed, with that test, or as equivalent, with
the reason it cannot change an outcome. The tier-1 suite checks that the
record names exactly the mutants listed here; it does not run them.

    PYTHONPATH=src python tests/mutate.py            # run every mutant
    PYTHONPATH=src python tests/mutate.py TEXT       # the mutants whose name holds TEXT
    PYTHONPATH=src python tests/mutate.py --list     # print the names only
    PYTHONPATH=src python tests/mutate.py --record   # run all, rewrite the record

A run exits 1 when an outcome differs from the record: a mutant recorded
killed that survives, or one that survives unrecorded. ``--record``
keeps the reason of each equivalent mutant that still survives and
writes any new survivor as ``{"survived": ""}``, which the tier-1 check
refuses until a test kills it or a reason is given.
"""

from __future__ import annotations

import ast
import copy
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "freelip"
RECORD = Path(__file__).resolve().parent / "MUTANTS.json"

# (module, function, name, key): the target is the first ``if`` in the
# function whose condition or raised message holds the key
TARGETS = [
    ("polytope", "is_vertex", "combination check", "combination certificate failed verification"),
    ("polytope", "is_vertex", "Farkas check", "Farkas certificate failed verification"),
    ("polytope", "is_vertex", "largest-slope loop", "s * hi_d > hi * dm[x][y]"),
    ("polytope", "free_norm", "witness check", "free norm witness is not 1-Lipschitz"),
    ("polytope", "free_norm", "dual check", "free norm dual certificate failed verification"),
    ("lipfun", "_lazy_intervals.interval", "closed-form check",
     "attainment LP bound differs from the closed form"),
    ("simplex", "Tableau.__init__", "row length guard", "row length does not match objective length"),
    ("simplex", "_ball_phase_two", "unbounded guard", "the Lipschitz ball LP cannot be unbounded"),
    ("simplex", "_ball_phase_two", "above-1 guard", "an entry of the entering column is above 1"),
]

_BOUNDARY = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


@dataclass(frozen=True)
class Mutant:
    id: str
    module: str
    start: int  # byte offsets of the condition in the module's source
    end: int
    condition: str  # the mutated condition


def _function(tree: ast.AST, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next(
            n for n in ast.walk(node)
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part and n is not node
        )
    return node


def _target_if(function: ast.AST, key: str) -> ast.If:
    for node in ast.walk(function):
        if isinstance(node, ast.If):
            messages = [
                c.value for stmt in node.body if isinstance(stmt, ast.Raise)
                for c in ast.walk(stmt) if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ]
            if key in ast.unparse(node.test) or key in messages:
                return node
    raise LookupError(f"no if holds {key!r}")


def _edits(test: ast.expr, text) -> list[tuple[str, ast.expr]]:
    """(description, mutated condition) for each weakening of test;
    text(node) is a node's source, which names it in the description."""
    edits = [("drop the check", ast.Constant(False))]
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        for k, clause in enumerate(test.values):
            rest = test.values[:k] + test.values[k + 1:]
            edits.append((f"drop `{text(clause)}`",
                           rest[0] if len(rest) == 1 else ast.BoolOp(ast.Or(), rest)))
    for k, node in enumerate(ast.walk(test)):
        changed = copy.deepcopy(test)
        twin = list(ast.walk(changed))[k]
        if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _BOUNDARY:
            op = _BOUNDARY[type(node.ops[0])]
            twin.ops = [op()]
            moved = f"{text(node.left)} {_SYMBOL[op]} {text(node.comparators[0])}"
            edits.append((f"`{text(node)}` -> `{moved}`", changed))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "any":
            twin.func = ast.Name("all", ast.Load())
            edits.append(("`any` -> `all`", changed))
    return edits


def mutants() -> list[Mutant]:
    """Every mutant of every target, in the order of TARGETS."""
    out = []
    for module, function, name, key in TARGETS:
        source = (PACKAGE / f"{module}.py").read_bytes()
        starts = [0] + [m.end() for m in re.finditer(b"\n", source)]
        test = _target_if(_function(ast.parse(source), function), key).test
        start = starts[test.lineno - 1] + test.col_offset
        end = starts[test.end_lineno - 1] + test.end_col_offset
        text = functools.partial(ast.get_source_segment, source.decode("utf-8"))
        for edit, condition in _edits(test, text):
            out.append(Mutant(f"{module}.{function}, {name}: {edit}", module, start, end,
                              ast.unparse(condition)))
    if len({m.id for m in out}) != len(out):
        raise LookupError("two mutants share a name")
    return out


def _imports(path: Path, module: str, exported: set[str]) -> bool:
    """Does the test file name freelip.<module>, or a name that the
    package re-exports from it?"""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    aliases = {"freelip"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "freelip":
            names.update(node.module.split(".")[1:])
            if node.module == "freelip":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split(".")[1:] if alias.name.startswith("freelip.") else ())
                if alias.name == "freelip":
                    aliases.add(alias.asname or "freelip")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add(node.attr)
    return module in names or bool(names & exported)


def files_importing(module: str) -> list[str]:
    """The tier-1 test files that import the module, relative to the root."""
    exported = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1:
            exported.update(alias.asname or alias.name for alias in node.names)
    return [
        str(path.relative_to(ROOT)) for path in sorted((ROOT / "tests").glob("test_*.py"))
        if _imports(path, module, exported)
    ]


def _run(copy_root: Path, files: list[str]) -> tuple[bool, str]:
    """(passed, the first failing test) of pytest -x over the files."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *files],
        cwd=copy_root, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return proc.returncode == 0, failed[1] if failed else proc.stdout[-300:]


def run(selected: list[Mutant]) -> dict[str, dict[str, str]]:
    """Run each mutant on one temporary copy of the repository, restoring
    its module after each; the outcome of each as the record writes it."""
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy_root = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        probe = subprocess.run(
            [sys.executable, "-c", "import freelip; print(freelip.__file__)"], cwd=copy_root,
            env=dict(os.environ, PYTHONPATH=str(copy_root / "src")), capture_output=True, text=True,
        )
        if not probe.stdout.startswith(str(copy_root)):
            raise RuntimeError(f"the copy imports freelip from {probe.stdout.strip()}")
        files = {}
        for module in dict.fromkeys(m.module for m in selected):
            files[module] = files_importing(module)
            passed, failure = _run(copy_root, files[module])
            if not files[module] or not passed:
                raise RuntimeError(f"the tests of {module} do not pass unmutated: {failure}")
        for mutant in selected:
            path = copy_root / "src" / "freelip" / f"{mutant.module}.py"
            source = path.read_bytes()
            path.write_bytes(
                source[:mutant.start] + f"({mutant.condition})".encode() + source[mutant.end:]
            )
            t0 = time.perf_counter()
            try:
                passed, failure = _run(copy_root, files[mutant.module])
            finally:
                path.write_bytes(source)
            outcomes[mutant.id] = {"survived": ""} if passed else {"killed": failure}
            print(f"{time.perf_counter() - t0:6.1f} s  {next(iter(outcomes[mutant.id]))}: {mutant.id}",
                  flush=True)
    return outcomes


def main(argv: list[str]) -> int:
    every = mutants()
    if argv == ["--list"]:
        print("\n".join(m.id for m in every))
        return 0
    record = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    writing = argv == ["--record"]
    selected = every if writing else [m for m in every if not argv or any(a in m.id for a in argv)]
    t0 = time.perf_counter()
    outcomes = run(selected)
    print(f"{len(selected)} mutants in {time.perf_counter() - t0:.0f} s")
    if writing:
        for mid, outcome in outcomes.items():
            if "survived" in outcome and "equivalent" in record.get(mid, {}):
                outcomes[mid] = record[mid]
        RECORD.write_text(json.dumps(outcomes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    differ = [
        mid for mid, outcome in outcomes.items()
        if ("killed" in outcome) != ("killed" in record.get(mid, {}))
        or ("survived" in outcome and "equivalent" not in record.get(mid, {}))
    ]
    for mid in differ:
        print(f"differs from the record: {mid}: {outcomes[mid]} against {record.get(mid)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
