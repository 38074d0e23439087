"""Seeded inputs and op schedules of the four benchmark workloads.

Every input is built from the workload seed alone and written as a space
file before timing starts; the program sees nothing else. CLI ops read
the file by path. Library ops (``free_norm``, which has no CLI verb) load
it once with ``freelip.formats.load_space`` during set-up.

Exact metrics are random rational matrices repaired into metrics by
shortest-path closure, which keeps them rational and positive. Every
other exact space gets a metric midpoint adjoined between a random pair,
so extreme and non-extreme molecules both occur. Snowflakes and spirals
are made with the CLI's own ``generate`` verb.

The closed loop runs a workload's ops in order and starts over when it
reaches the end before its time is up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("classify-exact", "classify-float", "oracle-verify", "lipschitz-lp")

# Entry denominators come from {1, 2, 3}; one entry in WIDE_SHARE instead
# draws from 1..12, which varies the common denominator and bit growth.
NARROW_DENOMINATORS = (1, 2, 3)
WIDE_DENOMINATORS = tuple(range(1, 13))
WIDE_SHARE = 8
LCM_1_TO_12 = 27720  # closure runs on integers scaled by this

# A workload is a run of blocks of one fixed composition, each block with
# fresh inputs, so a run samples many inputs (the content of a random
# space moves an op's cost by up to a third) in fixed proportions. The
# composition places the median and p90 well inside one group of
# similar-cost ops, never on the edge between a cheap and a dear group,
# where they would jump with the seed; the weights serve these two
# statistics and are not a model of traffic (the README lists the ops
# that move neither). Within a block the entries are
# spread evenly (see _spread), so a run that stops part-way through a
# block keeps the proportions. The entry listed first is a cheap one: the
# first op made from it is the untimed warm-up op of set-up, so that
# setup_s varies little with the seed. Block entries, with their count:
#   ("classify", n)  ("oracle", n)  ("lp", n, ops)  exact spaces
#   ("float", n)  ("holder", n)  ("spiral", depth)  ("gen-holder",)
#   ("diagnose", family)
LP_ALL = ("full", "lazy", "molecule", "vector")
LP_ATTAIN = ("full", "lazy")
BLOCKS = {
    "full": {
        # n=16 [0, 30%), n=20 [30, 70%) holds p50, n=24, n=28 [80, 100%] holds p90
        "classify-exact": (14, {("classify", 16): 3, ("classify", 20): 4, ("classify", 24): 1,
                               ("classify", 28): 2}),
        # float n=16 and spiral depth 8 [27, 60%) hold p50; float n=20
        # [73, 97%) holds p90, below diagnose spiral (1 s)
        "classify-float": (5, {
            ("float", 12): 2, ("float", 16): 9, ("float", 20): 7,
            ("spiral", 4): 1, ("spiral", 6): 1, ("spiral", 8): 1,
            ("holder", 12): 2, ("holder", 16): 2, ("gen-holder",): 2,
            ("diagnose", "c0"): 1, ("diagnose", "spiral"): 1, ("diagnose", "l2"): 1,
        }),
        # thirds: n=6 holds p50, n=7 holds p90
        "oracle-verify": (48, {("oracle", 5): 1, ("oracle", 6): 1, ("oracle", 7): 1}),
        # full attainment at n=7 is 3 ops in 16 [81, 100%] and holds p90
        "lipschitz-lp": (20, {("lp", 5, LP_ALL): 1, ("lp", 6, LP_ALL): 1, ("lp", 7, LP_ALL): 1,
                              ("lp", 7, LP_ATTAIN): 2}),
    },
    # Self-test only.
    "tiny": {
        "classify-exact": (1, {("classify", 5): 1, ("classify", 6): 1}),
        "classify-float": (1, {("float", 5): 1, ("spiral", 2): 1, ("holder", 5): 1, ("gen-holder",): 1,
                               ("diagnose", "c0"): 1}),
        "oracle-verify": (1, {("oracle", 4): 1, ("oracle", 5): 1}),
        "lipschitz-lp": (1, {("lp", 4, LP_ALL): 1, ("lp", 5, LP_ALL): 1}),
    },
}
# Snowflakes and spirals cost the same whatever their content, so blocks
# reuse the inputs of the first HOLDER_VARIANTS blocks, which keeps the
# CLI generate calls in set-up few.
HOLDER_VARIANTS = 2

# diagnose ops run at the CLI's default depths (4 8 16 32), with the
# anchor pair each family requires.
DIAGNOSE_PAIRS = {"c0": ("p", "e"), "spiral": ("p", "q"), "l2": ("0", "e1")}

# Ops that fail on this code base for known defects. They run in every
# classify-float block and count as known failures; if the defect is
# fixed they must return a well-formed payload instead. No reference
# digest is recorded for them, so a fixed op is judged by its check alone.
KNOWN_FAILURES = {
    "diagnose/spiral": (1, "error: zero_distance"),
    "diagnose/l2": (1, "error: no admissible b at n=23"),
}


@dataclass
class Op:
    """One call the client makes; ``key`` is stable across seeds."""

    key: str
    kind: str
    argv: list[str] | None = None  # CLI ops
    call: Callable | None = None  # library ops: returns the result object
    data: dict = field(default_factory=dict)  # what the checks need
    seed_free: bool = False  # output does not depend on the workload seed


@dataclass
class Plan:
    ops: list[Op]
    inputs: dict[str, dict]  # file stem -> generated matrix and labels
    block_size: int = 1  # ops per block; every block has the same composition
    warmup: Op | None = None  # the untimed op of set-up


# -- metric generators ---------------------------------------------------


def _closure(d: list[list]) -> None:
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via


def exact_matrix(rng: random.Random, n: int) -> list[list[Fraction]]:
    scaled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.randrange(WIDE_SHARE) == 0:
                den = rng.choice(WIDE_DENOMINATORS)
            else:
                den = rng.choice(NARROW_DENOMINATORS)
            scaled[i][j] = scaled[j][i] = rng.randint(2, 24) * (LCM_1_TO_12 // den)
    _closure(scaled)
    return [[Fraction(v, LCM_1_TO_12) for v in row] for row in scaled]


def with_midpoint(rng: random.Random, d: list[list[Fraction]]):
    """Adjoin a point strictly between a random pair (i, j); its other
    distances come from the shortest-path extension through i and j."""
    n = len(d)
    i, j = rng.sample(range(n), 2)
    t = Fraction(rng.choice((1, 2, 3)), 4)
    di, dj = t * d[i][j], (1 - t) * d[i][j]
    row = [min(di + d[i][x], dj + d[j][x]) for x in range(n)]
    row[i], row[j] = di, dj
    out = [d[r][:] + [row[r]] for r in range(n)]
    out.append(row + [Fraction(0)])
    return out, (i, j, n)


def exact_space(rng: random.Random, n: int, midpoint: bool) -> dict:
    if midpoint:
        matrix, triple = with_midpoint(rng, exact_matrix(rng, n - 1))
    else:
        matrix, triple = exact_matrix(rng, n), None
    return {
        "labels": [f"x{i}" for i in range(n)],
        "matrix": matrix,
        "mode": "exact",
        "midpoint": triple,
    }


def float_space(rng: random.Random, n: int) -> dict:
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.uniform(1.0, 10.0)
    _closure(m)
    return {"labels": [f"x{i}" for i in range(n)], "matrix": m, "mode": "float"}


def write_space(path: Path, space: dict) -> None:
    def entry(v):
        return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v

    doc = {
        "labels": space["labels"],
        "base": space["labels"][0],
        "matrix": [[entry(v) for v in row] for row in space["matrix"]],
        "mode": space["mode"],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def run_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# -- schedules -------------------------------------------------------------


class _Inputs:
    """Writes a workload's inputs and turns block entries into ops."""

    def __init__(self, rng: random.Random, workdir: Path):
        from freelip import cli

        self.cli = cli
        self.rng = rng
        self.inputs_dir = workdir / "inputs"
        self.out_dir = workdir / "out"
        self.inputs_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.plan = Plan(ops=[], inputs={})
        self.made: Counter = Counter()  # spaces made so far, per prefix and size
        self.generated: set[str] = set()  # snowflake and spiral stems written

    def _stem(self, prefix: str, n: int) -> str:
        self.made[prefix, n] += 1
        return f"{prefix}{n}-{self.made[prefix, n] - 1}"

    def exact(self, prefix: str, n: int) -> tuple[str, str]:
        stem = self._stem(prefix, n)
        # Every other space of each size gets a midpoint: exactly half.
        space = exact_space(self.rng, n, midpoint=self.made[prefix, n] % 2 == 1)
        path = self.inputs_dir / f"{stem}.json"
        write_space(path, space)
        self.plan.inputs[stem] = space
        return stem, str(path)

    def generate(self, argv: list[str]) -> None:
        if run_cli(self.cli, argv) != 0:
            raise RuntimeError(f"set-up failed: {' '.join(argv)}")

    def add(self, key: str, kind: str, argv=None, call=None, **data) -> None:
        self.plan.ops.append(Op(key, kind, argv=argv, call=call, data=data, seed_free=kind == "diagnose"))

    def entry(self, block: int, slot: int, entry: tuple) -> None:
        what, *params = entry
        if what in ("classify", "oracle"):
            stem, path = self.exact("e" if what == "classify" else "o", params[0])
            argv = ["classify", path, "--json"] + (["--oracle"] if what == "oracle" else [])
            self.add(f"{what}/{stem}", what, argv, input=stem)
        elif what == "lp":
            self.lipschitz(*params)
        elif what == "float":
            stem = self._stem("f", params[0])
            space = float_space(self.rng, params[0])
            path = self.inputs_dir / f"{stem}.json"
            write_space(path, space)
            self.plan.inputs[stem] = space
            self.add(f"classify/{stem}", "classify", ["classify", str(path), "--json"], input=stem)
        elif what in ("holder", "spiral", "gen-holder"):
            stem = f"{what}{'' if not params else params[0]}-{block % HOLDER_VARIANTS}.{slot}"
            self.snowflake_or_spiral(what, stem, *params)
        elif what == "diagnose":
            fam = params[0]
            p, q = DIAGNOSE_PAIRS[fam]
            self.add(f"diagnose/{fam}", "diagnose", ["diagnose", fam, "--pair", p, q, "--json"])
        else:
            raise ValueError(f"unknown block entry {entry!r}")

    def snowflake_or_spiral(self, what: str, stem: str, size: int | None = None) -> None:
        path = self.inputs_dir / f"{stem}.json"
        first = stem not in self.generated
        self.generated.add(stem)
        if what == "spiral":
            if first:
                seed = str(self.rng.randrange(2**31))
                self.generate(["generate", "spiral", "--depth", str(size), "--seed", seed, "--out", str(path)])
            self.add(f"classify/{stem}", "classify-concave", ["classify", str(path), "--json"], n=2 + 2 * size)
            return
        base_stem = f"{stem}.base"
        base_path = self.inputs_dir / f"{base_stem}.json"
        if first:
            base = exact_space(self.rng, size or 12, midpoint=self.rng.random() < 0.5)
            write_space(base_path, base)
            self.plan.inputs[base_stem] = base
        if what == "holder":
            if first:
                self.generate(["generate", "holder", "--input", str(base_path), "--out", str(path)])
            self.add(f"classify/{stem}", "classify-concave", ["classify", str(path), "--json"], n=size)
        else:
            out = str(self.out_dir / f"{stem}.json")
            argv = ["generate", "holder", "--input", str(base_path), "--out", out]
            self.add(f"generate-holder/{stem}", "generate-holder", argv, input=base_stem, out=out)

    def lipschitz(self, n: int, ops: tuple[str, ...]) -> None:
        from freelip import formats, polytope

        stem, path = self.exact("l", n)
        space_doc = self.plan.inputs[stem]
        if space_doc["midpoint"]:
            i, j, _ = space_doc["midpoint"]
        else:
            i, j = self.rng.sample(range(n), 2)
        p, q = space_doc["labels"][i], space_doc["labels"][j]
        space = formats.load_space(path) if {"molecule", "vector"} & set(ops) else None
        for name in ops:
            if name in ("full", "lazy"):
                argv = ["attainment", path, p, q, "--intervals", name, "--json"]
                self.add(f"attainment-{name}/{stem}", "attainment", argv, input=stem, pair=(p, q), mode=name)
                continue
            if name == "molecule":
                coeffs = _molecule(space_doc, *self.rng.sample(range(n), 2))
            else:
                coeffs = [Fraction(self.rng.randint(-4, 4)) for _ in range(n - 1)]
                if not any(coeffs):
                    coeffs[0] = Fraction(1)
            call = _free_norm_call(polytope, space, coeffs)
            self.add(f"free-norm-{name}/{stem}", "free-norm", call=call, input=stem, coeffs=coeffs,
                     molecule=name == "molecule")


def build(workload: str, seed: int, size: str, workdir: Path) -> Plan:
    """Write the workload's inputs under ``workdir`` and return its ops.

    Needs ``freelip`` importable; only its public modules are used.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    blocks, counts = BLOCKS[size][workload]
    inputs = _Inputs(random.Random(f"{workload}:{seed}"), workdir)
    plan = inputs.plan
    for block in range(blocks):
        for slot, entry in enumerate(_spread(counts)):
            made = len(plan.ops)
            inputs.entry(block, slot, entry)
            if plan.warmup is None and entry == next(iter(counts)):
                plan.warmup = plan.ops[made]
    plan.block_size = len(plan.ops) // blocks
    return plan


def _spread(counts: dict) -> list:
    """Each entry ``counts[e]`` times, evenly interleaved (smooth weighted
    round-robin), so every prefix holds them in about their proportions."""
    total = sum(counts.values())
    credit = dict.fromkeys(counts, 0)
    order = []
    for _ in range(total):
        for entry, weight in counts.items():
            credit[entry] += weight
        pick = max(credit, key=credit.get)
        credit[pick] -= total
        order.append(pick)
    return order


def _molecule(space_doc: dict, a: int, b: int) -> list[Fraction]:
    """Coefficients of (j(x_a) - j(x_b)) / d(a, b) over the non-base points
    (the base is point 0)."""
    inv = 1 / space_doc["matrix"][a][b]
    n = len(space_doc["labels"])
    return [Fraction((x == a) - (x == b)) * inv for x in range(1, n)]


def _free_norm_call(polytope, space, coeffs):
    # Looked up through the module at call time, so a traced run sees it.
    return lambda: polytope.free_norm(space, coeffs, with_witness=True)
