"""Spans and counters recorded from outside freelip.

The tracer replaces each public function at the name its caller looks it
up by: ``cli`` reaches ``classify``, ``polytope``, ``lipfun`` and
``formats`` through the module, while ``classify`` and ``cli`` import
``strict_middles``, ``concavity_modulus`` and friends by name, and
``validate`` is imported by name into three modules. Methods are patched
on their class. ``install`` swaps the wrappers in and ``uninstall`` puts
the originals back, so untraced ops run the program untouched.

A span is ``[name, start, end, parent, op_id]``; spans stay in memory and
are written out when the run ends. A layer's self time is its span minus
the spans of its direct children. ``FiniteMetricSpace.is_between`` is hot
(tens of thousands of calls per op), so it is counted, not spanned; its
time lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli.main"

# (metric name, unit). Times are per-op averages in ms, counts per op;
# lp_rows and lp_cols are per LP solved and the shares are ratios.
PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("formats.load_ms", "ms"),
    ("formats.digest_ms", "ms"),
    ("space.validate_ms", "ms"),
    ("space.validate_errors", "count"),
    ("space.between_calls", "count"),
    ("space.strict_middles_ms", "ms"),
    ("space.aligned_triples_ms", "ms"),
    ("space.modulus_ms", "ms"),
    ("space.holder_ms", "ms"),
    ("classify.classify_all_self_ms", "ms"),
    ("classify.classify_pair_ms", "ms"),
    ("classify.min_excess_ratio_ms", "ms"),
    ("classify.diagnostics_ms", "ms"),
    ("generators.generate_ms", "ms"),
    ("generators.refusals", "count"),
    ("simplex.solves", "count"),
    ("simplex.free_solves", "count"),
    ("simplex.solve_ms", "ms"),
    ("simplex.lp_rows", "count"),
    ("simplex.lp_cols", "count"),
    ("simplex.infeasible_share", "ratio"),
    ("polytope.is_vertex_self_ms", "ms"),
    ("polytope.free_norm_self_ms", "ms"),
    ("lipfun.attainment_self_ms", "ms"),
    ("lipfun.lp_skip_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        from freelip import classify, cli, formats, generators, lipfun, polytope, simplex, space

        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = -1
        self._validation_error = space.ValidationError
        solve_sig = inspect.signature(simplex.solve_nonneg)

        def on_solve(args, kwargs, result):
            bound = solve_sig.bind(*args, **kwargs).arguments
            self.counts["simplex.solves"] += 1
            self.counts["simplex.rows"] += len(bound.get("a_ub", ())) + len(bound.get("a_eq", ()))
            self.counts["simplex.cols"] += len(bound["c"])
            self.counts["simplex.infeasible"] += result.status == simplex.INFEASIBLE

        def on_validate_error(exc):
            if isinstance(exc, self._validation_error):
                self.counts["space.validate_errors"] += 1

        def on_refusal(exc):
            self.counts["generators.refusals"] += 1

        validate = self._span("space.validate", space.validate, on_error=on_validate_error)
        modulus = self._span("space.modulus", space.concavity_modulus)
        holder = self._span("space.holder", space.holder_transform)
        self._targets = [
            (formats, "load_space", self._span("formats.load", formats.load_space)),
            (formats, "space_digest", self._span("formats.digest", formats.space_digest)),
            (space, "validate", validate),
            (formats, "validate", validate),
            (generators, "validate", validate),
            (space.FiniteMetricSpace, "is_between", self._count("space.between_calls", space.FiniteMetricSpace.is_between)),
            (classify, "strict_middles", self._span("space.strict_middles", space.strict_middles)),
            (classify, "aligned_triples", self._span("space.aligned_triples", space.aligned_triples)),
            (classify, "concavity_modulus", modulus),
            (cli, "concavity_modulus", modulus),
            (cli, "holder_transform", holder),
            (generators, "holder_transform", holder),
            (classify, "classify_all", self._span("classify.classify_all", classify.classify_all)),
            (classify, "classify_pair", self._span("classify.classify_pair", classify.classify_pair)),
            (classify, "min_excess_ratio", self._span("classify.min_excess_ratio", classify.min_excess_ratio)),
            (classify, "sequence_diagnostics", self._span("classify.diagnostics", classify.sequence_diagnostics)),
            (classify, "strongly_exposed_verdict", self._span("classify.diagnostics", classify.strongly_exposed_verdict)),
            (generators.FamilySpec, "generate", self._span("generators.generate", generators.FamilySpec.generate, on_error=on_refusal)),
            (simplex, "solve_nonneg", self._span("simplex.solve", simplex.solve_nonneg, on_result=on_solve)),
            (simplex, "solve_free", self._count("simplex.free_solves", simplex.solve_free)),
            (polytope, "is_vertex", self._span("polytope.is_vertex", polytope.is_vertex)),
            (polytope, "free_norm", self._span("polytope.free_norm", polytope.free_norm)),
            (lipfun, "attainment_set", self._attainment(lipfun.attainment_set)),
        ]

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None, on_error=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _attainment(self, fn):
        """Span plus the LP-skip count: each candidate pair settled by LP
        costs two solves; the rest were skipped by the lazy shortcut."""
        spanned = self._span("lipfun.attainment", fn)

        def wrapper(space, *args, **kwargs):
            before = self.counts["simplex.solves"]
            result = spanned(space, *args, **kwargs)
            self.counts["lipfun.candidates"] += comb(space.n, 2) - 1
            self.counts["lipfun.lp_pairs"] += (self.counts["simplex.solves"] - before) // 2
            return result

        return wrapper

    # -- control -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, wrapper in self._targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, op_id: int, fn, cli_op: bool):
        """Run ``fn`` as op ``op_id``; a CLI op gets the root span, whose
        self time is argparse, JSON emission and other CLI glue."""
        self.op_id = op_id
        return self._span(ROOT_SPAN, fn)() if cli_op else fn()

    # -- results -------------------------------------------------------------

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, traced_ops: int, overhead_ms: float, overhead_ratio: float) -> dict:
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[idx]
        ops = max(traced_ops, 1)
        c = self.counts
        solves = c["simplex.solves"]

        def ms(table, name):
            return 1000.0 * table[name] / ops

        def share(num, den):
            return num / den if den else 0.0

        values = {
            "cli.self_ms": ms(self_time, ROOT_SPAN),
            "formats.load_ms": ms(total, "formats.load"),
            "formats.digest_ms": ms(total, "formats.digest"),
            "space.validate_ms": ms(total, "space.validate"),
            "space.validate_errors": c["space.validate_errors"] / ops,
            "space.between_calls": c["space.between_calls"] / ops,
            "space.strict_middles_ms": ms(total, "space.strict_middles"),
            "space.aligned_triples_ms": ms(total, "space.aligned_triples"),
            "space.modulus_ms": ms(total, "space.modulus"),
            "space.holder_ms": ms(total, "space.holder"),
            "classify.classify_all_self_ms": ms(self_time, "classify.classify_all"),
            "classify.classify_pair_ms": ms(total, "classify.classify_pair"),
            "classify.min_excess_ratio_ms": ms(total, "classify.min_excess_ratio"),
            "classify.diagnostics_ms": ms(total, "classify.diagnostics"),
            "generators.generate_ms": ms(total, "generators.generate"),
            "generators.refusals": c["generators.refusals"] / ops,
            "simplex.solves": solves / ops,
            "simplex.free_solves": c["simplex.free_solves"] / ops,
            "simplex.solve_ms": ms(total, "simplex.solve"),
            "simplex.lp_rows": share(c["simplex.rows"], solves),
            "simplex.lp_cols": share(c["simplex.cols"], solves),
            "simplex.infeasible_share": share(c["simplex.infeasible"], solves),
            "polytope.is_vertex_self_ms": ms(self_time, "polytope.is_vertex"),
            "polytope.free_norm_self_ms": ms(self_time, "polytope.free_norm"),
            "lipfun.attainment_self_ms": ms(self_time, "lipfun.attainment"),
            "lipfun.lp_skip_ratio": share(
                c["lipfun.candidates"] - c["lipfun.lp_pairs"], c["lipfun.candidates"]
            ),
            "trace.overhead_ms": overhead_ms,
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
