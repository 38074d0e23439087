"""One workload process: set-up, one warm-up op, the closed loop, checks.

Started by run.py, which times set-up from the spawn to the ``READY``
line this process prints just before its first timed op. Unless it runs
with ``--setup-only``, it then prints one JSON line of raw results.

The client is a single researcher in a closed loop: it sends the next op
only after the previous answer arrived, cycling through the workload's
ops until ``--seconds`` have passed. CLI ops go through
``freelip.cli.main(argv)`` in process with stdout and stderr captured.
With ``--trace 1`` every op runs twice in a row, untraced and then
traced, so the pair gives the tracing overhead and the two payload
digests must agree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


CALIBRATION_STEPS = 60_000


def pinned_env() -> dict:
    """The environment of every workload process: a fixed hash seed, and no
    FREELIP_THREADS, so that the CLI classifies on one thread."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("FREELIP_THREADS", None)
    return env


def calibrate() -> float:
    """Seconds for a fixed loop of small-integer arithmetic.

    The host may run this process slower or faster for seconds at a time;
    this loop, timed between ops, measures how fast the host runs pure
    Python right then. It allocates nothing the garbage collector tracks,
    and no freelip code runs in it, so a change to freelip cannot move it.
    """
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


class Runner:
    """Executes ops and keeps, per op key, the first payload digest and the
    problems its check found. Outputs are checked when first timed, outside
    the timed region, and then dropped, so they do not inflate peak memory."""

    def __init__(self, cli, plan, reference: dict):
        self.cli = cli
        self.plan = plan
        self.reference = reference
        self.first_digest: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.known: dict[str, bool] = {}
        self.attainment_texts: dict[str, str] = {}  # for the lazy/full cross-check
        self.runs: list[tuple[str, float, str, bool]] = []  # key, seconds, digest, traced
        self.calibration: list[float] = []  # seconds of calibrate() after each untraced op

    def execute(self, op, tracer=None, op_id=-1):
        out, err = io.StringIO(), io.StringIO()
        cli_op = op.argv is not None
        fn = (lambda: self.cli.main(op.argv)) if cli_op else op.call
        result, rc = None, "raised"
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = tracer.run(op_id, fn, cli_op) if tracer else fn()
            rc = result if cli_op else 0
        except Exception:  # an op that raises is a failed op, not a crash
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        text = out.getvalue()
        if rc == 0 and not cli_op:
            text = checks.library_text(result)
        elif rc == 0 and op.kind == "generate-holder":
            text = Path(op.data["out"]).read_text(encoding="utf-8")
        return rc, text, err.getvalue(), seconds

    def record(self, op, rc, text, err, seconds, traced, timed=True) -> None:
        digest = checks.output_digest(rc, text, err)
        self.first_digest.setdefault(op.key, digest)
        if not timed:
            return
        self.runs.append((op.key, seconds, digest, traced))
        if op.key in self.problems:
            return
        found = checks.check(op, rc, text, err, self.plan.inputs)
        want = self.reference.get(op.key)
        if want is not None and want != digest:
            found.append("payload digest differs from the reference")
        self.problems[op.key] = found
        self.known[op.key] = checks.is_known_failure(op, rc, err)
        if op.kind == "attainment" and rc == 0:
            self.attainment_texts[op.key] = text

    def loop(self, seconds: float, tracer, max_ops: int | None) -> float:
        ops = self.plan.ops
        start = perf_counter()
        i = 0
        while (perf_counter() - start < seconds) if max_ops is None else i < max_ops:
            op = ops[i % len(ops)]
            self.record(op, *self.execute(op), traced=False)
            if tracer is None:
                self.calibration.append(calibrate())
            else:
                tracer.install()
                try:
                    outcome = self.execute(op, tracer, op_id=i)
                finally:
                    tracer.uninstall()
                self.record(op, *outcome, traced=True)
            i += 1
        return perf_counter() - start

    def verify(self) -> tuple[int, int, list[str]]:
        """Cross-check lazy against full attainment, then count failed and
        known-failed runs."""
        texts = self.attainment_texts
        for key in texts:
            lazy = key.replace("attainment-full/", "attainment-lazy/")
            if key.startswith("attainment-full/") and lazy in texts:
                found = checks.check_pair(texts[key], texts[lazy])
                self.problems[key] += found
                self.problems[lazy] += found
        report = [f"{key}: {p}" for key, found in self.problems.items() for p in found]
        failed = known = 0
        for key, _seconds, digest, traced in self.runs:
            if self.problems[key] or digest != self.first_digest[key]:
                failed += 1
                if digest != self.first_digest[key]:
                    kind = "traced" if traced else "repeated"
                    report.append(f"{key}: {kind} run changed the payload digest")
            elif self.known[key]:
                known += 1
        return failed, known, report


def load_reference(workload: str, seed: int, size: str) -> dict:
    """Reference digests that apply to this run."""
    if not REFERENCE.is_file():
        return {}
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    out = dict(doc.get("seed_free", {}))
    if seed == doc.get("seed") and size == "full":
        out.update(doc.get("digests", {}).get(workload, {}))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--one-cycle", action="store_true", help="run each op once, untimed loop")
    args = ap.parse_args(argv)
    protocol = sys.stdout

    sys.path.insert(0, str(HERE.parent / "src"))
    from freelip import cli

    workdir = Path(args.workdir)
    plan = workloads.build(args.workload, args.seed, args.size, workdir)
    runner = Runner(cli, plan, load_reference(args.workload, args.seed, args.size))
    runner.record(plan.warmup, *runner.execute(plan.warmup), traced=False, timed=False)
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    max_ops = len(plan.ops) if args.one_cycle else None
    elapsed = runner.loop(args.seconds, tracer, max_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, known, report = runner.verify()
    plain = [s for _k, s, _d, traced in runner.runs if not traced]
    seed_free = sorted({op.key for op in plan.ops if op.seed_free})
    (workdir / "digests.json").write_text(
        json.dumps({"digests": runner.first_digest, "seed_free": seed_free}, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    result = {
        "attempted": len(runner.runs),
        "failed": failed,
        "known_failed": known,
        "elapsed_s": elapsed,
        "latencies_ms": [1000.0 * s for s in plain],
        "block_size": plan.block_size,
        "calibration_s": runner.calibration,
        "peak_rss_mb": peak_rss_mb,
        "problems": report[:20],
    }
    if tracer is not None:
        traced = [s for _k, s, _d, t in runner.runs if t]
        pairs = min(len(plain), len(traced))
        overhead_ms = 1000.0 * (sum(traced[:pairs]) - sum(plain[:pairs])) / max(pairs, 1)
        overhead_ratio = sum(traced[:pairs]) / sum(plain[:pairs]) - 1.0 if pairs else 0.0
        result["layers"] = tracer.layer_metrics(len(traced), overhead_ms, overhead_ratio)
        tracer.write(workdir / "spans.jsonl")
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
