"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

* Every workload runs briefly with tracing off and on. Each run must be
  correct and print exactly the metric names and units of BENCHMARK.json,
  and tracing must change no payload digest.
* The checks must catch a wrong answer: one output of each kind of op is
  tampered with and must be reported.
* In a directory holding only BENCHMARK.json and the benchmark's own
  files, run.py must exit non-zero without printing a result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import workloads
from worker import Runner

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEED = 1


def fail(msg: str) -> None:
    raise SystemExit(f"selftest FAILED: {msg}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(bench: dict) -> None:
    for workload in workloads.WORKLOADS:
        digests = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload}: result keys {sorted(last)}")
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                fail(f"{workload} trace {trace} incorrect:\n{proc.stdout}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace} metrics {sorted(got)} != {sorted(want)}")
            workdir = OUT / f"{workload}-seed{SEED}-trace{trace}-tiny"
            digests.append(json.loads((workdir / "digests.json").read_text(encoding="utf-8"))["digests"])
        common = digests[0].keys() & digests[1].keys()
        if not common:
            fail(f"{workload}: traced and untraced runs share no op")
        changed = [key for key in common if digests[0][key] != digests[1][key]]
        if changed:
            fail(f"{workload}: tracing changed the payload digest of {changed}")
        print(f"ok  {workload}: {len(common)} ops agree traced and untraced")


def tamper(kind: str, text: str) -> str:
    doc = json.loads(text)
    if kind == "free-norm":
        doc["value"] = "7/3"
        return json.dumps(doc)
    payload = doc["payload"]
    if kind in ("classify", "oracle"):
        payload["pairs"][0]["extreme"] = not payload["pairs"][0]["extreme"]
    elif kind == "attainment":
        payload["members"] = [m for m in payload["members"] if m != payload["pair"]]
    return json.dumps(doc)


def check_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from freelip import cli

    for workload in ("classify-exact", "oracle-verify", "lipschitz-lp"):
        plan = workloads.build(workload, SEED, "tiny", OUT / f"selftest-{workload}")
        runner = Runner(cli, plan, {})
        for kind in ("classify", "oracle", "attainment", "free-norm"):
            op = next((op for op in plan.ops if op.kind == kind), None)
            if op is None:
                continue
            rc, text, err, _ = runner.execute(op)
            if checks.check(op, rc, text, err, plan.inputs):
                fail(f"{op.key}: a correct output was reported wrong")
            if not checks.check(op, rc, tamper(kind, text), err, plan.inputs):
                fail(f"{op.key}: a tampered output passed its check")
            print(f"ok  {op.key}: tampered output caught")


def check_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "classify-exact", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded without the program's sources")
    print("ok  bare directory: exit", proc.returncode)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_checks()
    check_runs(bench)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
