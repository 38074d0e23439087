"""freelip benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload classify-exact --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``setup_s`` is the wall time from spawning a workload process until its
first timed op: interpreter start, ``import freelip``, building and
writing the seeded inputs, and one untimed warm-up op. Each untraced run
spawns SETUP_SPAWNS processes and reports the median; the last of them
goes on to the measured loop.

The host the baseline was measured on changes speed by 20% and more
from one stretch of seconds to the next, on the same inputs. So the
worker times a fixed integer loop (worker.calibrate) after every op, and
the timed metrics are scaled to a reference host speed: each op's
latency is multiplied by REFERENCE_CALIBRATION_S over the median
calibration of the SPEED_WINDOW ops around it, and each set-up time by
the same ratio, with the calibration taken just before the spawn. On a
host running at the reference speed the scaled and the raw times agree;
the report prints both. The throughput is taken per block (a fixed mix
of ops, see workloads.BLOCKS): ``throughput_ops_s`` is the ops of one
block divided by the median scaled time of a whole block.

``failed`` counts ops whose output is wrong: an unexpected exit code, a
payload digest that differs between repeats, between traced and
untraced runs or from the recorded reference, or a failed check
(checks.py). Ops that fail for the known defects listed in
workloads.KNOWN_FAILURES count as known failures, shown in the report's
``fail_ratio`` line next to ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import calibrate, pinned_env
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SPAWNS = 7
TIME_LIMIT_S = 170.0
# worker.calibrate() took this long on the host the baseline was measured
# on (2 vCPUs of an Intel Xeon at 2.1 GHz, CPython 3.11.7).
REFERENCE_CALIBRATION_S = 0.005
SPEED_WINDOW = 9

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


class Worker:
    """A spawned workload process whose stdout is read line by line."""

    def __init__(self, args, workdir: Path, setup_only: bool, deadline: float):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
            "--workdir", str(workdir),
        ]
        if setup_only:
            cmd.append("--setup-only")
        self.deadline = deadline
        self.buf = b""
        self.speed = REFERENCE_CALIBRATION_S / statistics.median(calibrate() for _ in range(3))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, cwd=ROOT, env=pinned_env()
        )

    def line(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("workload process timed out")
            if select.select([fd], [], [], remaining)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise BenchError(f"workload process ended early (exit {self.proc.wait()})")
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode("utf-8")

    def setup_seconds(self) -> tuple[float, float]:
        """Raw and speed-scaled seconds from the spawn to READY."""
        if self.line() != "READY":
            raise BenchError("workload process did not report READY")
        raw = time.perf_counter() - self.started
        return raw, raw * self.speed

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def measure(args) -> tuple[list[float], dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawns = 1 if args.trace else SETUP_SPAWNS
    setups = []
    try:
        for k in range(spawns):
            worker = Worker(args, workdir, setup_only=k < spawns - 1, deadline=deadline)
            try:
                setups.append(worker.setup_seconds())
                if k == spawns - 1:
                    result = json.loads(worker.line())
            finally:
                worker.close()
            if worker.proc.returncode != 0:
                raise BenchError(f"workload process exited {worker.proc.returncode}")
    finally:
        shutil.rmtree(workdir / "inputs", ignore_errors=True)
        shutil.rmtree(workdir / "out", ignore_errors=True)
    return setups, result


def scaled(latencies_ms: list[float], calibration_s: list[float]) -> list[float]:
    """Latencies scaled to the reference host speed (see the module doc)."""
    half = SPEED_WINDOW // 2
    return [
        ms * REFERENCE_CALIBRATION_S / statistics.median(calibration_s[max(0, i - half) : i + half + 1])
        for i, ms in enumerate(latencies_ms)
    ]


def timed_metrics(lat: list[float], block_size: int) -> dict:
    blocks = [sum(lat[i : i + block_size]) / 1000.0 for i in range(0, len(lat) - block_size + 1, block_size)]
    if len(lat) < 2 or not blocks:
        raise BenchError("not one whole block of ops was timed; raise --seconds")
    return {
        "throughput_ops_s": block_size / statistics.median(blocks),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[-1],
    }


def end_to_end(setups: list[float], result: dict) -> dict:
    lat = scaled(result["latencies_ms"], result["calibration_s"])
    values = {
        "setup_s": statistics.median(scaled for _raw, scaled in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        **timed_metrics(lat, result["block_size"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: self-test inputs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "freelip" / "__init__.py").is_file():
        print(f"error: no freelip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, result = measure(args)
        metrics = result["layers"] if args.trace else end_to_end(setups, result)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, known = result["attempted"], result["failed"], result["known_failed"]
    lat = result["latencies_ms"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {result['elapsed_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        print(f"  {'traced op pairs':32s} {attempted // 2:14d}")
    else:
        raw = timed_metrics(lat, result["block_size"])
        raw["setup_s"] = statistics.median(r for r, _scaled in setups)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        print(f"  {'latency samples':32s} {len(lat):14d} ops ({sum(v > p90 for v in lat)} above p90)")
        print(f"  {'host speed':32s} {REFERENCE_CALIBRATION_S / statistics.median(result['calibration_s']):14.6g}"
              " of the reference")
        print("  unscaled " + json.dumps(raw, sort_keys=True))
    print(f"  {'fail_ratio':32s} {(failed + known) / attempted:14.6g} ratio "
          f"({failed} failed + {known} known failures of {attempted} ops)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
