"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/prove.py --seeds 10 [--workloads a b] [--out perfbench/baseline.json]

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json, and the same for the unscaled times
(see run.py). A metric is steady when its spread is at most a third of
its bound. Runs go one after another, never in
parallel, so they do not disturb each other's timings. With ``--out`` it
also records one traced run per workload and writes the whole summary as
the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fail_line = next(line for line in lines if line.strip().startswith("fail_ratio"))
    result["fail_ratio"] = float(fail_line.split()[1])
    if not trace:
        unscaled = next(line for line in lines if line.strip().startswith("unscaled "))
        result["unscaled"] = json.loads(unscaled.strip().removeprefix("unscaled "))
    result["wall_s"] = wall
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "fail_ratio": [r["fail_ratio"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "end_to_end": {},
            "end_to_end_unscaled": {},
        }
        print(f"{workload}: attempted {entry['attempted']} failed {entry['failed']} wall {entry['wall_s']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            ok = s["spread"] <= metric["bound"] / 3
            steady &= ok
            line = (f"  {name:18s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                    f"  spread {s['spread']:.4f}  bound {metric['bound']}  {'ok' if ok else 'WIDE'}")
            if name in runs[0]["unscaled"]:
                raw = summary([r["unscaled"][name] for r in runs])
                entry["end_to_end_unscaled"][name] = raw
                line += f"  (unscaled: median {raw['median']:.6g} spread {raw['spread']:.4f})"
            print(line)
        if args.out:
            traced = run(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print("steady" if steady else "some spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
