"""Record the payload digest of every op for the reference seed.

    python3 perfbench/record_reference.py

Runs each workload's op cycle once at seed 0 and full size, and writes
perfbench/reference.json. It refuses to record while any check fails
other than a mismatch with the reference it replaces. Ops whose output
does not depend on the seed (the diagnose ops) are stored apart and are
checked on every seed. The known failures (workloads.KNOWN_FAILURES) get
no digest: a fixed op must pass its check, whatever its payload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from worker import REFERENCE, pinned_env
from workloads import KNOWN_FAILURES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def main() -> int:
    doc = {"seed": SEED, "digests": {}, "seed_free": {}}
    for workload in WORKLOADS:
        workdir = ROOT / ".perfbench_out" / f"reference-{workload}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", "0", "--workdir", str(workdir), "--one-cycle"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                              env=pinned_env())
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        real = [p for p in result["problems"] if not p.endswith("differs from the reference")]
        if real:
            print(f"{workload}: checks fail, not recording:", *real, sep="\n  ", file=sys.stderr)
            return 1
        recorded = json.loads((workdir / "digests.json").read_text(encoding="utf-8"))
        for key, digest in recorded["digests"].items():
            if key in KNOWN_FAILURES:
                continue  # judged by its check alone, so that a fix does not fail
            if key in recorded["seed_free"]:
                doc["seed_free"][key] = digest
            else:
                doc["digests"].setdefault(workload, {})[key] = digest
        print(f"{workload}: {len(recorded['digests'])} ops, {result['known_failed']} known failures")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
