"""The benchmark's tracer still finds every name it patches.

perfbench/tracing.py wraps public functions at the names their callers
look them up by. If a refactor drops one of those names, installing the
tracer fails and traced benchmark runs break; this test catches that.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer():
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.tracing import Tracer

        yield Tracer()
    finally:
        sys.path.remove(str(ROOT))


def test_tracer_installs_and_traces_classify(tracer, tmp_path):
    from freelip import cli

    path = tmp_path / "sp.json"
    path.write_text(json.dumps({
        "labels": ["a", "b", "c", "d"],
        "matrix": [[0, 2, 1, 3], [2, 0, 1, 2], [1, 1, 0, 2], [3, 2, 2, 0]],
        "mode": "exact",
    }))
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = tracer.run(0, lambda: cli.main(["classify", str(path), "--json"]), cli_op=True)
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(out.getvalue())["payload"]["aligned_triples"] == [["c", "a", "b"], ["c", "a", "d"]]
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "formats.load", "space.validate", "classify.classify_all"} <= names
    metrics = tracer.layer_metrics(1, 0.0, 0.0)
    assert metrics["classify.classify_all_self_ms"]["value"] > 0
    # uninstall restored the originals
    assert cli.cls.classify_all.__module__ == "freelip.classify"
