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


def test_tracer_traces_lp_ops_and_restores_every_name(tracer, tmp_path):
    from freelip import cli, polytope, validate

    matrix = [[0, 2, 1, 3], [2, 0, 1, 2], [1, 1, 0, 2], [3, 2, 2, 0]]
    path = tmp_path / "sp.json"
    path.write_text(json.dumps({"labels": ["a", "b", "c", "d"], "matrix": matrix, "mode": "exact"}))
    argv = ["attainment", str(path), "a", "d", "--intervals", "full", "--json"]
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    untraced = json.loads(out.getvalue())["payload"]
    space = validate(matrix, ["a", "b", "c", "d"])
    norm = polytope.free_norm(space, [1, -1, 2])

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in tracer._targets]
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()) as out:
            code = tracer.run(0, lambda: cli.main(argv), cli_op=True)
        traced_norm = tracer.run(1, lambda: polytope.free_norm(space, [1, -1, 2]), cli_op=False)
    finally:
        tracer.uninstall()
    assert code == 0
    assert json.loads(out.getvalue())["payload"] == untraced
    assert traced_norm == norm
    assert {"cli.main", "lipfun.attainment", "polytope.free_norm"} <= {s[0] for s in tracer.spans}
    # free_norm and lazy attainment solve on simplex._ball_phase_two and no
    # longer call the solve_free that the tracer counts, so this reads 0,
    # as simplex.solves does; the tracer reads counters in ROADMAP item 15
    assert tracer.layer_metrics(2, 0.0, 0.0)["simplex.free_solves"]["value"] == 0
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
