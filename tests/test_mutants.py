"""The mutation record against the runner's list of mutants.

``tests/mutate.py`` weakens the certificate checks and LP guards one
edit at a time; ``tests/MUTANTS.json`` records what tier-1 did to each.
Running the mutants takes minutes and is not part of tier-1; this check
only reads the list and the record.
"""

import json
import re

import mutate


def test_the_record_names_every_mutant_once_with_its_outcome():
    record = json.loads(mutate.RECORD.read_text(encoding="utf-8"))
    assert sorted(record) == sorted(m.id for m in mutate.mutants())
    for mid, outcome in record.items():
        ((kind, detail),) = outcome.items()
        assert kind in ("killed", "equivalent") and detail, mid
        if kind == "killed":
            # a test of the suite: tests/<file>.py::<function>[<parameters>]
            path, name = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(?:\[.*\])?", detail).groups()
            assert f"def {name}(" in (mutate.ROOT / path).read_text(encoding="utf-8"), mid


def test_each_target_module_has_test_files():
    for module in {module for module, *_ in mutate.TARGETS}:
        files = mutate.files_importing(module)
        assert files and all((mutate.ROOT / f).exists() for f in files), module
