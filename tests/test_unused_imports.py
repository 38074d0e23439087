"""No module of the package imports a name it never uses.

The standard library has no linter, so the check reads each module with
``ast``: every name an import binds must appear as a ``Name`` somewhere
in the module (``x`` in ``x.y`` counts). ``__init__.py`` re-exports by
design and is skipped, as is any imported name on a line marked
``noqa``.
"""

import ast
from pathlib import Path

import pytest

import freelip

MODULES = sorted(
    p for p in Path(freelip.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"
    ]
    assert unused_imports("from a import (\n    b,  # noqa: F401\n)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
