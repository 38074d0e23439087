"""No module of the package, the tests or the demos imports a name it
never uses, and every annotation in the package and the test support
module names something that exists.

The standard library has no linter, so the check reads each module with
``ast``: every name an import binds must appear as a ``Name`` somewhere
in the module (``x`` in ``x.y`` counts). ``__init__.py`` re-exports by
design and is skipped, as is any imported name on a line marked
``noqa``. Annotations stay strings under ``from __future__ import
annotations``, so an undefined name in one shows only when
``typing.get_type_hints`` resolves it.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import freelip

MODULES = sorted(
    p for p in Path(freelip.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]


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


@pytest.mark.parametrize("path", SCRIPTS, ids=[f"{p.parent.name}/{p.name}" for p in SCRIPTS])
def test_every_test_and_demo_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def annotated(module) -> list:
    """Every function, class and method that the module defines."""
    out = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append(obj)
        elif inspect.isclass(obj):
            out.append(obj)
            for attr in vars(obj).values():
                # unwrap staticmethod, classmethod, property and cached_property
                for key in ("__func__", "fget", "func"):
                    attr = getattr(attr, key, attr)
                if inspect.isfunction(attr):
                    out.append(attr)
    return out


HINTED = ["freelip", *(f"freelip.{p.stem}" for p in MODULES), "support"]


@pytest.mark.parametrize("name", HINTED)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    unresolved = []
    for obj in annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__qualname__}: {exc}")
    assert unresolved == []
