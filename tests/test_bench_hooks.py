"""The names the benchmark's tracer wraps, and every exported name, exist.

bench/tracer.py patches functions by name, so deleting or renaming one of
them breaks the benchmark without failing any other test. The tracer is
parsed here, not imported or run.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import berndenom

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def submodules():
    return [
        importlib.import_module(f"berndenom.{info.name}")
        for info in pkgutil.iter_modules(berndenom.__path__)
        if info.name != "__main__"
    ]


@pytest.mark.parametrize("module, names", sorted(traced_names().items()))
def test_every_traced_name_is_a_function(module, names):
    home = importlib.import_module(f"berndenom.{module}")
    missing = [name for name in names if not inspect.isfunction(getattr(home, name, None))]
    assert not missing, f"bench/tracer.py traces {module}.{missing}, which are not functions"


@pytest.mark.parametrize("module", [berndenom, *submodules()], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
