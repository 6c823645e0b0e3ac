"""The names the benchmark's tracer wraps, the arguments it reads, and every
exported name, exist.

bench/tracer.py patches functions by name and reads some of their arguments
by name, so deleting or renaming either breaks the benchmark without failing
any other test. The tracer is parsed here, not imported or run.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import berndenom

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_table(name: str) -> ast.expr:
    """The expression assigned to name at the top level of the tracer."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"no {name} table in {TRACER}")


def traced_names() -> dict[str, tuple[str, ...]]:
    return ast.literal_eval(tracer_table("TRACED"))


def field_arguments() -> dict[str, set[str]]:
    """For each FIELDS entry, the argument names its lambda reads as a["name"]."""
    table = tracer_table("FIELDS")
    read = {}
    for key, fields in zip(table.keys, table.values):
        args = fields.args.args[0].arg
        read[ast.literal_eval(key)] = {
            node.slice.value
            for node in ast.walk(fields.body)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == args
        }
    return read


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


FIELD_ARGUMENTS = field_arguments()


@pytest.mark.parametrize("name", sorted(FIELD_ARGUMENTS))
def test_every_field_argument_is_a_parameter(name):
    module, _, function = name.partition(".")
    fn = getattr(importlib.import_module(f"berndenom.{module}"), function)
    missing = FIELD_ARGUMENTS[name] - set(inspect.signature(fn).parameters)
    assert not missing, f"bench/tracer.py reads {sorted(missing)} of {name}, which it does not take"


@pytest.mark.parametrize("module", [berndenom, *submodules()], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    if module is berndenom:  # the package re-exports nothing: each name comes from its module
        assert not hasattr(module, "__all__") and not hasattr(module, "__getattr__")
    else:
        assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []

