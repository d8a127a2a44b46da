"""The benchmark's traced run wraps spinberry functions by name; each name
it lists must still exist where it looks it up."""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracing.py")


def _traced():
    with open(TRACING) as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in _traced().items() for name in names])
def test_traced_name_exists(module, name):
    assert callable(getattr(importlib.import_module(f"spinberry.{module}"),
                            name))
