"""The benchmark's tracer wraps package functions by name: every function
that perfbench/tracing.py lists must exist, so that a rename fails here
and not only in a traced benchmark run."""

import ast
import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def traced_layers():
    """LAYERS of perfbench/tracing.py, read from its source."""
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no LAYERS")


@pytest.mark.parametrize("layer,module,fn", [
    (layer, module, fn) for layer, (module, fns) in traced_layers().items()
    for fn in fns])
def test_traced_function_exists(layer, module, fn):
    assert callable(getattr(importlib.import_module(module), fn, None)), \
        f"{layer}: {module}.{fn} is traced by the benchmark but missing"
