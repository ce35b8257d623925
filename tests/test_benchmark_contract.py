"""The benchmark reaches into the package by name: every function that
perfbench/tracing.py wraps must exist, every call that
perfbench/workloads.py makes into the package must bind to the callee's
current signature, and every result attribute it reads must exist on the
result's class, so that a rename fails here and not only in a benchmark
run."""

import ast
import collections
import dataclasses
import importlib
import inspect
import os
import re

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def traced_layers():
    """LAYERS of perfbench/tracing.py, read from its source."""
    for node in _parse(TRACING).body:
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


def package_calls():
    """"module.name" -> [(line, positional count, keywords)] for every call
    of perfbench/workloads.py of the form <package module>.<name>(...)."""
    tree = _parse(WORKLOADS)
    modules = {}  # local name -> package module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "tweezergate":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    calls = collections.defaultdict(list)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            calls[f"{modules[node.func.value.id]}.{node.func.attr}"].append(
                (node.lineno, n_pos, keywords))
    return dict(sorted(calls.items()))


def test_workloads_call_the_package():
    assert "calibrate.four_ion_table" in package_calls()


@pytest.mark.parametrize("callee", list(package_calls()))
def test_workload_calls_bind(callee):
    module, name = callee.split(".")
    fn = getattr(importlib.import_module(f"tweezergate.{module}"), name,
                 None)
    assert callable(fn), f"workloads.py calls {callee}, which is missing"
    sig = inspect.signature(fn)
    for line, n_pos, keywords in package_calls()[callee]:
        try:
            sig.bind_partial(*[None] * n_pos, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"workloads.py:{line} calls {callee}{sig} with "
                        f"{n_pos} positional and {keywords}: {exc}")


# (module, class, attribute) of each result attribute workloads.py reads
RESULT_ATTRIBUTES = [
    ("metric", "QuantumChannel", "overlaps"),
    ("metric", "FidelityReport", "fidelity"),
    ("calibrate", "SweepPoint", "ok"),
    ("calibrate", "SweepPoint", "error"),
    ("calibrate", "SweepPoint", "report"),
    ("calibrate", "PairStudy", "pair"),
    ("calibrate", "PairStudy", "infidelity_x1e4"),
    ("calibrate", "PairStudy", "offset_hz"),
]


@pytest.mark.parametrize("module,cls,attr", RESULT_ATTRIBUTES)
def test_result_attribute_exists(module, cls, attr):
    with open(WORKLOADS) as fh:
        assert re.search(rf"\.{attr}\b", fh.read()), \
            f"workloads.py no longer reads .{attr}; drop it from the list"
    klass = getattr(importlib.import_module(f"tweezergate.{module}"), cls)
    # a dataclass field without a default is no class attribute
    names = {f.name for f in dataclasses.fields(klass)} | set(dir(klass))
    assert attr in names, \
        f"workloads.py reads {cls}.{attr}, which is missing"
