"""Every traced per-layer metric of BENCHMARK.json names a definition of the package.

perfbench's tracer keys a function's span as "<layer>.<function>.<field>",
and a traced benchmark run raises KeyError on a name that no longer
resolves.  It also wraps every module of its LAYERS, and fails on one that
is gone.  These tests read BENCHMARK.json and perfbench/tracing.py only;
they run no benchmark.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

FIELDS = ("calls", "s", "self_s", "raised")  # the fields of one traced span
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED = sorted({name.rsplit(".", 1)[0] for name in (m["name"] for m in SPEC["per_layer"])
                 if name.rsplit(".", 1)[1] in FIELDS and not name.startswith("numpy.")})
# the tracer's LAYERS tuple, read from its source without importing it
LAYERS = next(ast.literal_eval(node.value)
              for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")


def test_benchmark_traces_package_functions():
    assert "dynamics.conical_check" in TRACED and "symmspace.make_diamond" in TRACED


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_defined(name):
    layer, _, attr = name.partition(".")
    module = importlib.import_module(f"anosovcheck.{layer}")
    owner, _, member = attr.rpartition(".")
    if owner:  # a traced property, such as FaceType.blocks
        assert isinstance(vars(getattr(module, owner)).get(member), property), name
        return
    fn = vars(module).get(attr)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, f"{name} is imported, not defined, there"


@pytest.mark.parametrize("layer", LAYERS)
def test_traced_layer_is_a_module(layer):
    importlib.import_module(f"anosovcheck.{layer}")
