"""The benchmark's per-layer metrics name functions that must stay where they are."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

PER_LAYER = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())["per_layer"]
# "layer.func.metric": the tracer times csirecip.<layer>.<func> under that layer's name
FUNCS = sorted({tuple(m["name"].split(".")[:2]) for m in PER_LAYER if m["name"].count(".") == 2})


def test_per_layer_names_some_functions():
    assert len(FUNCS) > 20


@pytest.mark.parametrize("layer, func", FUNCS, ids=[".".join(f) for f in FUNCS])
def test_per_layer_name_is_a_function_of_its_layer(layer, func):
    # a function folded away or moved to another module would read 0 in the benchmark
    module = importlib.import_module(f"csirecip.{layer}")
    fn = getattr(module, func, None)
    assert inspect.isfunction(fn), f"csirecip.{layer}.{func} is not a function"
    assert fn.__module__ == module.__name__
