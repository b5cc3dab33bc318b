"""Every function that the benchmark's tracer wraps still exists.

bench/traced.py names each layer by module and attribute; a renamed or
deleted function is only reported there as "absent" and its layer reads
zero, so this test makes the rename fail here instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "bench" / "traced.py"


def load_layers() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    prev = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = prev
    return module.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize("layer,module_name,attr", [
    (layer, module_name, attr) for layer, module_name, attr, _, _ in LAYERS
], ids=[f"{module_name}.{attr}" for _, module_name, attr, _, _ in LAYERS])
def test_traced_layer_resolves(layer, module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(obj, part), f"{layer}: {module_name}.{attr} is gone"
        obj = getattr(obj, part)
    assert callable(obj)


def test_layer_table_is_not_empty():
    assert LAYERS


def _positional_args():
    for layer, module_name, attr, rows_arg, path_arg in LAYERS:
        for kind, index in (("rows", rows_arg), ("bytes", path_arg)):
            if index is not None:
                yield layer, module_name, attr, kind, index


@pytest.mark.parametrize(
    "layer,module_name,attr,kind,index", list(_positional_args()),
    ids=[f"{m}.{a}-{k}" for _, m, a, k, _ in _positional_args()])
def test_counted_argument_is_positional(layer, module_name, attr, kind,
                                        index):
    # the tracer reads rows or bytes from args[index]; a parameter that
    # moved would silently count the wrong argument
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    params = list(inspect.signature(obj).parameters.values())
    assert index < len(params), f"{layer}: {attr} has no argument {index}"
    assert params[index].kind in (inspect.Parameter.POSITIONAL_ONLY,
                                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
