"""Every function that the benchmark's tracer wraps still exists.

bench/traced.py names each layer by module and attribute; a renamed or
deleted function is only reported there as "absent" and its layer reads
zero, so this test makes the rename fail here instead.
"""

import importlib
import importlib.util
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
