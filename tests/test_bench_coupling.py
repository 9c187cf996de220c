"""The benchmark's tracer patches package functions by name; check that every
name it lists still exists, so a rename fails here rather than as a KeyError
in `perfbench/run.py --trace 1`."""
import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    # executed from its source, so nothing is written next to it
    mod = types.ModuleType("tracing")
    mod.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


tracing = _tracing_module()


@pytest.mark.parametrize(
    "layer, path, attr, kind", tracing.FUNCTIONS, ids=[f"{p}.{a}" for _, p, a, _ in tracing.FUNCTIONS]
)
def test_traced_function_exists(layer, path, attr, kind):
    # the tracer resolves paths through sys.modules: import the module part
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            importlib.import_module(".".join(parts[:i]))
            break
        except ModuleNotFoundError:
            pass
    owner = tracing._resolve(path)
    assert attr in owner.__dict__, f"{path}.{attr}"
    assert layer in tracing.LAYERS and kind in ("span", "leaf")
