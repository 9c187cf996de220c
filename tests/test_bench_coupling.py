"""The benchmark's tracer patches package functions by name; check that every
name it lists still exists, so a rename fails here rather than as a KeyError
in `perfbench/run.py --trace 1`.  The benchmark's configs must also stay
valid inputs of the package."""
import contextlib
import importlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from pointderiv import build_test_gallery, cli, content, lipschitz
from pointderiv.cli import _parse_domain
from pointderiv.lipschitz import GalleryError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _source_module(name):
    # executed from its source, so nothing is written next to it
    path = PERFBENCH / f"{name}.py"
    mod = types.ModuleType(name)
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


tracing = _source_module("tracing")


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


def _benchmark_configs():
    saved = sys.modules.get("refs")
    sys.modules["refs"] = _source_module("refs")  # imported by the workloads
    try:
        return _source_module("workloads").CONFIGS
    finally:
        if saved is None:
            del sys.modules["refs"]
        else:
            sys.modules["refs"] = saved


CONFIGS = _benchmark_configs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_preset_galleries_fit_benchmark_domains(name):
    # every preset count, up to the most functions the domain supports
    domain = _parse_domain(CONFIGS[name]["domain"])
    count = 0
    with pytest.raises(GalleryError, match="supports only"):
        while True:
            for f in build_test_gallery(domain, count + 1):
                f.validate_for_domain(domain)
            count += 1
    assert count >= CONFIGS[name]["gallery"]["count"]


def test_second_pass_covers_and_samples_nothing(tmp_path):
    # covers and seminorm pairs depend on the domain alone, so the first pass
    # of the seven commands over the benchmark's configs draws all of them
    memos = (content._greedy_piece_upper, lipschitz._seminorm_pairs)
    for memo in memos:
        memo.cache_clear()
    misses = []
    for run in range(2):
        for name, raw in CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(raw))
            for command in cli.COMMANDS:
                argv = [command, "--config", str(path), "--out", str(tmp_path / f"{run}-{name}-{command}")]
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0, (name, command)
        misses.append([memo.cache_info().misses for memo in memos])
    # the 16 clipped pieces of the clipped config; the three lemma-check disks
    # and the unit disk of sweep
    assert misses == [[16, 4], [16, 4]]
