"""The benchmark's tracer (``perfbench/tracing.py``) times the program by
replacing names that the stage code calls at run time. A refactor that drops
or stops calling one of those names breaks only traced benchmark runs, so
these tests load the tracer read-only and check its names here.
"""

import importlib.util
from pathlib import Path

import pytest

from resflow.cli import main

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# One 512-px scene in 128-px tiles; k_min = k_max so the knee selection runs.
SMALL_RUN = ["--set", "scenes=1", "--set", "scene_px=512", "--set", "tile_px=128",
             "--set", "k=0", "--set", "k_min=6", "--set", "k_max=6",
             "--set", "distributions=6", "--set", "seed=5"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_has_its_attribute(tracing):
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _layer in tracing.TRACE_POINTS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_remove_puts_back_the_originals(tracing):
    before = [getattr(owner, attr) for owner, attr, _layer in tracing.TRACE_POINTS]
    tracer = tracing.Tracer().install()
    try:
        patched = [getattr(owner, attr) for owner, attr, _layer in tracing.TRACE_POINTS]
        assert all(p is not b for p, b in zip(patched, before))
    finally:
        tracer.remove()
    after = [getattr(owner, attr) for owner, attr, _layer in tracing.TRACE_POINTS]
    assert all(a is b for a, b in zip(after, before))


def test_every_layer_sees_calls(tracing, tmp_path):
    tracer = tracing.Tracer().install()
    cells = {}
    try:
        for command in ("synth", "partition", "train", "infer"):
            tracer.stage = command
            assert main([command, "-w", str(tmp_path / "ws"), *SMALL_RUN]) == 0, command
            cells[command] = tracer.take(command)
    finally:
        tracer.remove()
    layers = {layer for _owner, _attr, layer in tracing.TRACE_POINTS}
    assert sorted(layers - set().union(*cells.values())) == []
    # infer reaches the executor's names only; the cli's are partition and train names.
    executor_layers = {
        layer for owner, _attr, layer in tracing.TRACE_POINTS if owner.__name__ == "resflow.executor"
    }
    assert sorted(executor_layers - set(cells["infer"])) == []
