"""The benchmark's tracer wraps replhom functions by name: every one it
names must exist, or a rename would silently drop a traced span or
counter instead of failing here."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing()
    targets = [(layer, target) for layer in tracing.LAYERS
               for target in tracing.SPANS[layer]]
    targets += list(tracing.COUNTERS.values())
    assert len(targets) > 80
    for layer, target in targets:
        owner, attr, original = tracing._resolve(layer, target)
        assert callable(getattr(owner, attr)), (layer, target)
