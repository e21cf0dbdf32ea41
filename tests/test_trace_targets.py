"""The benchmark's per-layer tracer wraps functions of opequiv by name.

A refactor that renames or removes one of them would silently zero that
layer's metrics, so every target must still resolve to a callable here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their defining module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize(
    "target",
    [t for t in _load_tracer().TARGETS if t.module != "__main__"],  # run.py's own hook
    ids=lambda t: f"{t.module}.{t.name}",
)
def test_trace_target_resolves_to_a_callable(target):
    owner = importlib.import_module(target.module)
    for part in target.name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
