"""The benchmark's tracer wraps inhand functions by name; every name must exist.

``perfbench/tracing.py`` reports a target it cannot find as unwrapped and
its spans silently go missing from the per-layer metrics, so a rename or
deletion in ``inhand`` has to show up here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_every_target_resolves(layer):
    module = importlib.import_module(f"inhand.{layer}")
    missing = [name for name in TARGETS[layer] if not callable(getattr(module, name, None))]
    assert missing == []
