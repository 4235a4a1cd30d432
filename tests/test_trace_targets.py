"""The benchmark's span tracer finds every function it names in the package.

`perfbench/tracing.py` reports a target the package no longer has as absent
and leaves out the per-layer metrics only it feeds, so a renamed or removed
target would shrink the benchmark's metric set instead of failing a test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("layer, dotted", [(layer, dotted) for layer, dotted, _
                                           in tracing.TARGETS + tracing.COUNTED])
def test_trace_target_resolves(layer, dotted):
    module = importlib.import_module(f"zeroloci.{layer}")
    assert tracing._resolve(module, dotted) is not None, f"zeroloci.{layer} has no {dotted}"
