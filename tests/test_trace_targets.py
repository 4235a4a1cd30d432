"""The benchmark's span tracer finds every function it names in the package.

`perfbench/tracing.py` reports a target the package no longer has as absent
and leaves out the per-layer metrics only it feeds, so a renamed or removed
target would shrink the benchmark's metric set instead of failing a test.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeroloci

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


def test_tracer_records_each_table_of_any_complex():
    # one table of a Koszul complex, and one of the truncated sym-GA invariants
    # (the Koszul table of the same check is made without homology_dimensions);
    # -B: loading the tracer writes no bytecode next to it
    script = ("import importlib.util, sys\n"
              "spec = importlib.util.spec_from_file_location('perfbench_tracing', sys.argv[1])\n"
              "tracing = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(tracing)\n"
              "tracer = tracing.Tracer()\n"
              "tracer.install()\n"
              "from zeroloci import gtheory, homology, zerolocus\n"
              "from zeroloci.polyalg import GradedRing, parse_poly\n"
              "ring = GradedRing(('x', 'y'), (1, 1))\n"
              "p = zerolocus.ZeroLocusPresentation(ring, (), tuple(\n"
              "    (parse_poly(f, ring), 2) for f in ('x*y', 'x^2')))\n"
              "homology.homology_dimensions(zerolocus.koszul_complex(p), 4)\n"
              "assert gtheory.verify_sym_ga(p, 4, n_max=1).table_a is not None\n"
              "print(sum(span[1] == 'homology.table' for span in tracer.spans))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-B", "-c", script, str(TRACING)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "2"
