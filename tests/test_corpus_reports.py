"""The fixed ops of the benchmark's corpus sweep give byte-identical --json reports.

`perfbench/reference/corpus_sweep.json` pins the exit code and the sha256 of
the JSON report of every op.  The ops of the fixed corpus (names `c*`, `a*`
and `crit*`) do not depend on the seed; each runs here through `cli.run` and
`Report.to_json`, as the benchmark's worker runs it.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from zeroloci import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
PINS = json.loads((PERFBENCH / "reference" / "corpus_sweep.json").read_text())
FIXED = [problem for problem in workloads.corpus_sweep(workloads.DEFAULT_SEED, PINS)
         if not problem.name.startswith("r")]


def test_fixed_ops_cover_the_corpus():
    assert len(FIXED) == len([name for name in PINS if name[0] in "ac"]) == 141


@pytest.mark.parametrize("problem", FIXED, ids=[problem.name for problem in FIXED])
def test_fixed_op_report_matches_its_pin(tmp_path, problem):
    path = tmp_path / "problem.zlp"
    path.write_text(problem.text)
    code, report = cli.run(str(path), then=problem.then)
    assert [code, workloads.sha256(report.to_json())] == PINS[problem.name]
