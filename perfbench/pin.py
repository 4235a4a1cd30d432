"""Record the corpus_sweep reference: exit code and report sha256 of every op.

    python3 perfbench/pin.py

Run at a commit whose reports are known good; the pins are taken at the
default seed and written to ``perfbench/reference/corpus_sweep.json``.
Every other check of the workload still applies while pinning.
"""

import json
import sys
import time

from run import PINS, RUN_BUDGET_S, SRC, WORK, check_pass, problems_for, run_worker
from workloads import DEFAULT_SEED, sha256


def main() -> int:
    problems = problems_for("corpus_sweep", DEFAULT_SEED, pinned=False)
    job = {"src": str(SRC), "workdir": str(WORK / "pin"),
           "problems": [{"name": p.name, "text": p.text, "then": p.then} for p in problems]}
    result = run_worker(job, time.monotonic() + RUN_BUDGET_S)
    failures = check_pass(problems, result)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    pins = {"__seed__": DEFAULT_SEED}
    for problem, op in zip(problems, result["ops"]):
        pins[problem.name] = [op["code"], sha256(op["report"])]
    lines = [f"{json.dumps(name)}: {json.dumps(pin)}" for name, pin in sorted(pins.items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(problems)} ops to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
