"""One timed pass in a fresh process: set up, then run every problem once.

Reads a JSON job on standard input and writes one JSON result on standard
output.  Set-up is the import of ``zeroloci`` (from the checkout's ``src``)
plus writing the problem files; the pass then sends the problems one at a
time through ``cli.run`` and ``Report.to_json``, the next only when the last
verdict is back.  Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def inject_wrong_rank() -> None:
    """Make the first rank cell of the pass with rank >= 1 report one less."""
    from tracing import package_modules, replace_everywhere
    from zeroloci import polyalg

    original = polyalg.matrix_rank_in_degree
    state = {"done": False}

    def wrong(m, d):
        rank = original(m, d)
        if rank and not state["done"]:
            state["done"] = True
            return rank - 1
        return rank

    replace_everywhere(package_modules(), original, wrong)


def main() -> int:
    job = json.load(sys.stdin)
    started = time.perf_counter()
    sys.path.insert(0, job["src"])
    from zeroloci import cli
    imported = time.perf_counter()
    os.makedirs(job["workdir"], exist_ok=True)
    paths = []
    for k, problem in enumerate(job["problems"]):
        path = os.path.join(job["workdir"], f"{k:03d}.zlp")
        with open(path, "w", encoding="utf-8") as out:
            out.write(problem["text"])
        paths.append(path)
    written = time.perf_counter()
    result = {"setup_s": written - started, "import_s": imported - started,
              "module": cli.__file__}
    if job.get("setup_only"):
        print(json.dumps(result))
        return 0

    tracer = None
    if job.get("trace"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    if job.get("inject_wrong_rank"):
        inject_wrong_rank()

    ops = []
    pass_start = time.perf_counter()
    for k, (problem, path) in enumerate(zip(job["problems"], paths)):
        if tracer is not None:
            tracer.op = k
        report, error = None, None
        t0 = time.perf_counter()
        try:
            code, rep = cli.run(path, then=problem["then"])
            report = rep.to_json()
        except (ValueError, OSError) as exc:  # what the command line reports as exit code 2
            code, error = 2, f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a crash is recorded as a failed op, never skipped
            code, error = None, "".join(traceback.format_exception_only(exc)).strip()
        ops.append({"seconds": time.perf_counter() - t0, "code": code,
                    "report": report, "error": error})
    result["wall_s"] = time.perf_counter() - pass_start
    result["ops"] = ops
    if tracer is not None:
        result["layers"], result["dropped"] = tracer.metrics(result["wall_s"])
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(job["workdir"], "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
