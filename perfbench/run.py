"""Benchmark of zeroloci: time to verdict on four workloads, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.WHY`` for why each is here): ``koszul_table``,
``excess_selfint``, ``class_identities``, ``corpus_sweep``.

Load is a closed loop with one client: each timed pass runs in a fresh
Python process that imports ``zeroloci`` from this checkout's ``src``,
writes the generated problem files, then sends every problem once through
``cli.run`` and ``Report.to_json``, the next only after the last verdict.
After one untimed warm-up pass, timed passes repeat while the next one
still fits in ``--seconds`` (at least one).
Every report is checked against a reference that does not use the package's
rank layer; an op fails on a wrong exit code, a failed check or a crash.

With ``--trace 0`` the result carries the end-to-end metrics: ``wall_s``
(median pass time, set-up excluded), ``op_s.p50`` and ``op_s.p90`` (time to
verdict per problem over all passes; the sample count is in the context
line) and ``setup_s`` (median over at least fifteen fresh processes of the
``zeroloci`` import plus writing the problem files).  With ``--trace 1`` one
untraced and one traced pass run, and the result carries the per-layer
metrics of ``tracing.py`` plus ``trace.overhead_s``, traced minus untraced
``wall_s``.  Spans are written to ``perfbench/_work/<workload>-<seed>/``.

The last line of standard output is the JSON result; the line before it is
the run's context (seed, nproc, Python, git SHA, op counts, why).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WHY, WORKLOADS, corpus_sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
PINS = HERE / "reference" / "corpus_sweep.json"
SETUP_SAMPLES = 15
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def problems_for(workload: str, seed: int, pinned: bool = True):
    if workload == "corpus_sweep":
        pins = json.loads(PINS.read_text()) if pinned else {}
        return corpus_sweep(seed, pins)
    return WORKLOADS[workload](seed)


def run_worker(job: dict, deadline: float) -> dict:
    """One fresh process; raises BenchError if it fails or outlives the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT,
                              # fixed string hashing: the same dict layouts on every pass
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported zeroloci from {result['module']}, not from {SRC}")
    return result


def check_pass(problems, result) -> list[str]:
    """One line per failed op."""
    failures = []
    for problem, op in zip(problems, result["ops"]):
        reason = "crashed" if op["code"] is None else problem.check(op["code"], op["report"])
        if reason is not None:
            failures.append(f"{problem.name}: {reason}" + (f" ({op['error']})" if op["error"] else ""))
    return failures


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            inject_wrong_rank: bool = False) -> dict:
    """Run the workload; returns the result document plus a ``context`` entry."""
    if not (SRC / "zeroloci" / "__init__.py").is_file():
        raise BenchError(f"no zeroloci sources under {SRC}")
    deadline = time.monotonic() + RUN_BUDGET_S
    problems = problems_for(workload, seed)
    job = {"src": str(SRC), "workdir": str(WORK / f"{workload}-{seed}"),
           "inject_wrong_rank": inject_wrong_rank,
           "problems": [{"name": p.name, "text": p.text, "then": p.then} for p in problems]}
    passes, failures = [], []

    def one_pass(**extra):
        result = run_worker({**job, **extra}, deadline)
        failures.extend(check_pass(problems, result))
        passes.append(result)
        return result

    context = {"workload": workload, "why": WHY[workload], "seed": seed,
               "nproc": os.cpu_count(), "python": platform.python_version(),
               "git_sha": git_sha(), "ops_per_pass": len(problems)}
    if trace:
        plain = one_pass()
        traced = one_pass(trace=True)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        context.update(untraced_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"],
                       absent=traced["absent"], dropped_metrics=traced["dropped"],
                       spans=traced["spans"])
    else:
        one_pass()  # warm-up, checked but not timed: compiles bytecode, fills the OS caches
        started = time.monotonic()
        while True:
            t0 = time.monotonic()
            one_pass()
            if time.monotonic() - started + (time.monotonic() - t0) > seconds:
                break
        timed = passes[1:]
        setups = [p["setup_s"] for p in timed]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker({**job, "setup_only": True}, deadline)["setup_s"])
        op_times = [op["seconds"] for p in timed for op in p["ops"]]
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in timed),
            "op_s.p50": percentile(op_times, 50),
            "op_s.p90": percentile(op_times, 90),
            "setup_s": statistics.median(setups),
        }
        context.update(passes=len(timed), pass_wall_s=[round(p["wall_s"], 4) for p in timed],
                       op_samples=len(op_times),
                       op_samples_above_p90=sum(t > metrics["op_s.p90"] for t in op_times),
                       setup_samples=len(setups),
                       import_s=statistics.median(p["import_s"] for p in timed))
    attempted = sum(len(p["ops"]) for p in passes)
    context.update(ops_failed_frac=len(failures) / attempted, failures=failures[:20])
    units = {name: "s" if name.endswith("_s") or name.startswith("op_s.") else
             "share" if name.endswith(("_share", "_ratio")) else "count" for name in metrics}
    return {
        "context": context,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result["context"]["failures"]:
        print(f"failed op: {line}", file=sys.stderr)
    print(json.dumps({"context": result.pop("context")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
