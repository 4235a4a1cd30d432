"""Command-line front end.

A problem file is a flat block format:

    [ring]
    variables = x, y
    degrees = 1, 1

    [ambient]                       # optional
    entries = x : 1, x : 1

    [section]
    entries = x*y : 2, x^2 : 2      # ": degree" optional for nonzero entries

    [task]
    kind = verify-excess            # homology | gclass | virtual-class |
                                    # verify-excess | verify-lefschetz |
                                    # verify-sym-ga | verify-strong | vpull | crit
    cutoff = 8                      # optional
    sym_max = 2                     # optional, verify-sym-ga truncation
    module = x : 1                  # optional operand entries (Koszul complex)
    kappa = 1 - t                   # optional, vpull input class
    potential = x^2*y               # crit only

Lines starting with '#' are comments; unknown blocks or keys are rejected.
Exit codes: 0 for PASS/INFO, 1 for FAIL, 2 for input errors, 3 for engine
faults (a failed internal cross-check or complex invariant).  With --json
the report is a single deterministic JSON document on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .complexes import Complex, ComplexInvariantError, unit_complex
from .gtheory import (
    CrossCheckError,
    KClass,
    kclass_of_complex,
    verify_excess,
    verify_quantum_lefschetz,
    verify_strong_factorization,
    verify_sym_ga,
    virtual_class,
    vpull,
    vpull_via_homology,
    complex_from_kclass,
)
from .homology import HilbertTable, default_cutoff, homology_dimensions
from .polyalg import GradedRing, ParseError, parse_poly
from .zerolocus import (
    PresentationError,
    ZeroLocusPresentation,
    critical_locus,
    koszul_complex,
)

__all__ = ["ProblemFile", "Report", "ProblemFileError", "run", "main"]

TASKS = (
    "homology",
    "gclass",
    "virtual-class",
    "verify-excess",
    "verify-lefschetz",
    "verify-sym-ga",
    "verify-strong",
    "vpull",
    "crit",
)

_BLOCK_KEYS = {
    "ring": {"variables", "degrees"},
    "ambient": {"entries"},
    "section": {"entries"},
    "task": {"kind", "cutoff", "sym_max", "module", "kappa", "potential"},
}


class ProblemFileError(ValueError):
    """Malformed problem file; message carries the line number."""


@dataclass
class ProblemFile:
    ring: GradedRing
    ambient: list[tuple]
    section: list[tuple]
    kind: str
    cutoff: Optional[int]
    sym_max: Optional[int]
    module_entries: Optional[list[tuple]]
    kappa: Optional[KClass]
    potential_text: Optional[str]


@dataclass
class Report:
    """Everything a run reports; the JSON and text renderings carry the same data."""

    task: str
    status: str  # PASS | FAIL | INFO
    input_sha256: str
    kclass: Optional[str] = None
    tables: dict[str, HilbertTable] = field(default_factory=dict)
    witness: Optional[dict] = None
    presentation: Optional[dict] = None
    notes: list[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    version: str = __version__

    @property
    def exit_code(self) -> int:
        return 0 if self.status in ("PASS", "INFO") else 1

    def to_json(self) -> str:
        doc: dict = {
            "task": self.task,
            "status": self.status,
            "version": self.version,
            "input_sha256": self.input_sha256,
        }
        if self.kclass is not None:
            doc["kclass"] = self.kclass
        if self.tables:
            doc["tables"] = {
                name: {"cutoff": t.cutoff, "entries": t.rows()}
                for name, t in self.tables.items()
            }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.presentation is not None:
            doc["presentation"] = self.presentation
        if self.notes:
            doc["notes"] = self.notes
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))

    def to_text(self) -> str:
        lines = [
            f"task:    {self.task}",
            f"status:  {self.status}",
            f"input:   sha256:{self.input_sha256}",
            f"version: {self.version}",
            f"elapsed: {self.elapsed_s:.3f} s",
        ]
        if self.kclass is not None:
            lines.append(f"kclass:  {self.kclass}")
        if self.presentation is not None:
            lines.append("presentation:")
            ring = self.presentation["ring"]
            lines.append(f"  ring: {ring['variables']} with degrees {ring['degrees']}")
            for label in ("ambient", "section"):
                if self.presentation.get(label):
                    lines.append(f"  {label}: " + ", ".join(self.presentation[label]))
        for name, table in self.tables.items():
            lines.append(f"table {name} (cutoff {table.cutoff}):")
            lines.extend("  " + row for row in _render_table(table))
        if self.witness is not None:
            lines.append(f"witness: {json.dumps(self.witness, sort_keys=True)}")
        for note in self.notes:
            lines.append(f"note:    {note}")
        return "\n".join(lines)


def _render_table(table: HilbertTable) -> list[str]:
    rows = table.rows()
    if not rows:
        return ["(all dimensions zero)"]
    cohs = sorted({i for i, _, _ in rows})
    degs = sorted({d for _, d, _ in rows})
    header = "i \\ d |" + "".join(f"{d:>4}" for d in degs)
    out = [header, "-" * len(header)]
    for i in cohs:
        cells = "".join(
            f"{table.dim(i, d):>4}" if table.dim(i, d) else "   ." for d in degs)
        out.append(f"{i:>5} |" + cells)
    return out


# ---------------------------------------------------------------------------
# problem file parsing
# ---------------------------------------------------------------------------


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_entries(text: str, ring: GradedRing, where: str) -> list[tuple]:
    entries = []
    for item in _split_list(text):
        poly_text, _, degree_text = item.partition(":")
        try:
            poly = parse_poly(poly_text.strip(), ring)
        except ParseError as exc:
            raise ProblemFileError(
                f"{where}: cannot parse {poly_text.strip()!r}: {exc} (column within the entry)"
            ) from exc
        if degree_text.strip():
            try:
                degree = int(degree_text.strip())
            except ValueError:
                raise ProblemFileError(f"{where}: bad degree {degree_text.strip()!r}") from None
        else:
            if poly.is_zero():
                raise ProblemFileError(f"{where}: zero entries need an explicit ': degree'")
            degree = poly.homogeneous_degree()
        entries.append((poly, degree))
    return entries


def parse_problem_file(text: str) -> ProblemFile:
    blocks: dict[str, dict[str, str]] = {}
    lines: dict[tuple[str, str], int] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _BLOCK_KEYS:
                raise ProblemFileError(f"line {lineno}: unknown block [{name}]")
            if name in blocks:
                raise ProblemFileError(f"line {lineno}: duplicate block [{name}]")
            blocks[name] = {}
            current = name
            continue
        if current is None:
            raise ProblemFileError(f"line {lineno}: content outside any block")
        key, sep, value = line.partition("=")
        if not sep:
            raise ProblemFileError(f"line {lineno}: expected 'key = value'")
        key = key.strip()
        if key not in _BLOCK_KEYS[current]:
            raise ProblemFileError(f"line {lineno}: unknown key {key!r} in block [{current}]")
        if key in blocks[current]:
            raise ProblemFileError(f"line {lineno}: duplicate key {key!r}")
        blocks[current][key] = value.strip()
        lines[(current, key)] = lineno

    def where(block: str, key: str) -> str:
        lineno = lines.get((block, key))
        return f"line {lineno}, [{block}] {key}" if lineno else f"[{block}] {key}"

    if "ring" not in blocks:
        raise ProblemFileError("missing [ring] block")
    if "task" not in blocks:
        raise ProblemFileError("missing [task] block")
    ring_block = blocks["ring"]
    if "variables" not in ring_block or "degrees" not in ring_block:
        raise ProblemFileError("[ring] needs both 'variables' and 'degrees'")
    variables = tuple(v for part in _split_list(ring_block["variables"]) for v in part.split())
    try:
        degrees = tuple(int(d) for part in _split_list(ring_block["degrees"]) for d in part.split())
        ring = GradedRing(variables, degrees)
    except ValueError as exc:
        raise ProblemFileError(f"[ring]: {exc}") from exc

    task_block = blocks["task"]
    kind = task_block.get("kind")
    if kind not in TASKS:
        raise ProblemFileError(f"[task] kind must be one of {', '.join(TASKS)}")

    ambient = _parse_entries(blocks.get("ambient", {}).get("entries", ""), ring,
                             where("ambient", "entries"))
    section = _parse_entries(blocks.get("section", {}).get("entries", ""), ring,
                             where("section", "entries"))
    if kind == "crit":
        if "section" in blocks or "ambient" in blocks:
            raise ProblemFileError("crit derives its section; drop [section]/[ambient]")
        if "potential" not in task_block:
            raise ProblemFileError("crit needs 'potential' in [task]")
    elif "section" not in blocks:
        raise ProblemFileError("missing [section] block")

    cutoff = None
    if "cutoff" in task_block:
        try:
            cutoff = int(task_block["cutoff"])
        except ValueError:
            raise ProblemFileError("[task] cutoff must be an integer") from None
        if cutoff < 0:
            raise ProblemFileError("[task] cutoff must be >= 0")
    sym_max = None
    if "sym_max" in task_block:
        try:
            sym_max = int(task_block["sym_max"])
        except ValueError:
            raise ProblemFileError("[task] sym_max must be an integer") from None
    module_entries = None
    if "module" in task_block:
        module_entries = _parse_entries(task_block["module"], ring, where("task", "module"))
    kappa = None
    if "kappa" in task_block:
        try:
            kappa = KClass.parse(task_block["kappa"])
        except ParseError as exc:
            raise ProblemFileError(f"{where('task', 'kappa')}: {exc}") from exc

    return ProblemFile(
        ring=ring,
        ambient=ambient,
        section=section,
        kind=kind,
        cutoff=cutoff,
        sym_max=sym_max,
        module_entries=module_entries,
        kappa=kappa,
        potential_text=task_block.get("potential"),
    )


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------


def _operand_complex(problem: ProblemFile, p: ZeroLocusPresentation) -> Complex:
    if problem.module_entries is None:
        return unit_complex(p.ring)
    operand = ZeroLocusPresentation(p.ring, (), tuple(problem.module_entries))
    return koszul_complex(operand)


def _presentation_echo(p: ZeroLocusPresentation) -> dict:
    return {
        "ring": {
            "variables": list(p.ring.variables),
            "degrees": list(p.ring.degrees),
        },
        "ambient": [f"{poly} : {d}" for poly, d in p.ambient],
        "section": [f"{poly} : {d}" for poly, d in p.section],
    }


def _execute(kind: str, problem: ProblemFile, p: ZeroLocusPresentation,
             report: Report) -> None:
    cutoff = problem.cutoff if problem.cutoff is not None else default_cutoff(p)
    if kind == "homology":
        table = homology_dimensions(koszul_complex(p), cutoff)
        report.status = "INFO"
        report.tables["koszul"] = table
    elif kind == "gclass":
        report.status = "INFO"
        report.kclass = str(kclass_of_complex(koszul_complex(p)))
    elif kind == "virtual-class":
        report.status = "INFO"
        report.kclass = str(virtual_class(p))
        report.notes.append("direct and homology routes agree")
    elif kind == "verify-excess":
        result = verify_excess(p, cutoff)
        report.status = "PASS" if result.passed else "FAIL"
        report.tables["restricted_pushforward"] = result.table_restricted
        report.tables["euler_twisted"] = result.table_euler
        if result.witness:
            i, d, da, db = result.witness
            report.witness = {"coh_degree": i, "internal_degree": d, "lhs": da, "rhs": db}
    elif kind == "verify-lefschetz":
        verdict = verify_quantum_lefschetz(p, _operand_complex(problem, p))
        report.status = "PASS" if verdict.passed else "FAIL"
        report.kclass = str(verdict.lhs)
        report.notes.append("free bundle: class identity holds for any section")
        if not verdict.passed:
            report.witness = {"lhs": str(verdict.lhs), "rhs": str(verdict.rhs)}
    elif kind == "verify-sym-ga":
        cmp = verify_sym_ga(p, cutoff, n_max=problem.sym_max)
        report.status = "PASS" if cmp.passed else "FAIL"
        report.tables["sym_invariants"] = cmp.table_a
        report.tables["koszul"] = cmp.table_b
        if cmp.witness:
            i, d, da, db = cmp.witness
            report.witness = {"coh_degree": i, "internal_degree": d, "lhs": da, "rhs": db}
    elif kind == "verify-strong":
        verdict = verify_strong_factorization(p)
        report.status = "PASS" if verdict.passed else "FAIL"
        report.kclass = str(verdict.lhs)
        if not verdict.passed:
            report.witness = {"lhs": str(verdict.lhs), "rhs": str(verdict.rhs)}
    elif kind == "vpull":
        kappa = problem.kappa if problem.kappa is not None else KClass.one()
        direct = vpull(p, kappa)
        representative = complex_from_kclass(p.ring, kappa)
        via_homology = vpull_via_homology(p, representative)
        if direct == via_homology:
            report.status = "PASS"
            report.kclass = str(direct)
            report.notes.append("direct and homology routes agree")
        else:
            report.status = "FAIL"
            report.kclass = str(direct)
            report.witness = {"lhs": str(direct), "rhs": str(via_homology)}
    else:
        raise ProblemFileError(f"unsupported task kind {kind!r}")


def run(path: str, cutoff: Optional[int] = None,
        then: Optional[str] = None) -> tuple[int, Report]:
    """Execute a problem file; returns (exit code, report)."""
    started = time.perf_counter()
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = hashlib.sha256(raw).hexdigest()
    problem = parse_problem_file(raw.decode("utf-8"))
    if cutoff is not None:
        problem.cutoff = cutoff

    if then is not None and problem.kind != "crit":
        raise ProblemFileError("--then only applies to the crit task")
    if then is not None and (then not in TASKS or then == "crit"):
        raise ProblemFileError(f"--then must name a non-crit task, not {then!r}")

    if problem.kind == "crit":
        try:
            potential = parse_poly(problem.potential_text, problem.ring)
        except ParseError as exc:
            raise ProblemFileError(f"[task] potential: {exc}") from exc
        p = critical_locus(potential)
        task_name = "crit" if then is None else f"crit --then {then}"
        report = Report(task=task_name, status="INFO", input_sha256=digest)
        report.presentation = _presentation_echo(p)
        if then is not None:
            _execute(then, problem, p, report)
    else:
        p = ZeroLocusPresentation(problem.ring, tuple(problem.ambient), tuple(problem.section))
        report = Report(task=problem.kind, status="INFO", input_sha256=digest)
        _execute(problem.kind, problem, p, report)

    report.elapsed_s = time.perf_counter() - started
    return report.exit_code, report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeroloci",
        description="Exact zero-locus computations and identity verifiers "
                    "over graded polynomial rings.")
    parser.add_argument("file", help="problem file (see the module docstring for the format)")
    parser.add_argument("--cutoff", type=int, default=None,
                        help="internal-degree cutoff (default: twice the sum of declared degrees)")
    parser.add_argument("--json", action="store_true", help="emit a JSON report on stdout")
    parser.add_argument("--then", default=None, metavar="TASK",
                        help="pipe a crit-generated presentation into a verifier task")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    args = parser.parse_args(argv)

    try:
        code, report = run(args.file, cutoff=args.cutoff, then=args.then)
    except (CrossCheckError, ComplexInvariantError) as exc:
        # ComplexInvariantError is a ValueError, so it must be caught first
        print(f"engine fault: {exc}", file=sys.stderr)
        return 3
    except (ProblemFileError, ParseError, PresentationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
