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
faults (a failed internal cross-check or complex invariant, or any other
unexpected exception).  With --json the report is a single deterministic
JSON document on standard output.
"""

from __future__ import annotations

import json
import sys
import time

try:  # the builtin SHA-256: hashlib's OpenSSL backend takes about 5 ms of every import
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from hashlib import sha256

from . import __version__
from .complexes import Complex, ComplexInvariantError, exterior_algebra
from .gtheory import (
    CrossCheckError,
    KClass,
    koszul_class,
    verify_excess,
    verify_quantum_lefschetz,
    verify_strong_factorization,
    verify_sym_ga,
    virtual_class,
    vpull,
    vpull_via_homology,
    complex_from_kclass,
)
from .homology import HilbertTable, default_cutoff, koszul_table
from .polyalg import GradedFreeModule, GradedRing, ParseError, Record, parse_poly
from .zerolocus import (
    PresentationError,
    ZeroLocusPresentation,
    check_entries,
    critical_locus,
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


class ProblemFile(Record):
    __slots__ = ("ring", "ambient", "section", "kind", "cutoff", "sym_max",
                 "module_entries", "kappa", "potential_text")
    __setattr__ = object.__setattr__  # mutable: run sets the cutoff

    def __init__(self, ring: GradedRing, ambient: list[tuple], section: list[tuple], kind: str,
                 cutoff: int | None, sym_max: int | None, module_entries: list | None,
                 kappa: KClass | None, potential_text: str | None):
        self._init(ring, ambient, section, kind, cutoff, sym_max, module_entries, kappa,
                   potential_text)


class Report(Record):
    """Everything a run reports; the JSON and text renderings carry the same data."""

    __slots__ = ("task", "status", "input_sha256", "kclass", "tables", "witness", "presentation",
                 "notes", "elapsed_s", "version")  # status is PASS, FAIL or INFO
    __setattr__ = object.__setattr__  # mutable: the tasks fill it in

    def __init__(self, task: str, status: str, input_sha256: str, kclass: str | None = None,
                 tables: dict[str, HilbertTable] | None = None, witness: dict | None = None,
                 presentation: dict | None = None, notes: list[str] | None = None,
                 elapsed_s: float = 0.0, version: str = __version__):
        self._init(task, status, input_sha256, kclass, {} if tables is None else tables,
                   witness, presentation, [] if notes is None else notes, elapsed_s, version)

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
    current: str | None = None
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
    """The operand's Koszul terms without a differential: its class reads only the terms."""
    entries = check_entries(p.ring, problem.module_entries or (), "[task] module")
    return exterior_algebra(GradedFreeModule(p.ring, [d for _, d in entries]), len(entries))


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
        table = koszul_table(p, cutoff)
        report.status = "INFO"
        report.tables["koszul"] = table
    elif kind == "gclass":
        report.status = "INFO"
        report.kclass = str(koszul_class(p))
    elif kind == "virtual-class":
        report.status = "INFO"
        report.kclass = str(virtual_class(p))
        report.notes.append("direct and homology routes agree")
    elif kind == "verify-excess":
        result = verify_excess(p, cutoff)
        report.status = "PASS"
        report.tables["restricted_pushforward"] = result.table_restricted
        report.tables["euler_twisted"] = result.table_euler
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
        via_homology = vpull_via_homology(p, complex_from_kclass(p.ring, kappa))
        if direct != via_homology:
            raise CrossCheckError(
                f"vpull mismatch: direct {direct} vs homology {via_homology}")
        report.status = "PASS"
        report.kclass = str(direct)
        report.notes.append("direct and homology routes agree")
    else:
        raise ProblemFileError(f"unsupported task kind {kind!r}")


def run(path: str, cutoff: int | None = None,
        then: str | None = None) -> tuple[int, Report]:
    """Execute a problem file; returns (exit code, report)."""
    started = time.perf_counter()
    with open(path, "rb") as handle:
        raw = handle.read()
    digest = sha256(raw).hexdigest()
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


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line parses options; kept off the import path
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
    except Exception as exc:
        # any other crash is an engine bug too; exit 1 would read as FAIL
        import traceback  # only a crash needs it; kept off the import path

        traceback.print_exc()
        detail = exc.args[0] if len(exc.args) == 1 else exc
        print(f"engine fault: {detail} ({type(exc).__name__})", file=sys.stderr)
        return 3

    print(report.to_json() if args.json else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
