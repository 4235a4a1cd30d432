"""Span tracing of ``zeroloci`` from the benchmark's own process.

The package is not edited.  Each traced function is replaced, in every
``zeroloci`` module that holds it under its own name (the way consumers
import it, e.g. ``homology.matrix_rank_in_degree``), by a wrapper that
records a span: name, start, end, parent span, op id.  Methods are
replaced on their class.  Spans stay in memory and are written out after
the timed pass.  A layer's self time is its spans' durations minus their
direct children's.

Counting done for a span (nnz of a degree matrix, the key of a rank cell)
runs after the span ends and is recorded as a ``trace.hook`` child of the
enclosing span, so it is not billed to any layer.  A target a later version
no longer has is reported as absent, and metrics that only it feeds are
left out instead of reading zero.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "zerolocus", "complexes", "polyalg", "homology", "gtheory")

# (layer, dotted name inside the module, span group)
TARGETS = (
    ("cli", "run", "cli.op"),
    ("cli", "parse_problem_file", "cli.parse"),
    ("cli", "Report.to_json", "cli.report"),
    ("zerolocus", "koszul_complex", "zerolocus.build"),
    ("zerolocus", "sym_cofib_invariants", "zerolocus.build"),
    ("zerolocus", "critical_locus", "zerolocus.build"),
    ("complexes", "tensor", "complexes.construct"),
    ("complexes", "cone", "complexes.construct"),
    ("complexes", "exterior_algebra", "complexes.construct"),
    ("complexes", "sym_two_term", "complexes.construct"),
    ("complexes", "dual", "complexes.construct"),
    ("complexes", "Complex.__init__", "complexes.ddcheck"),
    ("polyalg", "matrix_rank_in_degree", "polyalg.rank_cell"),
    ("polyalg", "rational_rank", "polyalg.rank"),
    ("polyalg", "PolyMatrix.degree_matrix", "polyalg.assemble"),
    ("homology", "homology_dimensions", "homology.table"),
    ("gtheory", "verify_excess", "gtheory.verify"),
    ("gtheory", "verify_sym_ga", "gtheory.verify"),
    ("gtheory", "verify_quantum_lefschetz", "gtheory.verify"),
    ("gtheory", "verify_strong_factorization", "gtheory.verify"),
    ("gtheory", "virtual_class", "gtheory.verify"),
    ("gtheory", "vpull", "gtheory.verify"),
    ("gtheory", "vpull_via_homology", "gtheory.verify"),
    ("gtheory", "kclass_via_homology", "gtheory.crosscheck"),
)
# counted, not spanned: a span per call would be billed to the d o d check it belongs to
COUNTED = (("polyalg", "PolyMatrix.__matmul__", "complexes.matmul_calls"),)

# per-layer metric -> span groups or counters it needs (any one present suffices)
METRIC_SOURCES = {
    "polyalg.rank_s": ("polyalg.rank_cell", "polyalg.rank"),
    "polyalg.rank_cells": ("polyalg.rank_cell",),
    "polyalg.rank_cells_nonempty": ("polyalg.rank_cell",),
    "polyalg.rank_cell_max_s": ("polyalg.rank_cell",),
    "polyalg.rank_full_share": ("polyalg.rank_cell",),
    "polyalg.rank_dup_ratio": ("polyalg.rank_cell",),
    "polyalg.assemble_s": ("polyalg.assemble",),
    "polyalg.assemble_entries": ("polyalg.assemble",),
    "polyalg.rank_nnz": ("polyalg.assemble",),
    "polyalg.wall_share": ("polyalg.rank_cell",),
    "complexes.construct_s": ("complexes.construct",),
    "complexes.ddcheck_s": ("complexes.ddcheck",),
    "complexes.matmul_calls": ("complexes.matmul_calls",),
    "zerolocus.build_s": ("zerolocus.build",),
    "homology.table_s": ("homology.table",),
    "homology.tables": ("homology.table",),
    "homology.table_cells": ("homology.table",),
    "homology.dup_tables": ("homology.table",),
    "gtheory.verify_s": ("gtheory.verify",),
    "gtheory.crosscheck_s": ("gtheory.crosscheck",),
    "cli.parse_s": ("cli.parse",),
    "cli.report_s": ("cli.report",),
    **{f"{layer}.errors": () for layer in LAYERS},
}


def _resolve(module, dotted: str):
    """(owner, attribute, object) or None when the module no longer has the name."""
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def replace_everywhere(modules, original, replacement) -> None:
    """Rebind every module-level name that holds ``original``."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def package_modules():
    return [importlib.import_module("zeroloci")] + [
        importlib.import_module(f"zeroloci.{layer}") for layer in LAYERS]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        # span: [name, group, layer, start, end, parent, op, error type or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.counts: Counter = Counter()
        self.cells: list[tuple] = []        # (inclusive s, rows, cols, rank, duplicate)
        self.tables: list[tuple] = []       # (cells, duplicate)
        self.assembled: list[tuple] = []    # (rows * cols, nnz)
        self._matrix_keys: dict[int, tuple] = {}
        self._seen_cells: set = set()
        self._seen_tables: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        by_layer = {m.__name__.rpartition(".")[2]: m for m in modules[1:]}
        hooks = {
            "polyalg.rank_cell": self._rank_hook,
            "polyalg.assemble": self._assemble_hook,
            "homology.table": self._table_hook,
        }
        for layer, dotted, group in TARGETS:
            found = _resolve(by_layer[layer], dotted)
            if found is None:
                self.absent.append(f"{layer}.{dotted}")
                continue
            owner, attr, fn = found
            wrapped = self._wrap(f"{layer}.{dotted}", group, layer, fn, hooks.get(group))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                replace_everywhere(modules, fn, wrapped)
            self.present.add(group)
        for layer, dotted, counter in COUNTED:
            found = _resolve(by_layer[layer], dotted)
            if found is None:
                self.absent.append(f"{layer}.{dotted}")
                continue
            owner, attr, fn = found
            setattr(owner, attr, self._count(counter, fn))
            self.present.add(counter)

    def _count(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, group, layer, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, group, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[7] = type(exc).__name__
                raise
            finally:
                span[4] = perf_counter()
                stack.pop()
            if hook is not None:
                started = perf_counter()
                hook(args, result, span[4] - span[3])
                spans.append(["trace.hook", "trace.hook", "trace", started, perf_counter(),
                              stack[-1] if stack else -1, self.op, None])
            return result
        return wrapper

    # -- counting hooks ----------------------------------------------------

    def _matrix_key(self, m):
        """Entries, ring and twists shifted so the smallest twist is 0."""
        cached = self._matrix_keys.get(id(m))
        if cached is not None and cached[0] is m:
            return cached[1], cached[2]
        twists = m.source.twists + m.target.twists
        base = min(twists) if twists else 0
        key = (m.source.ring,
               tuple(a - base for a in m.source.twists),
               tuple(a - base for a in m.target.twists),
               tuple(tuple(tuple(sorted(p.terms.items())) for p in row) for row in m.entries))
        self._matrix_keys[id(m)] = (m, key, base)
        return key, base

    def _rank_hook(self, args, rank, seconds):
        m, d = args[0], args[1]
        key, base = self._matrix_key(m)
        cell = (key, d - base)
        duplicate = cell in self._seen_cells
        self._seen_cells.add(cell)
        self.cells.append((seconds, m.target.graded_dim(d), m.source.graded_dim(d),
                           rank, duplicate))

    def _assemble_hook(self, args, result, seconds):
        rows, nrows, ncols = result
        self.assembled.append((nrows * ncols, sum(1 for row in rows for x in row if x)))

    def _table_hook(self, args, table, seconds):
        key = (args[0].ring, table.cutoff, tuple(sorted(table.entries.items())))
        duplicate = key in self._seen_tables
        self._seen_tables.add(key)
        self.tables.append((len(args[0].support) * (table.cutoff + 1), duplicate))

    # -- results -----------------------------------------------------------

    def self_times(self) -> Counter:
        """Self seconds per span group."""
        children = [0.0] * len(self.spans)
        for _, _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: Counter = Counter()
        for k, (_, group, _, start, end, _, _, _) in enumerate(self.spans):
            out[group] += end - start - children[k]
        return out

    def metrics(self, wall_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics and the list of metrics left out because their source is absent."""
        own = self.self_times()
        hook_s = own["trace.hook"]
        cells = self.cells
        nonempty = [c for c in cells if c[1] and c[2]]
        rank_s = own["polyalg.rank_cell"] + own["polyalg.rank"]
        errors = Counter(span[2] for span in self.spans if span[7])
        values = {
            "polyalg.rank_s": rank_s,
            "polyalg.rank_cells": len(cells),
            "polyalg.rank_cells_nonempty": len(nonempty),
            "polyalg.rank_cell_max_s": max((c[0] for c in cells), default=0.0),
            "polyalg.rank_full_share": (sum(1 for c in nonempty if c[3] == min(c[1], c[2]))
                                        / len(nonempty) if nonempty else 0.0),
            "polyalg.rank_dup_ratio": (sum(1 for c in cells if c[4]) / len(cells)
                                       if cells else 0.0),
            "polyalg.assemble_s": own["polyalg.assemble"],
            "polyalg.assemble_entries": sum(a for a, _ in self.assembled),
            "polyalg.rank_nnz": sum(n for _, n in self.assembled),
            "polyalg.wall_share": ((rank_s + own["polyalg.assemble"]) / (wall_s - hook_s)
                                   if wall_s > hook_s else 0.0),
            "complexes.construct_s": own["complexes.construct"],
            "complexes.ddcheck_s": own["complexes.ddcheck"],
            "complexes.matmul_calls": self.counts["complexes.matmul_calls"],
            "zerolocus.build_s": own["zerolocus.build"],
            "homology.table_s": own["homology.table"],
            "homology.tables": len(self.tables),
            "homology.table_cells": sum(n for n, _ in self.tables),
            "homology.dup_tables": sum(1 for _, dup in self.tables if dup),
            "gtheory.verify_s": own["gtheory.verify"],
            "gtheory.crosscheck_s": sum(span[4] - span[3] for span in self.spans
                                        if span[1] == "gtheory.crosscheck"),
            "cli.parse_s": own["cli.parse"],
            "cli.report_s": own["cli.report"],
            **{f"{layer}.errors": errors[layer] for layer in LAYERS},
            "trace.hook_s": hook_s,
        }
        dropped = [name for name, sources in METRIC_SOURCES.items()
                   if sources and not any(s in self.present for s in sources)]
        for name in dropped:
            del values[name]
        return values, dropped

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for k, (name, _, _, start, end, parent, op, err) in enumerate(self.spans):
                out.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "error": err}) + "\n")
