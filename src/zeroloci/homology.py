"""Degreewise homology via exact linear algebra.

Homology dimensions are computed cell by cell: for each cohomological
degree i and internal degree d, two ranks over Q determine
dim H^i(C)_d = dim(C^i)_d - rank(d^i)_d - rank(d^{i-1})_d.  There is no
global normal form; cells are independent and filled in a fixed order.

A rank cell below MODULAR_MIN_ENTRIES entries (rows x columns) is reduced
exactly over Q.  A larger cell takes its rank mod a prime, which is a lower
bound on the rank over Q, and keeps it only when a neighbour certifies it:
d o d = 0 holds exactly, so rank(d^i)_d <= dim(C^i)_d - rank(d^{i-1})_d
and rank(d^i)_d <= dim(C^{i+1})_d - rank(d^{i+1})_d, where any lower bound
may stand in for a neighbour's rank.  A modular rank equal to one of these
upper bounds is the rank over Q; every other cell is reduced exactly.

Agreement of two tables up to a cutoff is this package's certificate of
quasi-isomorphism; it is a statement about dimensions only, and the
regularity check is likewise only conclusive up to its cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import Complex, WorkLimitError
from .polyalg import RingMismatch, matrix_rank_in_degree, modular_rank
from .zerolocus import ZeroLocusPresentation, koszul_complex

__all__ = [
    "HilbertTable",
    "WorkLimitError",
    "MAX_RANK_CELLS",
    "MAX_TABLE_CELLS",
    "MAX_CELL_ENTRIES",
    "DimComparison",
    "RegularityVerdict",
    "homology_dimensions",
    "same_homology_dims",
    "is_regular_up_to",
    "default_cutoff",
    "euler_characteristics_match",
]


# measured per cell on the benchmark's Koszul complexes (Python 3.11): the two
# routes break even at 1,000-2,000 entries, the modular one is 1.5-4x faster
# at 2,500-3,400 entries and 10-40x faster above 30,000
MODULAR_MIN_ENTRIES = 2000
# one table may need at most this many rank cells (differentials x degrees)
MAX_RANK_CELLS = 10000
# and at most this many table cells (terms x degrees), which also bounds the
# window of a complex with no differential.  Twice MAX_RANK_CELLS, so a
# Koszul table (r + 1 terms, r differentials) the rank-cell limit admits is
# never refused here.  The largest counts met are 63 in the tests and 44 in
# the benchmark workloads; the zero section on Q[x, y] at cutoff 9999
# (20000 cells) takes 0.3 s (Python 3.11, 2 cores)
MAX_TABLE_CELLS = 20000
# and its largest rank cell at most this many entries (rows x columns), an
# 8 MB int64 array for the modular kernel.  The largest cells met are 420 x 420
# in the tests, 286 x 495 in the benchmark workloads and 858 x 495 in the
# ladder's Koszul table at cutoff 12; at cutoff 13 (1092 x 660) that table
# takes 1.2 s (Python 3.11, 2 cores)
MAX_CELL_ENTRIES = 1000000


@dataclass(frozen=True)
class HilbertTable:
    """dim H^i(C)_d for min(0, lowest twist) <= d <= cutoff; absent entries are zero.

    The ring is positively graded, so no term has a nonzero piece below its
    lowest twist and the table misses no homology under the cutoff.
    """

    cutoff: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    def rows(self) -> list[tuple[int, int, int]]:
        """Sorted (i, d, dim) triples with nonzero dimension."""
        return sorted((i, d, n) for (i, d), n in self.entries.items())

    def cohomological_degrees(self) -> list[int]:
        return sorted({i for i, _ in self.entries})


@dataclass(frozen=True)
class DimComparison:
    """Result of comparing two tables; `witness` is the first (i, d, dim_a, dim_b) mismatch."""

    passed: bool
    witness: Optional[tuple[int, int, int, int]]
    table_a: HilbertTable
    table_b: HilbertTable


@dataclass(frozen=True)
class RegularityVerdict:
    """REGULAR_UP_TO_CUTOFF or NON_REGULAR with a witness (i, d, dim).

    A passing verdict is not a proof of regularity: homology may first
    appear above the cutoff.
    """

    regular_up_to_cutoff: bool
    cutoff: int
    witness: Optional[tuple[int, int, int]]

    def __str__(self):
        if self.regular_up_to_cutoff:
            return f"REGULAR_UP_TO_CUTOFF({self.cutoff})"
        return f"NON_REGULAR(witness={self.witness})"


def default_cutoff(p: ZeroLocusPresentation) -> int:
    """Heuristic default: twice the sum of all declared degrees."""
    return 2 * sum(p.all_degrees)


def _degree_window(c: Complex, cutoff: int) -> range:
    """Internal degrees from min(0, lowest twist of c) up to the cutoff."""
    lowest = min((a for m in c.terms.values() for a in m.twists), default=0)
    return range(min(0, lowest), cutoff + 1)


def _ranks(c: Complex, degrees: range) -> dict[tuple[int, int], int]:
    """Rank over Q of d^i in degree d for every differential and degree.

    Small cells are exact; large ones are modular and kept where the
    certificate of the module docstring holds, else reduced exactly.
    """
    ranks = {}
    modular = []
    for i, m in sorted(c.differentials.items()):
        for d in degrees:
            if m.target.graded_dim(d) * m.source.graded_dim(d) < MODULAR_MIN_ENTRIES:
                ranks[i, d] = matrix_rank_in_degree(m, d)
            else:
                ranks[i, d] = modular_rank(*m.degree_rows(d))
                modular.append((i, d))
    for i, d in modular:
        r = ranks[i, d]
        if (r != c.term(i).graded_dim(d) - ranks.get((i - 1, d), 0)
                and r != c.term(i + 1).graded_dim(d) - ranks.get((i + 1, d), 0)):
            ranks[i, d] = matrix_rank_in_degree(c.differentials[i], d)
    return ranks


def homology_dimensions(c: Complex, cutoff: int) -> HilbertTable:
    """Exact homology dimensions for all internal degrees <= cutoff.

    Raises WorkLimitError, before any matrix is assembled, when the table
    needs more than MAX_RANK_CELLS rank cells or MAX_TABLE_CELLS table
    cells, or its largest rank cell has more than MAX_CELL_ENTRIES entries.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    support = c.support
    if not support:
        return HilbertTable(cutoff, {})
    degrees = _degree_window(c, cutoff)
    # not len(degrees): a window of 2^63 degrees or more overflows it
    window = degrees.stop - degrees.start
    cells = len(c.differentials) * window
    if cells > MAX_RANK_CELLS:
        raise WorkLimitError(f"the table needs {cells} rank cells, more than the limit "
                             f"of {MAX_RANK_CELLS}; lower the cutoff")
    cells = len(support) * window
    if cells > MAX_TABLE_CELLS:
        raise WorkLimitError(f"the table needs {cells} table cells, more than the limit "
                             f"of {MAX_TABLE_CELLS}; lower the cutoff")
    rows, cols = max(((c.term(i + 1).graded_dim(d), c.term(i).graded_dim(d))
                      for i in c.differentials for d in degrees),
                     key=lambda shape: shape[0] * shape[1], default=(0, 0))
    if rows * cols > MAX_CELL_ENTRIES:
        raise WorkLimitError(f"the largest rank cell has {rows} x {cols} = {rows * cols} "
                             f"entries, more than the limit of {MAX_CELL_ENTRIES}; "
                             f"lower the cutoff")
    ranks = _ranks(c, degrees)

    entries = {}
    for i in support:
        for d in degrees:
            dim_term = c.term(i).graded_dim(d)
            if dim_term == 0:
                continue
            out_rank = ranks.get((i, d), 0)
            in_rank = ranks.get((i - 1, d), 0)
            h = dim_term - out_rank - in_rank
            if h:
                entries[(i, d)] = h
    return HilbertTable(cutoff, entries)


def compare_tables(a: HilbertTable, b: HilbertTable) -> Optional[tuple[int, int, int, int]]:
    """First (i, d, dim_a, dim_b) disagreement in lexicographic order, or None."""
    keys = sorted(set(a.entries) | set(b.entries))
    for i, d in keys:
        da, db = a.dim(i, d), b.dim(i, d)
        if da != db:
            return (i, d, da, db)
    return None


def same_homology_dims(a: Complex, b: Complex, cutoff: int) -> DimComparison:
    """PASS when the homology tables agree everywhere up to the cutoff."""
    if a.ring != b.ring:
        raise RingMismatch("comparing complexes over different rings")
    table_a = homology_dimensions(a, cutoff)
    table_b = homology_dimensions(b, cutoff)
    witness = compare_tables(table_a, table_b)
    return DimComparison(witness is None, witness, table_a, table_b)


def is_regular_up_to(p: ZeroLocusPresentation, cutoff: int) -> RegularityVerdict:
    """Koszul criterion up to a cutoff: negative homology witnesses non-regularity."""
    table = homology_dimensions(koszul_complex(p), cutoff)
    for i, d, n in table.rows():
        if i < 0:
            return RegularityVerdict(False, cutoff, (i, d, n))
    return RegularityVerdict(True, cutoff, None)


def euler_characteristics_match(c: Complex, cutoff: int) -> bool:
    """Degreewise Euler characteristic of homology equals that of the terms."""
    table = homology_dimensions(c, cutoff)
    for d in _degree_window(c, cutoff):
        chi_terms = sum((-1) ** (i % 2) * c.term(i).graded_dim(d) for i in c.support)
        chi_homology = sum((-1) ** (i % 2) * table.dim(i, d) for i in table.cohomological_degrees())
        if chi_terms != chi_homology:
            return False
    return True
