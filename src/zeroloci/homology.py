"""Degreewise homology via exact linear algebra.

Homology dimensions are computed cell by cell: for each cohomological
degree i and internal degree d, two ranks over Q determine
dim H^i(C)_d = dim(C^i)_d - rank(d^i)_d - rank(d^{i-1})_d.  One function,
`_assemble`, makes every table: it applies the work limits of this module,
takes the ranks the caller already knows, gives rank 0 to every cell with
an empty side, sends the cells left to the rank route, and checks each rank
against the shape of its cell and each dimension for sign.

The table of a Koszul complex K(f), f = (f_1..f_r), is read mostly off
the ideal I = (f_1..f_r) (`koszul_table`).  A Groebner basis of I, certified
exactly (`groebner.hilbert_and_grade`), gives the Hilbert function of R/I,
hence rank(d^-1)_d = dim R_d - dim (R/I)_d, and the grade of I; depth
sensitivity gives H^-i = 0 for i > r - grade, hence the ranks of d^-i for
those i from the top down.  Only the cells d^-i with 2 <= i <= r - grade
are left to the rank route, and only they build the Koszul complex; a
regular sequence (grade r) leaves none, and past the Groebner work limits
every cell is.

Most verifiers of a presentation read its Koszul table, so the tables are
memoized per process: `koszul_table` keeps the last KOSZUL_MEMO_SIZE
successful tables, keyed on what a table reads, the ring and all entries in
order (ambient then section, with their coefficients and declared degrees),
and the cutoff; `koszul_table.cache_info()` reports its hits and misses.
A table is never cut down from one of a higher cutoff, and an error is
never kept.  A table reads its terms from the memo of term layouts
(`zerolocus.exterior_terms`).  Tables, presentations, polynomials and term
layouts are values shared through the memos; none of them may be mutated.

The cells left go to the rank route, `_ranks`, which alone loads the
chain-level layer, `chains`, for its kernels; so `homology_dimensions`, the
table of any complex, loads it only for a complex with rank cells left.

Agreement of two tables up to a cutoff is this package's certificate of
quasi-isomorphism; it is a statement about dimensions only, and the
regularity check is likewise only conclusive up to its cutoff.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache

from . import zerolocus
from .complexes import Complex, ComplexInvariantError, WorkLimitError
from .polyalg import GradedFreeModule, GradedRing, Record, RingMismatch, graded_piece_dim
from .zerolocus import ZeroLocusPresentation, exterior_terms

__all__ = [
    "HilbertTable",
    "WorkLimitError",
    "MAX_RANK_CELLS",
    "MAX_TABLE_CELLS",
    "MAX_CELL_ENTRIES",
    "MODULAR_MIN_ENTRIES",
    "KOSZUL_MEMO_SIZE",
    "DimComparison",
    "RegularityVerdict",
    "homology_dimensions",
    "koszul_table",
    "same_homology_dims",
    "is_regular_up_to",
    "default_cutoff",
    "euler_characteristics_match",
]


# one table may need at most this many rank cells (differentials x degrees)
MAX_RANK_CELLS = 10000
# and at most this many table cells (terms x degrees), which also bounds the
# window of a complex with no differential.  Twice MAX_RANK_CELLS, so a
# Koszul table (r + 1 terms, r differentials) the rank-cell limit admits is
# never refused here.  The largest counts met are 63 in the tests and 44 in
# the benchmark workloads; the zero section on Q[x, y] at cutoff 9999
# (20000 cells) takes 0.3 s (Python 3.11, 2 cores)
MAX_TABLE_CELLS = 20000
# and its largest rank cell still to compute at most this many entries (rows x
# columns), an 8 MB int64 array for the modular kernel.  The largest cell
# computed in the tests is 420 x 420; the benchmark workloads compute none
MAX_CELL_ENTRIES = 1000000
# a cell with at least this many entries takes the modular kernel.  Per cell on
# the Koszul complex of 3 quadrics in 4 variables (Python 3.11), the kernels
# break even at 1,000-2,000 entries; the modular one is 1.5-4x faster at
# 2,500-3,400 and 10-40x faster above 30,000.  Large cells come from truncated
# sym-GA tables, tables past the Groebner work limits and the tests' rank-route
# oracles: with every cell exact, the rank-route table of four dense quadrics
# on five variables at cutoff 8 takes 32 s instead of 1.1 s (2 cores)
MODULAR_MIN_ENTRIES = 2000
# Koszul tables kept by `koszul_table`, least recently used dropped first.  A
# presentation's verifiers run one after another, so a small memo keeps nearly
# every repeat: of the 388 tables of one benchmark corpus sweep (seed 1), 216
# repeat an earlier one, and a memo of 4 tables serves 198 of them, one of 32 209
KOSZUL_MEMO_SIZE = 32


class HilbertTable(Record):
    """dim H^i(C)_d for min(0, lowest twist) <= d <= cutoff; absent entries are zero.

    The ring is positively graded, so no term has a nonzero piece below its
    lowest twist and the table misses no homology under the cutoff.
    """

    __slots__ = ("cutoff", "entries")

    def __init__(self, cutoff: int, entries: dict[tuple[int, int], int] | None = None):
        self._init(cutoff, {} if entries is None else entries)

    def dim(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    def rows(self) -> list[tuple[int, int, int]]:
        """Sorted (i, d, dim) triples with nonzero dimension."""
        return sorted((i, d, n) for (i, d), n in self.entries.items())

    def cohomological_degrees(self) -> list[int]:
        return sorted({i for i, _ in self.entries})


class DimComparison(Record):
    """Result of comparing two tables; `witness` is the first (i, d, dim_a, dim_b) mismatch."""

    __slots__ = ("passed", "witness", "table_a", "table_b")

    def __init__(self, passed: bool, witness: tuple[int, int, int, int] | None,
                 table_a: HilbertTable, table_b: HilbertTable):
        self._init(passed, witness, table_a, table_b)


class RegularityVerdict(Record):
    """REGULAR_UP_TO_CUTOFF or NON_REGULAR with a witness (i, d, dim).

    A passing verdict is not a proof of regularity: homology may first
    appear above the cutoff.
    """

    __slots__ = ("regular_up_to_cutoff", "cutoff", "witness")

    def __init__(self, regular_up_to_cutoff: bool, cutoff: int, witness: tuple | None):
        self._init(regular_up_to_cutoff, cutoff, witness)

    def __str__(self):
        if self.regular_up_to_cutoff:
            return f"REGULAR_UP_TO_CUTOFF({self.cutoff})"
        return f"NON_REGULAR(witness={self.witness})"


def default_cutoff(p: ZeroLocusPresentation) -> int:
    """Heuristic default: twice the sum of all declared degrees."""
    return 2 * sum(p.all_degrees)


def _degree_window(terms: Mapping[int, GradedFreeModule], cutoff: int) -> range:
    """Internal degrees from min(0, lowest twist of the terms) up to the cutoff."""
    lowest = min((a for m in terms.values() for a in m.twists), default=0)
    return range(min(0, lowest), cutoff + 1)


def _assemble(terms: Mapping[int, GradedFreeModule], differential_degrees: Sequence[int],
              cutoff: int, known: Callable[[dict, range], dict] | None,
              build: Callable[[], Complex]) -> HilbertTable:
    """The table up to the cutoff of a complex with these terms and
    differentials d^i, i in differential_degrees.

    In order: WorkLimitError past MAX_RANK_CELLS rank cells or
    MAX_TABLE_CELLS table cells; the exact ranks known(dims, degrees) gives,
    for dims the term dimensions; rank 0 for a cell with an empty side;
    WorkLimitError when a cell left has more than MAX_CELL_ENTRIES entries,
    else those cells by the rank route on the complex build() returns.
    ComplexInvariantError when a rank is outside [0, min(rows, cols)] of
    its cell or a dimension comes out negative: an engine fault.
    """
    degrees = _degree_window(terms, cutoff)
    # not len(degrees): a window of 2^63 degrees or more overflows it
    window = degrees.stop - degrees.start
    for count, kind, limit in ((len(differential_degrees) * window, "rank", MAX_RANK_CELLS),
                               (len(terms) * window, "table", MAX_TABLE_CELLS)):
        if count > limit:
            raise WorkLimitError(f"the table needs {count} {kind} cells, more than the limit "
                                 f"of {limit}; lower the cutoff")
    dims = {(i, d): terms[i].graded_dim(d) for i in sorted(terms) for d in degrees}
    ranks = known(dims, degrees) if known else {}
    cells = []
    for i in differential_degrees:
        for d in degrees:
            if (i, d) in ranks:
                continue
            if dims.get((i, d)) and dims.get((i + 1, d)):
                cells.append((i, d))
            else:
                ranks[i, d] = 0
    if cells:
        rows, cols = max(((dims[i + 1, d], dims[i, d]) for i, d in cells),
                         key=lambda shape: shape[0] * shape[1])
        if rows * cols > MAX_CELL_ENTRIES:
            raise WorkLimitError(f"the largest rank cell has {rows} x {cols} = {rows * cols} "
                                 f"entries, more than the limit of {MAX_CELL_ENTRIES}; "
                                 f"lower the cutoff")
        ranks = _ranks(build(), cells, dims, ranks)
    for (i, d), rank in ranks.items():
        most = min(dims.get((i + 1, d), 0), dims.get((i, d), 0))
        if not 0 <= rank <= most:
            raise ComplexInvariantError(f"rank {rank} of d^{i} in degree {d} is outside "
                                        f"[0, {most}]")
    entries = {}
    for (i, d), n in dims.items():
        h = n - ranks.get((i, d), 0) - ranks.get((i - 1, d), 0)
        if h < 0:
            raise ComplexInvariantError(f"dim H^{i} in degree {d} comes out as {h}")
        if h:
            entries[i, d] = h
    return HilbertTable(cutoff, entries)


def _ranks(c: Complex, cells: list[tuple[int, int]], dims: dict[tuple[int, int], int],
           ranks: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Add to ranks the rank over Q of d^i in degree d for each cell (i, d) of c.

    dims holds dim(C^i)_d.  A cell below MODULAR_MIN_ENTRIES entries is
    reduced exactly.  A larger one keeps its modular rank only when a
    neighbour certifies it: d o d = 0 exactly, so rank(d^i)_d is at most
    dim(C^i)_d - rank(d^{i-1})_d and dim(C^{i+1})_d - rank(d^{i+1})_d, a rank
    in ranks or any lower bound standing in for a neighbour's; a modular rank
    meeting one of these bounds is the rank over Q, and every other cell is
    reduced exactly from the rows its modular rank was taken of.
    """
    from . import chains  # the rank route loads here only

    modular = []
    for i, d in cells:
        m = c.differentials[i]
        if dims[i + 1, d] * dims[i, d] < MODULAR_MIN_ENTRIES:
            ranks[i, d] = chains.matrix_rank_in_degree(m, d)
        else:
            rows, ncols = m.degree_rows(d)
            ranks[i, d] = chains.modular_rank(rows, ncols)
            modular.append((i, d, rows))
    for i, d, rows in modular:
        r = ranks[i, d]
        if (r != dims[i, d] - ranks.get((i - 1, d), 0)
                and r != dims[i + 1, d] - ranks.get((i + 1, d), 0)):
            ranks[i, d] = chains.rational_rank(rows)
    return ranks


def homology_dimensions(c: Complex, cutoff: int) -> HilbertTable:
    """Exact homology dimensions for all internal degrees <= cutoff.

    Raises WorkLimitError, before any matrix is assembled, when the table
    needs more than MAX_RANK_CELLS rank cells or MAX_TABLE_CELLS table
    cells, or its largest rank cell has more than MAX_CELL_ENTRIES entries
    (`_assemble`).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    if not c.support:
        return HilbertTable(cutoff, {})
    return _assemble(c.terms, sorted(c.differentials), cutoff, None, lambda: c)


def koszul_table(p: ZeroLocusPresentation, cutoff: int) -> HilbertTable:
    """homology_dimensions(koszul_complex(p), cutoff), mostly without rank cells.

    With r entries f and I = (f), the ranks come from two exact facts:
    - rank(d^-1)_d = dim I_d = dim R_d - HF(R/in(I))_d, for in(I) the ideal
      of the leading monomials of a Groebner basis of I (Cox, Little and
      O'Shea, Ideals, Varieties, and Algorithms, ch. 2 and ch. 9 sec. 3),
      with HF from the Hilbert-series numerator of in(I);
    - H^-i(K(f)) = 0 for i > r - grade I, by depth sensitivity of the
      Koszul complex (Bruns and Herzog, Cohen-Macaulay Rings, Thm 1.6.17),
      so rank(d^-i)_d = dim C^-i_d - rank(d^-(i+1))_d from the top down.
      R is Cohen-Macaulay, so grade I is its height, n - dim R/in(I).
    The basis is computed and certified up to the cutoff only
    (`groebner.hilbert_and_grade`): that gives HF exactly there, and a lower
    bound g on the grade, which depth sensitivity accepts in its place
    (exact when the basis is complete).  A failed certificate, or two values
    of rank(d^-1) at g = r that disagree, raise ComplexInvariantError.  The
    cells d^-i with 2 <= i <= r - g go through the rank route, with the
    ranks above as exact neighbours; only they need the Koszul complex.
    Past the Groebner work limits every cell takes the rank route.  The
    limits of homology_dimensions apply, in its order (`_assemble`).

    Memoized per process on what the table reads, (p.ring, p.all_entries,
    cutoff), cutoff type included: so entries split otherwise between
    ambient and section share a table.  Equal inputs return the identical
    table object, which must not be mutated, for as long as it is among the
    last KOSZUL_MEMO_SIZE tables made.  A raised error is not kept, so the
    same input raises again.  koszul_table.cache_info() counts hits and
    misses; cache_clear() empties the memo.
    """
    return _koszul_table(p.ring, p.all_entries, cutoff)


@lru_cache(maxsize=KOSZUL_MEMO_SIZE, typed=True)
def _koszul_table(ring: GradedRing, all_entries: tuple, cutoff: int) -> HilbertTable:
    """The Koszul table of these entries over ring (`koszul_table`)."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    entries = [f for f, _ in all_entries if not f.is_zero()]
    r = len(all_entries)

    def known(dims: dict[tuple[int, int], int], degrees: range) -> dict[tuple[int, int], int]:
        from . import groebner

        ideal = groebner.hilbert_and_grade(ring, entries, cutoff)
        if ideal is None:
            return {}
        numerator, grade = ideal
        ranks = {}
        for d in degrees:
            ranks[-1, d] = dims[0, d] - sum(c * graded_piece_dim(ring, d - k)
                                            for k, c in numerator.items())
            below = 0
            for i in range(r, r - grade, -1):
                rank = dims[-i, d] - below
                if i == 1 and rank != ranks[-1, d]:
                    raise ComplexInvariantError(
                        f"rank {ranks[-1, d]} of d^-1 in degree {d} from the Hilbert "
                        f"function but {rank} by depth sensitivity")
                ranks[-i, d] = below = rank
        return ranks

    return _assemble(exterior_terms(ring, tuple(d for _, d in all_entries)),
                     range(-r, 0) if entries else (), cutoff, known,
                     lambda: zerolocus.koszul_complex(ZeroLocusPresentation(ring, (), all_entries)))


koszul_table.cache_info, koszul_table.cache_clear = (_koszul_table.cache_info,
                                                     _koszul_table.cache_clear)


def compare_tables(a: HilbertTable, b: HilbertTable) -> tuple[int, int, int, int] | None:
    """First (i, d, dim_a, dim_b) disagreement in lexicographic order, or None."""
    keys = sorted(set(a.entries) | set(b.entries))
    for i, d in keys:
        da, db = a.dim(i, d), b.dim(i, d)
        if da != db:
            return (i, d, da, db)
    return None


def is_regular_up_to(p: ZeroLocusPresentation, cutoff: int) -> RegularityVerdict:
    """Koszul criterion up to a cutoff: negative homology witnesses non-regularity."""
    table = koszul_table(p, cutoff)
    for i, d, n in table.rows():
        if i < 0:
            return RegularityVerdict(False, cutoff, (i, d, n))
    return RegularityVerdict(True, cutoff, None)


def same_homology_dims(a: Complex, b: Complex, cutoff: int) -> DimComparison:
    """PASS when the homology tables agree everywhere up to the cutoff."""
    if a.ring != b.ring:
        raise RingMismatch("comparing complexes over different rings")
    table_a = homology_dimensions(a, cutoff)
    table_b = homology_dimensions(b, cutoff)
    witness = compare_tables(table_a, table_b)
    return DimComparison(witness is None, witness, table_a, table_b)


def euler_characteristics_match(c: Complex, cutoff: int) -> bool:
    """Degreewise Euler characteristic of homology equals that of the terms."""
    table = homology_dimensions(c, cutoff)
    for d in _degree_window(c.terms, cutoff):
        chi_terms = sum((-1) ** (i % 2) * c.term(i).graded_dim(d) for i in c.support)
        chi_homology = sum((-1) ** (i % 2) * table.dim(i, d) for i in table.cohomological_degrees())
        if chi_terms != chi_homology:
            return False
    return True
