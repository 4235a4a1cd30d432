"""Degreewise homology via exact linear algebra.

Homology dimensions are computed cell by cell: for each cohomological
degree i and internal degree d, two ranks over Q determine
dim H^i(C)_d = dim(C^i)_d - rank(d^i)_d - rank(d^{i-1})_d.  One helper
(`_table`) assembles every table from its ranks, and checks each rank
against the shape of its cell and each dimension for sign.

The table of a Koszul complex K(f), f = (f_1..f_r), is read mostly off
the ideal I = (f_1..f_r) (`koszul_table`).  A Groebner basis of I, certified
exactly, gives the Hilbert function of R/I, hence rank(d^-1)_d =
dim R_d - dim (R/I)_d, and the grade of I; depth sensitivity gives
H^-i = 0 for i > r - grade, hence the ranks of d^-i for those i from the
top down.  Only the cells d^-i with 2 <= i <= r - grade are left to the
rank route, and only they build the Koszul complex; a regular sequence
(grade r) leaves none, and past the Groebner work limits every cell is.

The rank route, which takes the rank of each cell of an explicit
differential, and `homology_dimensions`, the table of any complex, live in
the chain-level layer, `chains`, which loads on first use; this module
forwards their names there.

Agreement of two tables up to a cutoff is this package's certificate of
quasi-isomorphism; it is a statement about dimensions only, and the
regularity check is likewise only conclusive up to its cutoff.
"""

from __future__ import annotations

from collections.abc import Mapping

from .complexes import ComplexInvariantError, WorkLimitError
from .polyalg import (
    GradedFreeModule,
    GradedRing,
    Polynomial,
    Record,
    forward_to_chains,
    graded_piece_dim,
)
from .zerolocus import ZeroLocusPresentation, koszul_terms

__all__ = [
    "HilbertTable",
    "WorkLimitError",
    "MAX_RANK_CELLS",
    "MAX_TABLE_CELLS",
    "MAX_CELL_ENTRIES",
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


def _check_window(differentials: int, terms: int, degrees: range) -> None:
    """Raise WorkLimitError when the table needs more than MAX_RANK_CELLS rank
    cells or MAX_TABLE_CELLS table cells."""
    # not len(degrees): a window of 2^63 degrees or more overflows it
    window = degrees.stop - degrees.start
    cells = differentials * window
    if cells > MAX_RANK_CELLS:
        raise WorkLimitError(f"the table needs {cells} rank cells, more than the limit "
                             f"of {MAX_RANK_CELLS}; lower the cutoff")
    cells = terms * window
    if cells > MAX_TABLE_CELLS:
        raise WorkLimitError(f"the table needs {cells} table cells, more than the limit "
                             f"of {MAX_TABLE_CELLS}; lower the cutoff")


def _term_dims(terms: Mapping[int, GradedFreeModule], degrees: range) -> dict[tuple[int, int], int]:
    """dim C^i_d for every term and degree."""
    return {(i, d): terms[i].graded_dim(d) for i in sorted(terms) for d in degrees}


def _table(cutoff: int, dims: dict[tuple[int, int], int],
           ranks: dict[tuple[int, int], int]) -> HilbertTable:
    """dim H^i_d = dim C^i_d - rank(d^i)_d - rank(d^{i-1})_d from the term
    dimensions and the ranks (absent ranks are 0).

    Raises ComplexInvariantError when a rank is outside [0, min(rows, cols)]
    of its cell or a dimension comes out negative: an engine fault.
    """
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


def _certify(basis: list, entries: list[Polynomial], max_degree: int) -> None:
    """Raise ComplexInvariantError unless basis, as `groebner.groebner_basis`
    gives it, is a Groebner basis of the entries' ideal in degrees up to
    max_degree."""
    from . import groebner

    failure = groebner.groebner_failure(basis, entries, max_degree)
    if failure:
        raise ComplexInvariantError(f"the Groebner basis of the entries is not certified: "
                                    f"{failure}")


def _hilbert_and_grade(ring: GradedRing, entries: list[Polynomial],
                       max_degree: int) -> tuple[dict[int, int], int] | None:
    """(K, g) for I the ideal of the nonzero homogeneous entries, read off a
    Groebner basis of I up to max_degree, certified: the ideal J of its
    leading monomials equals in(I) up to max_degree, so
    sum_d dim (R/J)_d t^d = K(t) / prod (1 - t^deg x_i) is the Hilbert
    series of R/I up to t^max_degree (R/I and R/in(I) have one Hilbert
    function), and g = height J <= height in(I) = grade I, with equality
    when the basis is complete.  None when the basis or its certificate
    passes a Groebner work limit.  The groebner module is imported here, so
    importing the package does not load it."""
    from . import groebner

    try:
        basis = groebner.groebner_basis(entries, max_degree)
        _certify(basis, entries, max_degree)
    except groebner.GroebnerWorkLimit:
        return None
    lead = [groebner._grevlex_key(key) for key, _ in basis]
    return groebner.hilbert_numerator(ring, lead), groebner.monomial_height(lead)


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
    (`_hilbert_and_grade`): that gives HF exactly there, and a lower bound
    g on the grade, which depth sensitivity accepts in its place (exact
    when the basis is complete).  A failed certificate, or two values of
    rank(d^-1) at g = r that disagree, raise ComplexInvariantError.  The
    cells d^-i with 2 <= i <= r - g go through the rank route, with the
    ranks above as exact neighbours; only they need the Koszul complex.
    Past the Groebner work limits of `groebner.groebner_basis` and
    `groebner.groebner_failure` every cell takes the rank route.  The window
    limits apply first, as in homology_dimensions, and MAX_CELL_ENTRIES,
    before the Koszul complex is built, to the cells still computed.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    terms = koszul_terms(p)
    entries = [f for f, _ in p.all_entries if not f.is_zero()]
    r = len(p.all_entries)
    degrees = _degree_window(terms, cutoff)
    _check_window(r if entries else 0, len(terms), degrees)
    dims = _term_dims(terms, degrees)
    ranks = {}
    ideal = _hilbert_and_grade(p.ring, entries, cutoff)
    if ideal is None:
        # past the Groebner work limits every cell takes the rank route
        left = range(-r, 0)
    else:
        numerator, grade = ideal
        left = range(-(r - grade), -1)
        for d in degrees:
            if not r:
                break
            ranks[-1, d] = dims[0, d] - sum(c * graded_piece_dim(p.ring, d - k)
                                            for k, c in numerator.items())
            below = 0
            for i in range(r, r - grade, -1):
                rank = dims[-i, d] - below
                if i == 1 and rank != ranks[-1, d]:
                    raise ComplexInvariantError(
                        f"rank {ranks[-1, d]} of d^-1 in degree {d} from the Hilbert "
                        f"function but {rank} by depth sensitivity")
                ranks[-i, d] = below = rank
    cells = []
    for i in left:
        for d in degrees:
            if entries and dims[i, d] and dims[i + 1, d]:
                cells.append((i, d))
            else:
                ranks[i, d] = 0
    if cells:
        from . import chains  # the rank route and the Koszul complex load here only

        chains._check_cells(dims, cells)
        ranks = chains._ranks(chains.koszul_complex(p), degrees, ranks)
    return _table(cutoff, dims, ranks)


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


__getattr__, __dir__ = forward_to_chains(globals(), (
    "MODULAR_MIN_ENTRIES", "_check_cells", "_ranks", "homology_dimensions",
    "same_homology_dims", "euler_characteristics_match"))
