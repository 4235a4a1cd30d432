"""The chain-level layer: explicit differentials, their degree pieces and ranks.

Koszul tables are read off the ideal (`homology.koszul_table`), so only the
rank cells a Groebner basis leaves, truncated sym-GA invariants,
`gtheory.kclass_via_homology` and library callers build a differential.
They import this module where they do, as `homology._ranks` does for its
kernels, so `import zeroloci` or `zeroloci.cli` does not load it; it imports
nothing from `homology`.  A name in the `__all__` of a layer module that the
module does not define resolves here (PEP 562, `polyalg.forward_to_chains`):
`polyalg.PolyMatrix` is `chains.PolyMatrix`, and so on.  By layer:

* polyalg: `PolyMatrix`, a homogeneous matrix between twisted free modules.
  Its degree-d piece is assembled as sparse integer rows (the rational
  matrix times one positive integer, so ranks are unchanged), ranked by
  `rational_rank`, exact row reduction with gcd normalisation, or by
  `modular_rank`, dense elimination mod the prime MODULUS in numpy int64
  (imported there), only a lower bound on the rank over Q.
* complexes: `ChainMap` and the operations on complexes.  Tensor
  differential d(a (x) b) = da (x) b + (-1)^|a| a (x) db, basis ordered by
  ascending left degree, then row-major on generator pairs; the cone of
  f: A -> B has degree-i term A^{i+1} (+) B^i and differential
  [[-d_A, 0], [f, d_B]].  `contraction_complex` builds every complex in the
  Koszul subset layout.
* zerolocus: the Koszul complex, the sym-GA invariants, the Jacobian, the
  cotangent complex and derived restriction.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import add

from .complexes import Complex, ComplexInvariantError, check_generators, koszul_contractions
from .polyalg import GradedFreeModule, GradedRing, HomogeneityError, Polynomial, RingMismatch
from .zerolocus import PresentationError, ZeroLocusPresentation

__all__ = [
    "PolyMatrix", "graded_piece_basis", "basis_in_degree", "matrix_rank_in_degree",
    "rational_rank", "modular_rank", "MODULUS",
    "ChainMap", "unit_complex", "module_complex", "zero_complex", "shift", "cone", "tensor",
    "dual", "direct_sum", "contraction_complex", "sym_two_term", "twist_complex",
    "identity_chain_map", "module_map_chain",
    "koszul_complex", "sym_cofib_invariants",
    "cotangent_complex", "jacobian_data", "restrict",
]


# ---------------------------------------------------------------------------
# polyalg: homogeneous matrices, their degree pieces and ranks
# ---------------------------------------------------------------------------

# the prime of `modular_rank`: below 2^31, so a product of two residues fits int64
MODULUS = 2147483629


@lru_cache(maxsize=None)
def graded_piece_basis(ring: GradedRing, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of weighted degree d, in descending lex order.

    Empty for d < 0.  The order is fixed so matrix layouts are reproducible.
    """
    if d < 0:
        return ()
    out: list[tuple[int, ...]] = []

    def fill(index: int, remaining: int, prefix: tuple[int, ...]):
        if index == ring.nvars:
            if remaining == 0:
                out.append(prefix)
            return
        if index == ring.nvars - 1:
            w = ring.degrees[index]
            if remaining % w == 0:
                out.append(prefix + (remaining // w,))
            return
        w = ring.degrees[index]
        for e in range(remaining // w, -1, -1):
            fill(index + 1, remaining - e * w, prefix + (e,))

    if ring.nvars == 0:
        return ((),) if d == 0 else ()
    fill(0, d, ())
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_position(ring: GradedRing, d: int) -> dict[tuple[int, ...], int]:
    """Exponent vector -> its index in `graded_piece_basis(ring, d)`."""
    return {exps: k for k, exps in enumerate(graded_piece_basis(ring, d))}


def basis_in_degree(module: GradedFreeModule, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Pairs (generator index, monomial exponent) spanning the degree-d piece of a module."""
    out = []
    for j, a in enumerate(module.twists):
        for exps in graded_piece_basis(module.ring, d - a):
            out.append((j, exps))
    return out


class PolyMatrix:
    """Homogeneous map of graded free modules, entry (i, j) of degree twists_src[j] - twists_tgt[i]."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule,
                 entries: Sequence[Sequence[Polynomial]]):
        ring = source.ring
        if target.ring is not ring and target.ring != ring:
            raise RingMismatch("matrix endpoints over different rings")
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError(
                f"entry shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
                f"target rank {target.rank} x source rank {source.rank}")
        constant = (0,) * ring.nvars
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                # identity first: == compares the fields of two distinct rings
                if p.ring is not ring and p.ring != ring:
                    raise RingMismatch("matrix entry over a different ring")
                if p.is_zero():
                    continue
                want = source.twists[j] - target.twists[i]
                if want == 0 and len(p.terms) == 1 and constant in p.terms:
                    continue
                if p.homogeneous_degree() != want:
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {p} must be homogeneous of degree {want}")
        self.source = source
        self.target = target
        self.entries = rows

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, source: GradedFreeModule, target: GradedFreeModule) -> PolyMatrix:
        z = source.ring.zero()
        return cls(source, target, [[z] * source.rank for _ in range(target.rank)])

    @classmethod
    def identity(cls, module: GradedFreeModule) -> PolyMatrix:
        one, zero = module.ring.one(), module.ring.zero()
        n = module.rank
        return cls(module, module, [[one if i == j else zero for j in range(n)]
                                    for i in range(n)])

    # -- algebra ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __matmul__(self, other: PolyMatrix) -> PolyMatrix:
        """Composite self o other (other applied first).

        Sparse: each nonzero entry of a row of self meets only the nonzero
        entries of the matching row of other, summed in ascending k.
        """
        if other.target.twists != self.source.twists or other.target.ring != self.source.ring:
            raise ValueError("composition shape mismatch")
        zero = self.source.ring.zero()
        other_rows = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
                      for row in other.entries]
        rows = []
        for entry_row in self.entries:
            acc: dict[int, Polynomial] = {}
            for k, a in enumerate(entry_row):
                if a.is_zero():
                    continue
                for j, b in other_rows[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows.append([acc.get(j, zero) for j in range(other.source.rank)])
        return PolyMatrix(other.source, self.target, rows)

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        if (other.source.twists, other.target.twists) != (self.source.twists, self.target.twists):
            raise ValueError("sum shape mismatch")
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return PolyMatrix(self.source, self.target, rows)

    def __neg__(self) -> PolyMatrix:
        return PolyMatrix(self.source, self.target,
                          [[-p for p in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    def degree_rows(self, d: int) -> tuple[list[dict[int, int]], int]:
        """The induced linear map on degree-d pieces as sparse integer rows.

        Returns (rows, ncols): one {column: value} dict per target basis
        element of degree d, columns indexed by the source basis, columns
        ascending.  The whole matrix is scaled by the lcm of the
        coefficient denominators, which leaves every rank unchanged.
        """
        scale = 1
        for row in self.entries:
            for p in row:
                for c in p.terms.values():
                    scale = scale * c.denominator // gcd(scale, c.denominator)
        ring = self.source.ring
        offsets, position = [], []
        nrows = 0
        for a in self.target.twists:
            offsets.append(nrows)
            position.append(_basis_position(ring, d - a))
            nrows += len(position[-1])
        rows: list[dict[int, int]] = [{} for _ in range(nrows)]
        col = 0
        for j, a in enumerate(self.source.twists):
            terms = [(offsets[i], position[i], exps, c.numerator * (scale // c.denominator))
                     for i, entry_row in enumerate(self.entries)
                     for exps, c in entry_row[j].terms.items()]
            for mu in graded_piece_basis(ring, d - a):
                for offset, where, exps, value in terms:
                    rows[offset + where[tuple(map(add, exps, mu))]][col] = value
                col += 1
        return rows, col

    def degree_matrix(self, d: int) -> tuple[list[list[Fraction]], int, int]:
        """The degree-d piece as a dense Q-matrix: a reference layout for tests.

        Returns (rows, nrows, ncols) in the layout of `degree_rows`.  Ranks
        are not computed from it.
        """
        src_basis = basis_in_degree(self.source, d)
        tgt_basis = basis_in_degree(self.target, d)
        ncols, nrows = len(src_basis), len(tgt_basis)
        row_index = {}
        for r, (i, exps) in enumerate(tgt_basis):
            row_index[(i, exps)] = r
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for c, (j, mu) in enumerate(src_basis):
            for i in range(self.target.rank):
                p = self.entries[i][j]
                if p.is_zero():
                    continue
                for exps, coeff in p.terms.items():
                    shifted = tuple(a + b for a, b in zip(exps, mu))
                    r = row_index.get((i, shifted))
                    if r is not None:
                        rows[r][c] = rows[r][c] + coeff
        return rows, nrows, ncols

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def rational_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows by row reduction with gcd normalisation."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            merged: dict[int, int] = {}
            for c, v in row.items():
                merged[c] = v * a
            for c, v in pivot.items():
                w = merged.get(c, 0) - v * b
                if w:
                    merged[c] = w
                elif c in merged:
                    del merged[c]
            g = 0
            for v in merged.values():
                g = gcd(g, v)
            if g > 1:
                merged = {c: v // g for c, v in merged.items()}
            row = merged
    return rank


def matrix_rank_in_degree(m: PolyMatrix, d: int) -> int:
    """Rank over Q of the degree-d piece of a homogeneous matrix."""
    rows, ncols = m.degree_rows(d)
    if not rows or not ncols:
        return 0
    return rational_rank(rows)


def modular_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank mod MODULUS of sparse integer rows, by dense int64 elimination.

    A lower bound on the rank over Q: a minor that vanishes over the
    integers vanishes mod p.  Residues stay below 2^31, so products fit int64.
    """
    if not rows or not ncols:
        return 0
    import numpy as np

    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        if row:
            a[r, list(row)] = [v % MODULUS for v in row.values()]
    rank = 0
    for col in range(ncols):
        hits = np.flatnonzero(a[rank:, col])
        if not hits.size:
            continue
        pivot = rank + hits[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        below = rank + hits[1:]
        if below.size:
            head = a[rank, col:] * pow(int(a[rank, col]), -1, MODULUS) % MODULUS
            a[below, col:] = (a[below, col:] - a[below, col, None] * head) % MODULUS
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# complexes: chain maps and the operations on complexes
# ---------------------------------------------------------------------------


class ChainMap:
    """Degreewise map of complexes commuting with the differentials (checked exactly)."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Complex, target: Complex,
                 components: Mapping[int, PolyMatrix]):
        if source.ring != target.ring:
            raise RingMismatch("chain map between complexes over different rings")
        comps: dict[int, PolyMatrix] = {}
        for i, f in components.items():
            i = int(i)
            if f.source.twists != source.term(i).twists or f.target.twists != target.term(i).twists:
                raise ComplexInvariantError(f"component at degree {i} has wrong endpoints")
            if not f.is_zero():
                comps[i] = f
        degrees = set(source.terms) | set(target.terms)
        for i in degrees:
            lhs = target.differential(i) @ _component(comps, source, target, i)
            rhs = _component(comps, source, target, i + 1) @ source.differential(i)
            if lhs.entries != rhs.entries:
                raise ComplexInvariantError(f"chain map fails to commute at degree {i}")
        self.source = source
        self.target = target
        self.components = comps

    def component(self, i: int) -> PolyMatrix:
        return _component(self.components, self.source, self.target, i)


def _component(comps, source: Complex, target: Complex, i: int) -> PolyMatrix:
    f = comps.get(i)
    if f is None:
        return PolyMatrix.zero(source.term(i), target.term(i))
    return f


def zero_complex(ring: GradedRing) -> Complex:
    return Complex(ring, {}, {})


def module_complex(module: GradedFreeModule, degree: int = 0) -> Complex:
    return Complex(module.ring, {degree: module}, {})


def unit_complex(ring: GradedRing) -> Complex:
    """The ring itself, untwisted, in cohomological degree 0."""
    return module_complex(GradedFreeModule(ring, (0,)))


def identity_chain_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {i: PolyMatrix.identity(c.term(i)) for i in c.support})


def module_map_chain(f: PolyMatrix, degree: int = 0) -> ChainMap:
    """A single homogeneous matrix viewed as a map of one-term complexes."""
    return ChainMap(module_complex(f.source, degree), module_complex(f.target, degree),
                    {degree: f})


def twist_complex(c: Complex, amount: int) -> Complex:
    """Add `amount` to every twist; the differentials are unchanged."""
    terms = {i: GradedFreeModule(c.ring, tuple(a + amount for a in m.twists))
             for i, m in c.terms.items()}
    diffs = {i: PolyMatrix(terms[i], terms[i + 1], d.entries)
             for i, d in c.differentials.items()}
    return Complex(c.ring, terms, diffs)


def shift(c: Complex, n: int) -> Complex:
    """(shift c n)^i = c^{i+n}; differentials pick up the sign (-1)^n."""
    terms = {i - n: m for i, m in c.terms.items()}
    sign = 1 if n % 2 == 0 else -1
    diffs = {}
    for i, d in c.differentials.items():
        diffs[i - n] = d if sign == 1 else -d
    return Complex(c.ring, terms, diffs)


def cone(f: ChainMap) -> Complex:
    """Mapping cone: degree-i term source^{i+1} (+) target^i, d = [[-d_src, 0], [f, d_tgt]]."""
    a, b = f.source, f.target
    ring = a.ring
    degrees = sorted({i - 1 for i in a.terms} | set(b.terms))
    terms = {}
    for i in degrees:
        twists = a.term(i + 1).twists + b.term(i).twists
        if twists:
            terms[i] = GradedFreeModule(ring, twists)
    diffs = {}
    zero = ring.zero()
    for i in degrees:
        if i not in terms or (i + 1) not in terms:
            continue
        src_a, src_b = a.term(i + 1), b.term(i)
        tgt_a, tgt_b = a.term(i + 2), b.term(i + 1)
        da = a.differential(i + 1)
        db = b.differential(i)
        fi = f.component(i + 1)
        rows = []
        for r in range(tgt_a.rank):
            rows.append([-da.entries[r][c] for c in range(src_a.rank)]
                        + [zero] * src_b.rank)
        for r in range(tgt_b.rank):
            rows.append([fi.entries[r][c] for c in range(src_a.rank)]
                        + [db.entries[r][c] for c in range(src_b.rank)])
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)


def direct_sum(a: Complex, b: Complex) -> Complex:
    if a.ring != b.ring:
        raise RingMismatch("direct sum over different rings")
    ring = a.ring
    terms = {}
    for i in set(a.terms) | set(b.terms):
        twists = a.term(i).twists + b.term(i).twists
        terms[i] = GradedFreeModule(ring, twists)
    zero = ring.zero()
    diffs = {}
    for i in set(a.differentials) | set(b.differentials):
        da, db = a.differential(i), b.differential(i)
        rows = []
        for r in range(da.target.rank):
            rows.append(list(da.entries[r]) + [zero] * db.source.rank)
        for r in range(db.target.rank):
            rows.append([zero] * da.source.rank + list(db.entries[r]))
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)


def tensor(a: Complex, b: Complex) -> Complex:
    """Total complex of the bigraded tensor product with Koszul signs."""
    if a.ring != b.ring:
        raise RingMismatch("tensor over different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return zero_complex(ring)
    check_generators(sum(m.rank for m in a.terms.values())
                     * sum(m.rank for m in b.terms.values()))
    degrees = sorted({i + j for i in a.terms for j in b.terms})
    # the basis of degree n as triples (left degree i, left gen, right gen)
    bases = {n: [(i, p, q) for i in sorted(a.terms) if n - i in b.terms
                 for p in range(a.term(i).rank) for q in range(b.term(n - i).rank)]
             for n in degrees}
    terms = {}
    for n in degrees:
        twists = tuple(a.term(i).twists[p] + b.term(n - i).twists[q]
                       for (i, p, q) in bases[n])
        if twists:
            terms[n] = GradedFreeModule(ring, twists)
    zero = ring.zero()
    diffs = {}
    for n in degrees:
        if n not in terms or (n + 1) not in terms:
            continue
        src, tgt = bases[n], bases[n + 1]
        index = {key: r for r, key in enumerate(tgt)}
        rows = [[zero] * len(src) for _ in tgt]
        for col, (i, p, q) in enumerate(src):
            j = n - i
            da = a.differentials.get(i)
            if da is not None:
                for pp in range(a.term(i + 1).rank):
                    entry = da.entries[pp][p]
                    if entry.is_zero():
                        continue
                    r = index.get((i + 1, pp, q))
                    if r is not None:
                        rows[r][col] = rows[r][col] + entry
            db = b.differentials.get(j)
            if db is not None:
                sign = 1 if i % 2 == 0 else -1
                for qq in range(b.term(j + 1).rank):
                    entry = db.entries[qq][q]
                    if entry.is_zero():
                        continue
                    r = index.get((i, p, qq))
                    if r is not None:
                        rows[r][col] = rows[r][col] + (entry if sign == 1 else -entry)
        diffs[n] = PolyMatrix(terms[n], terms[n + 1], rows)
    return Complex(ring, terms, diffs)


def dual(c: Complex) -> Complex:
    """Degreewise dual: term i is the dual of c^{-i} (negated twists), differentials transposed.

    Plain transposition (no alternating sign) keeps d o d = 0 and makes the
    dual a strict involution: dual(dual(c)) == c.
    """
    ring = c.ring
    terms = {-i: m.dual() for i, m in c.terms.items()}
    diffs = {}
    for i, d in c.differentials.items():
        # d: c^i -> c^{i+1} transposes to dual^{-i-1} -> dual^{-i}
        src = terms[-i - 1]
        tgt = terms[-i]
        rows = [[d.entries[col][row] for col in range(d.target.rank)]
                for row in range(d.source.rank)]
        diffs[-i - 1] = PolyMatrix(src, tgt, rows)
    return Complex(ring, terms, diffs)


def contraction_complex(ring: GradedRing, section, subsets: Mapping[int, list],
                        terms: Mapping[int, GradedFreeModule]) -> Complex:
    """The complex on terms whose differential contracts with the section.

    subsets[i] lists the ascending index subsets spanning terms[i], in its
    order.  e_sub goes to the sum of sign * section[k] * e_(sub without k)
    over `koszul_contractions(sub)`, each listed in subsets[i + 1] if present.
    """
    diffs = {}
    zero = ring.zero()
    for i in sorted(subsets):
        if (i + 1) not in subsets:
            continue
        src, tgt = subsets[i], subsets[i + 1]
        index = {sub: rr for rr, sub in enumerate(tgt)}
        rows = [[zero] * len(src) for _ in tgt]
        for col, sub in enumerate(src):
            for j, reduced, sign in koszul_contractions(sub):
                entry = section[j]
                if entry.is_zero():
                    continue
                rr = index[reduced]
                rows[rr][col] = rows[rr][col] + (entry if sign == 1 else -entry)
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)


def sym_two_term(a: Complex, n: int) -> Complex:
    """n-th symmetric power (characteristic 0) of a two-term complex in degrees -1, 0.

    Requires the degree-0 part to have rank <= 1.  The degree -i term is
    Lambda^i(a^{-1}) (x) Sym^{n-i}(a^0); the differential contracts one
    exterior factor into the symmetric part.
    """
    if n < 0:
        raise ValueError("negative symmetric power")
    if any(i not in (-1, 0) for i in a.terms):
        raise ComplexInvariantError("sym_two_term needs support inside {-1, 0}")
    line = a.term(0)
    if line.rank > 1:
        raise ComplexInvariantError("sym_two_term needs degree-0 rank <= 1")
    ring = a.ring
    bundle = a.term(-1)
    r = bundle.rank
    has_line = line.rank == 1
    line_twist = line.twists[0] if has_line else 0
    section = a.differential(-1).entries[0] if has_line else ()
    # Lambda^i (x) Sym^(n-i) for i <= min(n, r); only i = n without the line
    powers = [i for i in range(min(n, r) + 1) if has_line or i == n]
    check_generators(sum(comb(r, i) for i in powers))
    subsets = {-i: list(itertools.combinations(range(r), i)) for i in powers}
    terms = {i: GradedFreeModule(ring, tuple(
                 sum(bundle.twists[j] for j in sub) + (n + i) * line_twist for sub in subs))
             for i, subs in subsets.items()}
    return contraction_complex(ring, section, subsets, terms)


# ---------------------------------------------------------------------------
# zerolocus: the canonical complexes of a presentation
# ---------------------------------------------------------------------------


def _koszul_layout(p: ZeroLocusPresentation, n_max: int) -> Complex:
    """The subcomplex of the Koszul complex of p spanned by the subsets of all
    entries with at most n_max section entries (all of it for n_max >= rank),
    degree -n in lexicographic order, section entries after the ambient ones.
    Contraction keeps the bound.  Raises WorkLimitError above MAX_GENERATORS
    before building anything.
    """
    ambient, r = len(p.ambient), len(p.all_entries)
    check_generators(2 ** ambient * sum(comb(p.rank, s) for s in range(min(n_max, p.rank) + 1)))
    degrees = p.all_degrees
    subsets = {-n: [sub for sub in itertools.combinations(range(r), n)
                    if sum(k >= ambient for k in sub) <= n_max]
               for n in range(min(r, ambient + n_max) + 1)}
    terms = {i: GradedFreeModule(p.ring, tuple(sum(degrees[k] for k in sub) for sub in subs))
             for i, subs in subsets.items()}
    return contraction_complex(p.ring, [f for f, _ in p.all_entries], subsets, terms)


def koszul_complex(p: ZeroLocusPresentation) -> Complex:
    """Exterior powers of all entries, ambient first, joined by contraction.

    Up to three entries this equals the tensor of their two-term complexes.
    Its terms are `zerolocus.koszul_terms(p)`.
    """
    return _koszul_layout(p, p.rank)


def sym_cofib_invariants(p: ZeroLocusPresentation, n_max: int) -> Complex:
    """Weight-zero part of the symmetric algebra on the cofibre of the cosection.

    The direct sum of the symmetric powers up to n_max is regraded by the
    auxiliary weight (the power of the generator of the trivial line); its
    weight-zero pieces are the exterior powers Lambda^n of the dual bundle,
    n <= top = min(n_max, rank), joined by contraction with the section
    (the line generator has twist 0).  Tensored with the ambient Koszul
    complex they are the subcomplex of the Koszul complex spanned by the
    subsets with at most top section entries (e_A (x) e_B -> e_(A u B)
    needs no sign), built directly in the Koszul layout, without the rest
    of the Koszul complex; untruncated (n_max >= rank) it is the Koszul
    complex itself, and truncated (n_max < rank) a proper subcomplex of it.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _koszul_layout(p, n_max)


def jacobian_data(p: ZeroLocusPresentation) -> PolyMatrix:
    """All partials of the section entries; rows = ring variables, columns = entries."""
    ring = p.ring
    source = p.bundle_dual()
    target = GradedFreeModule(ring, ring.degrees)
    rows = [[poly.partial(i) for poly, _ in p.section] for i in range(ring.nvars)]
    return PolyMatrix(source, target, rows)


def cotangent_complex(p: ZeroLocusPresentation) -> Complex:
    """Jacobian two-term complex restricted to the zero locus.

    Only smooth affine ambients are supported: the ambient list must be
    empty.  The result is [bundle dual --Jacobian--> Kaehler generators]
    in degrees -1, 0, tensored with the Koszul complex of the presentation.
    """
    if p.ambient:
        raise PresentationError("cotangent_complex requires an empty ambient list")
    ring = p.ring
    jac = jacobian_data(p)
    terms = {}
    if jac.source.rank:
        terms[-1] = jac.source
    if jac.target.rank:
        terms[0] = jac.target
    two_term = Complex(ring, terms, {-1: jac} if jac.source.rank and jac.target.rank else {})
    return tensor(two_term, koszul_complex(p))


def restrict(m: Complex, p: ZeroLocusPresentation) -> Complex:
    """Derived restriction to the zero locus: tensor with the Koszul complex."""
    if m.ring != p.ring:
        raise RingMismatch("complex and presentation over different rings")
    return tensor(m, koszul_complex(p))
