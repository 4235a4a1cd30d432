"""Shared fixtures and independent oracles for the test suite.

`echelon_rank` is a deliberately separate Gaussian elimination over
Fraction, used to cross-check the package's rank kernel (sparse integer
elimination with gcd-normalised rows); `dense_matmul` is the dense triple
loop that the package's sparse `PolyMatrix.__matmul__` replaced;
`tensor_in_subset_layout` reorders a tensor product of two Koszul-layout
complexes into the one subset layout the package builds directly, and
`cosection` is the two-term complex whose symmetric powers (`sym_two_term`)
and tensor powers are the oracles of that layout.
`monomial_height` is the height of a monomial ideal found by searching for
the fewest variables that meet every generator, the oracle of the height the
package reads off the Hilbert-series numerator (`groebner.numerator_height`).
The corpus covers regular, repeated, non-regular, zero-section and
derived-ambient presentations.
Every test starts with empty memos (`fresh_memos`): no Koszul table, term
layout or parsed polynomial is kept from another test, so no test reads a
value another test computed under other patches.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from zeroloci.complexes import Complex, tensor
from zeroloci.homology import koszul_table
from zeroloci.polyalg import (GradedFreeModule, GradedRing, Polynomial, PolyMatrix,
                              graded_piece_basis, parse_poly)
from zeroloci.zerolocus import ZeroLocusPresentation, critical_locus, exterior_terms


def echelon_rank(rows: list[list[Fraction]]) -> int:
    """Plain row-echelon rank over Q; independent of the package's gcd-normalised
    sparse integer elimination."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat or not mat[0]:
        return 0
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def monomial_height(gens) -> int:
    """Height of the ideal of the monomials gens: the fewest variables that
    meet the support of every generator (0 for no generator).

    R/J has dimension nvars minus this: the coordinate subspace on a set of
    variables lies in the zero set of J exactly when no generator is a
    monomial in those variables alone.  ValueError for the unit ideal (a
    generator 1, with empty support), which no set of variables meets.
    """
    supports = {frozenset(i for i, e in enumerate(g) if e) for g in gens}
    if frozenset() in supports:
        raise ValueError("the unit ideal has no height: a generator is the monomial 1")

    def meets(supports, k: int) -> bool:
        if not supports:
            return True
        if k == 0:
            return False
        smallest = min(supports, key=len)
        return any(meets([s for s in supports if v not in s], k - 1) for v in smallest)

    height = 0
    while not meets(supports, height):
        height += 1
    return height


def dense_matmul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """a o b by the dense triple loop over every (i, k, j)."""
    ring = a.source.ring
    rows = []
    for i in range(a.target.rank):
        row = []
        for j in range(b.source.rank):
            acc = ring.zero()
            for k in range(a.source.rank):
                x, y = a.entries[i][k], b.entries[k][j]
                if x.is_zero() or y.is_zero():
                    continue
                acc = acc + x * y
            row.append(acc)
        rows.append(row)
    return PolyMatrix(b.source, a.target, rows)


def cosection(ring: GradedRing, entries) -> Complex:
    """[(+)_k R(-d_k) --(f_k)--> R] in degrees -1, 0, one generator of twist d_k per entry."""
    bundle = GradedFreeModule(ring, tuple(degree for _, degree in entries))
    line = GradedFreeModule(ring, (0,))
    map_ = PolyMatrix(bundle, line, [[poly for poly, _ in entries]])
    return Complex(ring, {-1: bundle, 0: line}, {-1: map_})


def tensor_in_subset_layout(a: Complex, b: Complex, width: int, height: int) -> Complex:
    """tensor(a, b) with its basis e_S (x) e'_T reordered to e_(S u (width + T)).

    a and b are in the Koszul subset layout on `width` and `height` entries:
    degree -n spans subsets of size n in lexicographic order (a prefix of
    the sizes, for a truncated complex).  The result lists the subsets of
    range(width + height) it spans in lexicographic order, which is how the
    Koszul complex of the concatenated entries and its subcomplexes are laid out.
    """
    t = tensor(a, b)
    position = {}
    for n in t.support:
        # the tensor basis: left degree ascending, then row-major on generator pairs
        labels = [s + tuple(width + k for k in u) for i in sorted(a.terms) if n - i in b.terms
                  for s in itertools.combinations(range(width), -i)
                  for u in itertools.combinations(range(height), i - n)]
        assert len(labels) == t.term(n).rank
        order = {label: k for k, label in enumerate(sorted(labels))}
        position[n] = [order[label] for label in labels]
    terms = {}
    for n, module in t.terms.items():
        twists = [0] * module.rank
        for k, a_k in enumerate(module.twists):
            twists[position[n][k]] = a_k
        terms[n] = GradedFreeModule(t.ring, tuple(twists))
    diffs = {}
    for n, d in t.differentials.items():
        rows = [[t.ring.zero()] * d.source.rank for _ in range(d.target.rank)]
        for r, row in enumerate(d.entries):
            for c, entry in enumerate(row):
                rows[position[n + 1][r]][position[n][c]] = entry
        diffs[n] = PolyMatrix(terms[n], terms[n + 1], rows)
    return Complex(t.ring, terms, diffs)


def random_homogeneous(ring: GradedRing, degree: int, rng: random.Random,
                       allow_zero: bool = False) -> Polynomial:
    """Random homogeneous polynomial of the given weighted degree."""
    basis = graded_piece_basis(ring, degree)
    terms = {exps: Fraction(rng.randint(-3, 3)) for exps in basis}
    poly = Polynomial(ring, terms)
    if poly.is_zero() and basis and not allow_zero:
        poly = Polynomial(ring, {basis[rng.randrange(len(basis))]: Fraction(1)})
    return poly


# (declared degree, seed) pairs; `drawn_entries` turns them into section entries
ENTRY_DRAWS = st.tuples(st.integers(1, 3), st.integers(0, 2**16))


def drawn_entries(ring: GradedRing, drawn) -> tuple:
    """Homogeneous entries (zero allowed) from `ENTRY_DRAWS` values."""
    return tuple((random_homogeneous(ring, d, random.Random(seed), allow_zero=True), d)
                 for d, seed in drawn)


@pytest.fixture(autouse=True)
def fresh_memos():
    for memo in (koszul_table, exterior_terms, parse_poly):
        memo.cache_clear()


@pytest.fixture
def rng():
    return random.Random(20260809)


RING_X = GradedRing(("x",), (1,))
RING_XY = GradedRing(("x", "y"), (1, 1))
RING_XYZ = GradedRing(("x", "y", "z"), (1, 1, 1))
RING_UV = GradedRing(("u", "v"), (1, 2))


def build_corpus() -> list[ZeroLocusPresentation]:
    """Presentations exercising every supported shape; all desk scale."""
    x = RING_X.variable("x")
    X, Y = RING_XY.variable("x"), RING_XY.variable("y")
    X3, Y3, Z3 = (RING_XYZ.variable(v) for v in ("x", "y", "z"))
    u, v = RING_UV.variable("u"), RING_UV.variable("v")
    zero_xy = RING_XY.zero()

    P = ZeroLocusPresentation
    return [
        # regular
        P(RING_X, (), ((x, 1),)),
        P(RING_XY, (), ((X, 1), (Y, 1),)),
        P(RING_XYZ, (), ((X3, 1), (Y3, 1), (Z3, 1))),
        P(RING_UV, (), ((v, 2),)),
        P(RING_UV, (), ((u * u, 2), (v, 2))),
        P(RING_XY, (), ((X + Y, 1), (X * Y, 2))),
        # repeated / non-regular
        P(RING_X, (), ((x, 1), (x, 1))),
        P(RING_X, (), ((x * x, 2), (x * x * x, 3))),
        P(RING_XY, (), ((X * Y, 2), (X * X, 2))),
        # zero sections
        P(RING_XY, (), ((zero_xy, 1),)),
        P(RING_XY, (), ((zero_xy, 1), (zero_xy, 2))),
        P(RING_XY, (), ((X, 1), (zero_xy, 2))),
        # derived ambients
        P(RING_XY, ((X, 1),), ((Y, 1),)),
        P(RING_XY, ((X, 1), (X, 1)), ((Y, 1),)),
        P(RING_XY, ((X * X, 2),), ((X * Y, 2),)),
        P(RING_XY, ((X * X, 2),), ((Y, 1),)),
        # critical loci
        critical_locus(X * X * X + Y * Y * Y),
        critical_locus(X * X * Y),
    ]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def derived_ambient_corpus() -> list[ZeroLocusPresentation]:
    """Presentations with a nonempty ambient list, for the factorization checks."""
    X, Y = RING_XY.variable("x"), RING_XY.variable("y")
    u, v = RING_UV.variable("u"), RING_UV.variable("v")
    zero_xy = RING_XY.zero()
    P = ZeroLocusPresentation
    return [
        P(RING_XY, ((X, 1), (X, 1)), ((Y, 1),)),
        P(RING_XY, ((X * X, 2),), ((Y, 1),)),
        P(RING_XY, ((X, 1),), ((zero_xy, 2),)),
        P(RING_XY, ((X, 1),), ((Y, 1),)),
        P(RING_XY, ((X * X, 2),), ((X * Y, 2),)),
        P(RING_XY, ((X, 1), (Y, 1)), ((X * Y, 2),)),
        P(RING_UV, ((u, 1),), ((v, 2),)),
    ]
