"""Shared fixtures and independent oracles for the test suite.

`echelon_rank` is a deliberately separate Gaussian elimination over
Fraction, used to cross-check the package's rank kernel (sparse integer
elimination with gcd-normalised rows).
The corpus covers regular, repeated, non-regular, zero-section and
derived-ambient presentations.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from zeroloci.polyalg import GradedRing, Polynomial, graded_piece_basis
from zeroloci.zerolocus import ZeroLocusPresentation, critical_locus


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
