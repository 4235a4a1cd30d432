"""Hilbert tables, dimension comparisons and the regularity check."""

import random

import pytest

from zeroloci import homology
from zeroloci.complexes import cone, dual, identity_chain_map, tensor, zero_complex
from zeroloci.homology import (
    euler_characteristics_match,
    homology_dimensions,
    is_regular_up_to,
    same_homology_dims,
)
from zeroloci.polyalg import PolyMatrix, graded_piece_basis, rational_rank
from zeroloci.zerolocus import ZeroLocusPresentation, koszul_complex

from conftest import RING_X, RING_XY, RING_XYZ, build_corpus, echelon_rank
from test_zerolocus import pres


# -- homology tables -------------------------------------------------------------


def test_table_regular_element():
    table = homology_dimensions(koszul_complex(pres(RING_X, [("x", 1)])), 5)
    assert table.entries == {(0, 0): 1}


def test_table_repeated_section_hand_syzygy():
    # syzygies of (x, x) are generated by e1 - e2 (internal degree 1); the
    # image of the top differential is x*(e1 - e2), so H^{-1} = {1: 1}
    table = homology_dimensions(koszul_complex(pres(RING_X, [("x", 1), ("x", 1)])), 5)
    assert table.entries == {(0, 0): 1, (-1, 1): 1}


def test_table_zero_differential():
    table = homology_dimensions(koszul_complex(pres(RING_X, [("0", 1)])), 3)
    assert {d: table.dim(0, d) for d in range(4)} == {0: 1, 1: 1, 2: 1, 3: 1}
    assert {d: table.dim(-1, d) for d in range(4)} == {0: 0, 1: 1, 2: 1, 3: 1}


# -- comparisons -------------------------------------------------------------------


def test_same_dims_tensor_vs_pair():
    a = koszul_complex(pres(RING_XY, [("x", 1), ("y", 1)]))
    b = tensor(koszul_complex(pres(RING_XY, [("x", 1)])),
               koszul_complex(pres(RING_XY, [("y", 1)])))
    assert same_homology_dims(a, b, 10).passed


def test_same_dims_first_witness():
    a = koszul_complex(pres(RING_X, [("x", 1)]))
    b = koszul_complex(pres(RING_X, [("x^2", 2)]))
    cmp = same_homology_dims(a, b, 6)
    assert not cmp.passed
    assert cmp.witness == (0, 1, 0, 1)


def test_same_dims_sees_negative_internal_degrees():
    # dual(kos(x)) has twists 0 and -1; H^1 = Q sits in internal degree -1
    c = dual(koszul_complex(pres(RING_X, [("x", 1)])))
    cmp = same_homology_dims(c, zero_complex(RING_X), 4)
    assert not cmp.passed
    assert cmp.witness == (1, -1, 1, 0)


def test_same_dims_reflexive():
    c = koszul_complex(pres(RING_XY, [("x*y", 2), ("x^2", 2)]))
    assert same_homology_dims(c, c, 8).passed


# -- regularity ---------------------------------------------------------------------


def test_regular_coordinate_sequence():
    verdict = is_regular_up_to(pres(RING_XY, [("x", 1), ("y", 1)]), 8)
    assert verdict.regular_up_to_cutoff
    assert verdict.witness is None


def test_non_regular_repeated():
    verdict = is_regular_up_to(pres(RING_X, [("x", 1), ("x", 1)]), 8)
    assert not verdict.regular_up_to_cutoff
    assert verdict.witness == (-1, 1, 1)


def test_non_regular_common_factor_with_independent_oracle():
    p = pres(RING_XY, [("x*y", 2), ("x^2", 2)])
    verdict = is_regular_up_to(p, 8)
    assert not verdict.regular_up_to_cutoff
    i, d, dim = verdict.witness
    assert i == -1

    # independent oracle: kernel of the bottom differential, row-reduced in
    # the test, minus the image dimension of the top differential
    kos = koszul_complex(p)
    bottom = kos.differential(-1)
    dense, nrows, ncols = bottom.degree_matrix(d)
    kernel_dim = ncols - echelon_rank(dense)
    top_dense, _, top_cols = kos.differential(-2).degree_matrix(d)
    image_dim = echelon_rank(top_dense)
    assert kernel_dim - image_dim == dim == 1


# -- chi invariance -------------------------------------------------------------------


def test_chi_invariance_on_corpus():
    for p in build_corpus():
        kos = koszul_complex(p)
        assert euler_characteristics_match(kos, 8)


def test_cone_of_identity_has_no_homology():
    c = koszul_complex(pres(RING_XY, [("x*y", 2), ("x^2", 2)]))
    assert homology_dimensions(cone(identity_chain_map(c)), 10).entries == {}


def test_section_order_does_not_change_homology():
    # the zero locus is the same locus whichever way the entries are listed
    forward = koszul_complex(pres(RING_XY, [("x*y", 2), ("x^2", 2), ("y", 1)]))
    backward = koszul_complex(pres(RING_XY, [("y", 1), ("x^2", 2), ("x*y", 2)]))
    assert same_homology_dims(forward, backward, 8).passed


# -- quotient-dimension oracle ---------------------------------------------------------


@pytest.mark.parametrize("section", [
    [("x", 1), ("y", 1)],
    [("x^2 + y^2", 2)],
    [("x", 1), ("y^3", 3)],
])
def test_h0_matches_quotient_dimension_oracle(section):
    # dim H^0(Kos)_d must equal dim R_d minus the span of the monomial
    # multiples of the section entries, assembled and reduced in the test
    p = pres(RING_XY, section)
    table = homology_dimensions(koszul_complex(p), 8)
    for d in range(9):
        ring_basis = graded_piece_basis(RING_XY, d)
        index = {m: k for k, m in enumerate(ring_basis)}
        rows = []
        for poly, deg in p.section:
            for mu in graded_piece_basis(RING_XY, d - deg):
                row = [0] * len(ring_basis)
                for exps, c in poly.terms.items():
                    row[index[tuple(a + b for a, b in zip(exps, mu))]] = c
                rows.append(row)
        span = echelon_rank(rows) if rows else 0
        assert table.dim(0, d) == len(ring_basis) - span


# -- certified modular ranks -------------------------------------------------------------

# x + y and x + (p + 1)*y are independent over Q and equal mod p
PRIME_TRAP = pres(RING_XYZ, [("x + y", 1), ("x + 2147483630*y", 1)])
CERTIFICATE_CUTOFF = 4


def _certificate_tables(monkeypatch, min_entries):
    monkeypatch.setattr(homology, "MODULAR_MIN_ENTRIES", min_entries)
    return [homology_dimensions(koszul_complex(p), CERTIFICATE_CUTOFF)
            for p in build_corpus() + [PRIME_TRAP]]


def test_modular_route_matches_exact_route(monkeypatch):
    exact = _certificate_tables(monkeypatch, 10**12)
    assert _certificate_tables(monkeypatch, 0) == exact


def test_prime_trap_falls_back_to_exact_ranks(monkeypatch):
    monkeypatch.setattr(homology, "MODULAR_MIN_ENTRIES", 0)
    exact_cells, assembled = [], []
    monkeypatch.setattr(homology, "rational_rank",
                        lambda rows: exact_cells.append(rows) or rational_rank(rows))
    degree_rows = PolyMatrix.degree_rows
    monkeypatch.setattr(PolyMatrix, "degree_rows",
                        lambda m, d: assembled.append((m, d)) or degree_rows(m, d))
    kos = koszul_complex(PRIME_TRAP)
    table = homology_dimensions(kos, CERTIFICATE_CUTOFF)
    # d^-1 has rank 1 mod p in degree 1 but 2 over Q, and so on up the window;
    # each such cell is reduced exactly from the rows its modular rank was taken of
    d1, fallback = kos.differential(-1), list(range(1, CERTIFICATE_CUTOFF + 1))
    assert exact_cells == [degree_rows(d1, d)[0] for d in fallback]
    assert [d for m, d in assembled if m is d1 and d in fallback] == fallback
    # a regular sequence cutting out the z-line: H^0 = Q[z], nothing else
    assert table.entries == {(0, d): 1 for d in range(CERTIFICATE_CUTOFF + 1)}


def test_underestimated_modular_rank_never_certifies(monkeypatch):
    exact = _certificate_tables(monkeypatch, 10**12)
    rng = random.Random(4)
    kernel = homology.modular_rank

    def low(rows, ncols):
        r = kernel(rows, ncols)
        return r - 1 if r and rng.random() < 0.5 else r

    monkeypatch.setattr(homology, "modular_rank", low)
    assert _certificate_tables(monkeypatch, 0) == exact
