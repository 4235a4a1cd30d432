"""Hilbert tables, dimension comparisons and the regularity check."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zeroloci
from zeroloci import chains, groebner, homology
from zeroloci.complexes import (
    ComplexInvariantError, WorkLimitError, cone, dual, identity_chain_map, tensor, zero_complex)
from zeroloci.homology import (
    HilbertTable,
    default_cutoff,
    euler_characteristics_match,
    homology_dimensions,
    is_regular_up_to,
    koszul_table,
    same_homology_dims,
)
from zeroloci.groebner import groebner_basis, groebner_failure, hilbert_numerator, numerator_height
from zeroloci.polyalg import (
    GradedFreeModule, GradedRing, Polynomial, PolyMatrix, graded_piece_basis, parse_poly,
    rational_rank)
from zeroloci.zerolocus import ZeroLocusPresentation, koszul_complex

from conftest import (
    ENTRY_DRAWS,
    RING_UV,
    RING_X,
    RING_XY,
    RING_XYZ,
    build_corpus,
    derived_ambient_corpus,
    drawn_entries,
    echelon_rank,
    monomial_height,
)
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


def test_hilbert_tables_are_immutable_and_own_their_entries():
    a, b = HilbertTable(3), HilbertTable(cutoff=3)
    assert a.entries == {} and a.entries is not b.entries and a == b
    a.entries[(0, 0)] = 1  # each table has a dict of its own
    assert b.entries == {} and a != b and a == HilbertTable(3, {(0, 0): 1})
    assert a != HilbertTable(4, {(0, 0): 1})
    for name in ("cutoff", "entries"):
        with pytest.raises(AttributeError):
            setattr(a, name, {})
    assert repr(a) == "HilbertTable(cutoff=3, entries={(0, 0): 1})"
    assert repr(HilbertTable(3)) == "HilbertTable(cutoff=3, entries={})"
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a).entries is not a.entries


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


def _count_modular_ranks(monkeypatch) -> list:
    """Record each call of the modular kernel where `_ranks` looks it up."""
    calls, kernel = [], chains.modular_rank
    monkeypatch.setattr(chains, "modular_rank",
                        lambda rows, ncols: calls.append(len(rows)) or kernel(rows, ncols))
    return calls


def test_modular_route_matches_exact_route(monkeypatch):
    modular = _count_modular_ranks(monkeypatch)
    exact = _certificate_tables(monkeypatch, 10**12)
    assert modular == []
    assert _certificate_tables(monkeypatch, 0) == exact
    assert modular   # the patched threshold sent cells to the modular kernel


def test_prime_trap_falls_back_to_exact_ranks(monkeypatch):
    monkeypatch.setattr(homology, "MODULAR_MIN_ENTRIES", 0)
    exact_cells, assembled = [], []
    monkeypatch.setattr(chains, "rational_rank",
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
    kernel, lowered = chains.modular_rank, []

    def low(rows, ncols):
        r = kernel(rows, ncols)
        if r and rng.random() < 0.5:
            lowered.append(r)
            return r - 1
        return r

    monkeypatch.setattr(chains, "modular_rank", low)
    assert _certificate_tables(monkeypatch, 0) == exact
    assert lowered   # some rank was underestimated, and none of them certified


# -- Koszul tables from a certified Groebner basis -----------------------------------------


def _oracle(p, cutoff):
    return homology_dimensions(koszul_complex(p), cutoff)


def test_koszul_table_matches_rank_route_on_corpus():
    for p in build_corpus() + derived_ambient_corpus():
        cutoff = default_cutoff(p)
        assert koszul_table(p, cutoff) == _oracle(p, cutoff), p


@settings(max_examples=40, deadline=None)
@given(st.lists(ENTRY_DRAWS, max_size=1), st.lists(ENTRY_DRAWS, max_size=3),
       st.sampled_from([RING_XY, RING_XYZ, RING_UV]))
def test_koszul_table_matches_rank_route_on_random_entries(ambient, section, ring):
    p = ZeroLocusPresentation(ring, drawn_entries(ring, ambient), drawn_entries(ring, section))
    assert koszul_table(p, 6) == _oracle(p, 6)


def _grade(ring, texts):
    entries = [parse_poly(t, ring) for t in texts]
    return groebner.hilbert_and_grade(ring, [f for f in entries if not f.is_zero()], 10)[1]


RING_X0_L = GradedRing(("x0", "x1", "x2", "x3", "x4"), (1,) * 5)


@pytest.mark.parametrize("ring, texts, grade", [
    (RING_XYZ, ["x", "y", "z"], 3),
    (RING_X0_L, ["x0*(x1 + 2*x2 - x3)", "x0*(3*x1 - x4 + x2)"], 1),
    (RING_XYZ, ["0", "0"], 0),
    (RING_XYZ, ["x", "x"], 1),
])
def test_grade_from_the_leading_monomials(ring, texts, grade):
    assert _grade(ring, texts) == grade


def test_basis_truncated_at_the_cutoff_bounds_the_grade_from_below():
    # (x*y + z^2, x^2) is regular, but z^4 enters in(I) only in degree 4: up to
    # degree 3 the leading monomials x*y, x^2, x*z^2 have height 1
    entries = [parse_poly(t, RING_XYZ) for t in ("x*y + z^2", "x^2")]
    assert [groebner.hilbert_and_grade(RING_XYZ, entries, c)[1] for c in (3, 4)] == [1, 2]
    p = pres(RING_XYZ, [("x*y + z^2", 2), ("x^2", 2)])
    for cutoff in (3, 4):
        assert koszul_table(p, cutoff) == _oracle(p, cutoff)


# x0 * l_k for three linear forms on five variables: grade 1, so d^-2 is the
# one differential left to the rank route; d^-1 and d^-3 come in known
X0_L_FORMS = ("x1 + 2*x2 - x3", "3*x1 - x4 + x2", "x2 + x3 + x4")


def _x0_l() -> ZeroLocusPresentation:
    return ZeroLocusPresentation(RING_X0_L, (), tuple(
        (parse_poly(f"x0*({l})", RING_X0_L), 2) for l in X0_L_FORMS))


def test_low_grade_table_takes_known_ranks_into_the_rank_route(monkeypatch):
    p = _x0_l()
    cutoff = 7
    expected = _oracle(p, cutoff)
    calls = []
    ranks = homology._ranks
    monkeypatch.setattr(homology, "_ranks",
                        lambda c, cells, dims, known: calls.append(dict(known)) or
                        ranks(c, cells, dims, known))
    table = koszul_table(p, cutoff)
    [known] = calls
    assert {i for i, _ in known} == {-1, -2, -3}
    assert all(known[-2, d] == 0 for d in range(4))   # C^-2 starts in degree 4
    assert (-2, 4) not in known
    assert table == expected
    assert {i for i, _ in table.entries} == {-2, -1, 0}
    # the modular route certifies with the known ranks as neighbours; the
    # memo is emptied, or the second call would read the first table back
    monkeypatch.setattr(homology, "MODULAR_MIN_ENTRIES", 0)
    modular = _count_modular_ranks(monkeypatch)
    koszul_table.cache_clear()
    assert koszul_table(p, cutoff) == table
    assert modular


def test_rank_cells_load_the_chain_layer_only_when_met():
    # the x0 * l_k table needs the rank route, which imports the chain-level
    # layer; the table is the one the rank route gives for the whole complex
    script = ("import json, sys\n"
              "from zeroloci import GradedRing, ZeroLocusPresentation, koszul_table, parse_poly\n"
              "ring = GradedRing(tuple(f'x{k}' for k in range(5)), (1,) * 5)\n"
              "p = ZeroLocusPresentation(ring, (), tuple(\n"
              "    (parse_poly(f'x0*({l})', ring), 2) for l in sys.argv[1:]))\n"
              "before = 'zeroloci.chains' in sys.modules\n"
              "rows = koszul_table(p, 7).rows()\n"
              "print(before, 'zeroloci.chains' in sys.modules, json.dumps(rows))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *X0_L_FORMS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    before, after, rows = done.stdout.splitlines()[-1].split(" ", 2)
    assert (before, after) == ("False", "True")
    assert [tuple(row) for row in json.loads(rows)] == _oracle(_x0_l(), 7).rows()


@pytest.mark.parametrize("section, message", [
    # grade 1 read as 2: depth sensitivity and the Hilbert function disagree on d^-1
    ([("x", 1), ("x", 1)], "by depth sensitivity"),
    # grade 1 read as 2 with three entries: d^-2 comes out too large for H^-1
    ([("x", 1), ("x", 1), ("x", 1)], "in degree 2 comes out as -1"),
])
def test_overstated_grade_is_an_engine_fault(monkeypatch, section, message):
    height = groebner.numerator_height
    monkeypatch.setattr(groebner, "numerator_height", lambda numerator: height(numerator) + 1)
    with pytest.raises(ComplexInvariantError, match=message):
        koszul_table(pres(RING_X, section), 6)


def test_table_refuses_a_rank_larger_than_its_cell():
    # d^-1: C^-1 -> C^0 in degree 0, where C^-1 is 0: no rank above 0 fits
    with pytest.raises(ComplexInvariantError, match="outside"):
        homology._assemble({0: GradedFreeModule(RING_X, (0,))}, (), 0,
                           lambda dims, degrees: {(-1, 0): 1}, None)


def test_groebner_certificate_refuses_a_basis_short_of_one_element(monkeypatch):
    # the last element comes from the S-pair of the two quadrics, in degree 3;
    # the certificate checks pairs and inputs up to and including its degree
    entries = [parse_poly(t, RING_XYZ) for t in ("x^2 - y*z", "x*y - z^2")]
    basis, packing = groebner_basis(entries, 10)
    # the degrees of the leading monomials
    assert [sum(packing.exponents(lead)) for lead, _ in basis] == [2, 2, 3]

    def certify(given, max_degree):
        monkeypatch.setattr(groebner, "groebner_basis", lambda polys, top: (given, packing))
        groebner.hilbert_and_grade(RING_XYZ, entries, max_degree)

    certify(basis, 10)
    with pytest.raises(ComplexInvariantError, match="S-pair"):
        certify(basis[:-1], 3)
    certify(basis[:-1], 2)
    with pytest.raises(ComplexInvariantError, match="input 1"):
        certify(basis[:1], 2)


def test_certificate_of_dense_quadrics_stays_under_the_work_limit(monkeypatch):
    # four dense quadrics on five variables, one coefficient in [-3, 3] per
    # monomial: re-reducing their coprime S-pairs too took the certificate past
    # MAX_GROEBNER_STEPS, and the table to the rank route
    rng = random.Random(3)
    basis = graded_piece_basis(RING_X0_L, 2)
    p = ZeroLocusPresentation(RING_X0_L, (), tuple(
        (Polynomial(RING_X0_L, {e: rng.randint(-3, 3) for e in basis}), 2) for _ in range(4)))
    ideals = []
    hilbert_and_grade = groebner.hilbert_and_grade
    monkeypatch.setattr(groebner, "hilbert_and_grade",
                        lambda *args: ideals.append(hilbert_and_grade(*args)) or ideals[-1])
    table = koszul_table(p, 8)
    [ideal] = ideals
    assert ideal is not None and ideal[1] == 4
    assert table == _oracle(p, 8)


@pytest.mark.parametrize("limit", ["MAX_GROEBNER_STEPS", "MAX_GROEBNER_PAIRS",
                                   "MAX_GROEBNER_BASIS", "MAX_GROEBNER_BITS"])
def test_groebner_work_limit_falls_back_to_the_rank_route(monkeypatch, limit):
    p = pres(RING_XY, [("x*y", 2), ("x^2 + 3*y^2", 2), ("x^2 - 5*x*y", 2)])
    expected = _oracle(p, 8)
    monkeypatch.setattr(groebner, limit, 1)
    with pytest.raises(groebner.GroebnerWorkLimit):
        groebner_basis([f for f, _ in p.section], 8)
    calls = []
    ranks = homology._ranks
    monkeypatch.setattr(homology, "_ranks",
                        lambda c, cells, dims, known: calls.append(dict(known)) or
                        ranks(c, cells, dims, known))
    assert koszul_table(p, 8) == expected
    # no rank is known but those of the cells with an empty side
    [known] = calls
    assert set(known.values()) == {0}
    assert (-1, 2) not in known


def test_groebner_basis_skips_zero_inputs():
    x = parse_poly("x", RING_XY)
    assert groebner_basis([RING_XY.zero()], 5)[0] == []
    assert groebner_basis([RING_XY.zero(), x], 5)[0] == groebner_basis([x], 5)[0]


def test_s_pairs_arrive_after_every_input_past_a_skipped_one():
    # x^10 is above the cutoff and skipped; the S-pair of the quadrics comes in
    # degree 3 with the cubic, and takes its turn after it, as without x^10
    # (it once tied with the cubic's place in the list and failed to compare)
    texts = ("x^10", "x^2 - y*z", "x*y - z^2", "y^3 + z^3")
    entries = [parse_poly(t, RING_XYZ) for t in texts]
    basis, packing = groebner_basis(entries, 5)
    assert basis == groebner_basis(entries[1:], 5)[0]
    assert [sum(packing.exponents(lead)) for lead, _ in basis] == [2, 2, 3, 3, 4, 4]
    p = pres(RING_XYZ, [(t, d) for t, d in zip(texts, (10, 2, 2, 3))])
    assert koszul_table(p, 5) == _oracle(p, 5)


def test_certificate_reads_a_basis_built_at_a_higher_cutoff():
    # up to degree 10 the basis holds y^8, whose exponent 8 fills more than the
    # 3-bit fields that cutoff 3 alone gives (read in them, it is z); the
    # certificate reads it in the basis's own packing, and without the cubic,
    # at 3 it still finds the S-pair it came from
    entries = [parse_poly(t, RING_XYZ) for t in ("x^2 - y*z", "x*y - z^2", "y^8")]
    basis, packing = groebner_basis(entries, 10)
    assert [sum(packing.exponents(lead)) for lead, _ in basis] == [2, 2, 3, 8, 9, 9, 10]
    y8 = packing.pack((0, 8, 0))
    assert basis[3] == (y8, {y8: 1})
    assert groebner_failure(basis, packing, entries, 3) is None
    assert (groebner_failure(basis[:2] + basis[3:], packing, entries, 3)
            == "the S-pair of elements 0 and 1 does not reduce to 0")
    # a degree past what the fields hold (5 bits: exponents up to 15) is refused
    assert groebner_failure(basis, packing, entries, 15) is None
    with pytest.raises(ValueError, match="passes the fields"):
        groebner_failure(basis, packing, entries, 16)


def _grevlex_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of weighted grevlex among monomials of one weighted degree,
    stated apart from the packing: the larger monomial has the smaller
    exponent in the last variable where they differ."""
    return tuple(-e for e in reversed(exps))


def _monomial(pieces, data, degrees) -> tuple[int, ...]:
    """A drawn monomial in one of degrees, from pieces {degree: its monomials}."""
    d = data.draw(st.sampled_from([d for d in degrees if pieces[d]]))
    return data.draw(st.sampled_from(pieces[d]))


# the field width grows at top = 2, 4, 8 and 16: these tops sit on both sides
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16]), st.data())
def test_packed_monomials_follow_the_exponent_rules(weights, top, data):
    ring = GradedRing(tuple(f"x{i}" for i in range(len(weights))), weights)
    packing = groebner._Packing(ring, top)
    pack = packing.pack
    pieces = {d: graded_piece_basis(ring, d) for d in range(top + 1)}
    a = _monomial(pieces, data, range(top + 1))
    d = ring.weighted_degree(a)
    same = _monomial(pieces, data, [d])
    b = _monomial(pieces, data, range(top - d + 1))
    lead = _monomial(pieces, data, range(top + 1))
    # unpack o pack = id, and the order of one degree is grevlex, reversed
    assert packing.exponents(pack(a)) == a
    assert (pack(a) < pack(same)) == (_grevlex_key(a) > _grevlex_key(same))
    # a product is a sum, with every exponent up to top
    product = tuple(x + y for x, y in zip(a, b))
    assert pack(a) + pack(b) == pack(product)
    # the division test of the reduction is the fieldwise <=
    for divisor, m in ((lead, a), (lead, same), (a, same), (b, product), (a, product)):
        reduced = groebner._reduce({pack(m): 1}, [(pack(divisor), {pack(divisor): 1})],
                                   groebner._Steps(), packing.guard, top_only=True)
        assert (not reduced) == all(x <= y for x, y in zip(divisor, m)), (divisor, m)
    # the pair test: None for coprime monomials, else the degree and the lcm
    lcm = tuple(map(max, lead, a))
    pair = packing.pair(pack(lead), pack(a), top * len(weights) * 3)
    coprime = not any(x and y for x, y in zip(lead, a))
    assert pair == (None if coprime else (ring.weighted_degree(lcm), pack(lcm)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([RING_XY, RING_UV, RING_XYZ]), st.data())
def test_height_off_the_numerator_is_the_height_of_the_ideal(ring, data):
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * ring.nvars), max_size=5))
    cutoff = data.draw(st.integers(0, 8))
    # the ideal, and its truncation to the generators up to a degree, as the
    # leading monomials of a basis truncated there are
    for ideal in (gens, [g for g in gens if ring.weighted_degree(g) <= cutoff]):
        numerator = hilbert_numerator(ring, ideal)
        if any(not any(g) for g in ideal):
            with pytest.raises(ValueError, match="unit ideal"):
                monomial_height(ideal)
            with pytest.raises(ValueError, match="unit ideal"):
                numerator_height(numerator)
        else:
            assert numerator_height(numerator) == monomial_height(ideal)


HUGE = 10**20


# the limits of a Koszul table hold, with its messages, for the table of any
# complex; here the truncated sym-GA invariants (n_max = 1 of two entries)
@pytest.mark.parametrize("section, cutoff, cell_limit, message", [
    ([("x", 1), ("y", 1)], HUGE, None,
     f"the table needs {HUGE + 1} rank cells, more than the limit of {homology.MAX_RANK_CELLS}"),
    # the zero section has no differential: two terms over 200001 degrees
    ([("0", 1), ("0", 1)], 200000, None,
     f"the table needs 400002 table cells, more than the limit of {homology.MAX_TABLE_CELLS}"),
    # d^-1 in degree 8 maps two pieces of 8 monomials to one of 9
    ([("x", 1), ("y", 1)], 8, 100,
     "the largest rank cell has 9 x 16 = 144 entries, more than the limit of 100"),
])
def test_truncated_sym_ga_table_limits_raise_before_any_matrix(monkeypatch, section, cutoff,
                                                                cell_limit, message):
    p = pres(RING_XY, section)
    truncated = chains.sym_cofib_invariants(p, 1)
    assert 1 < p.rank
    if cell_limit is not None:
        monkeypatch.setattr(homology, "MAX_CELL_ENTRIES", cell_limit)
    assembled = []
    monkeypatch.setattr(PolyMatrix, "degree_rows", lambda m, d: assembled.append(d))
    with pytest.raises(WorkLimitError) as caught:
        homology_dimensions(truncated, cutoff)
    assert str(caught.value) == message + "; lower the cutoff"
    assert assembled == []


def test_hilbert_numerator_of_monomial_ideals():
    # (x^2, x*y): 1 - 2t^2 + t^3; (x*y, y*z): 1 - 2t^2 + t^3; (x, y^2) coprime
    assert hilbert_numerator(RING_XYZ, [(2, 0, 0), (1, 1, 0)]) == {0: 1, 2: -2, 3: 1}
    assert hilbert_numerator(RING_XYZ, [(1, 1, 0), (0, 1, 1)]) == {0: 1, 2: -2, 3: 1}
    assert hilbert_numerator(RING_XYZ, [(1, 0, 0), (0, 2, 0)]) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert hilbert_numerator(RING_XYZ, [(0, 0, 0)]) == {}
    assert hilbert_numerator(RING_XYZ, []) == {0: 1}


def test_unit_ideal_is_refused_without_hanging():
    # a generator 1 has empty support, which no set of variables meets; run in a
    # child process so that a search for its height that never ends fails here
    script = ("from zeroloci import groebner\n"
              "from zeroloci.polyalg import GradedRing\n"
              "ring = GradedRing(('x', 'y', 'z'), (1, 1, 1))\n"
              "for call in (lambda: groebner.hilbert_and_grade(ring, [ring.one()], 5),\n"
              "             lambda: groebner.numerator_height(\n"
              "                 groebner.hilbert_numerator(ring, [(1, 0, 0), (0, 0, 0)]))):\n"
              "    try:\n"
              "        call()\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2 and all("unit ideal" in line for line in lines)


def test_regular_table_leaves_numpy_unloaded(tmp_path):
    # the 4-variable, 3-quadric Koszul table at cutoff 12 has cells far above
    # MODULAR_MIN_ENTRIES, but a regular sequence needs none of them
    path = tmp_path / "ladder.zlp"
    path.write_text("[ring]\nvariables = a, b, c, d\ndegrees = 1, 1, 1, 1\n[section]\n"
                    "entries = a^2 - b*c + 3*d^2 : 2, a*b + 2*c^2 - d^2 : 2, "
                    "b^2 - a*d + c*d : 2\n[task]\nkind = homology\ncutoff = 12\n")
    script = ("import sys\n"
              "from zeroloci.cli import main\n"
              "code = main([sys.argv[1], '--json'])\n"
              "print(code, 'numpy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report, last = done.stdout.splitlines()[-2:]
    assert last == "0 False"
    rows = json.loads(report)["tables"]["koszul"]["entries"]
    assert {i for i, _, _ in rows} == {0}
