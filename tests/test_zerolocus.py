"""Presentations, Koszul complexes, symmetric invariants and cotangent complexes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroloci.complexes import exterior_algebra, tensor, unit_complex, zero_complex
from zeroloci.homology import homology_dimensions, same_homology_dims
from zeroloci.polyalg import GradedFreeModule, parse_poly
from zeroloci.zerolocus import (
    PresentationError,
    ZeroLocusPresentation,
    _cosection,
    cotangent_complex,
    critical_locus,
    jacobian_data,
    koszul_complex,
    restrict,
    sym_cofib_invariants,
)

from conftest import ENTRY_DRAWS, RING_X, RING_XY, RING_UV, drawn_entries


def pres(ring, section, ambient=()):
    entries = tuple((parse_poly(t, ring), d) for t, d in section)
    amb = tuple((parse_poly(t, ring), d) for t, d in ambient)
    return ZeroLocusPresentation(ring, amb, entries)


# -- presentation invariants ---------------------------------------------------


def test_presentation_rejects_inhomogeneous():
    with pytest.raises(PresentationError):
        pres(RING_XY, [("x + x*y", 1)])


def test_presentation_rejects_wrong_declared_degree():
    with pytest.raises(PresentationError):
        pres(RING_XY, [("x*y", 3)])


def test_presentation_rejects_nonpositive_degree():
    with pytest.raises(PresentationError):
        pres(RING_X, [("0", 0)])


def test_zero_entries_keep_declared_degree():
    p = pres(RING_X, [("0", 2)])
    assert p.section_degrees == (2,)


# -- koszul complexes ------------------------------------------------------------


def test_koszul_single_regular_element():
    k = koszul_complex(pres(RING_X, [("x", 1)]))
    assert k.support == [-1, 0]
    assert k.term(-1).twists == (1,)
    assert k.differential(-1).entries[0][0] == parse_poly("x", RING_X)


def test_koszul_repeated_section_matrices():
    k = koszul_complex(pres(RING_X, [("x", 1), ("x", 1)]))
    assert [k.term(i).rank for i in (-2, -1, 0)] == [1, 2, 1]
    x = parse_poly("x", RING_X)
    assert k.differential(-1).entries == ((x, x),)
    # the top differential is (x, -x) transposed, up to the fixed sign convention
    column = [row[0] for row in k.differential(-2).entries]
    assert sorted(str(p) for p in column) == ["-x", "x"]
    assert (k.differential(-1) @ k.differential(-2)).is_zero()


def test_koszul_twist_bookkeeping():
    k = koszul_complex(pres(RING_XY, [("x*y", 2), ("x^2", 2)]))
    assert k.term(-2).twists == (4,)
    assert k.term(-1).twists == (2, 2)
    assert k.term(0).twists == (0,)


def test_koszul_empty_presentation_is_unit():
    assert koszul_complex(pres(RING_X, [])) == unit_complex(RING_X)


def test_koszul_of_zero_section_is_exterior_algebra():
    p = pres(RING_XY, [("0", 1), ("0", 2)])
    expected = exterior_algebra(GradedFreeModule(RING_XY, (1, 2)), 2)
    assert koszul_complex(p) == expected


def test_koszul_concatenation_matches_tensor():
    g = [("x", 1)]
    s = [("y", 1), ("x*y", 2)]
    combined = koszul_complex(pres(RING_XY, s, ambient=g))
    split = tensor(koszul_complex(pres(RING_XY, g)), koszul_complex(pres(RING_XY, s)))
    assert combined.support == split.support
    for i in combined.support:
        assert sorted(combined.term(i).twists) == sorted(split.term(i).twists)
    assert same_homology_dims(combined, split, 8).passed


def _assert_koszul_matches_iterated_tensor(p):
    # oracle: the tensor of the entries' two-term complexes, one at a time
    oracle = unit_complex(p.ring)
    for entry in p.all_entries:
        oracle = tensor(oracle, _cosection(p.ring, (entry,)))
    kos = koszul_complex(p)
    if len(p.all_entries) <= 3:
        assert kos == oracle
        return
    assert kos.support == oracle.support
    for i in kos.support:
        assert sorted(kos.term(i).twists) == sorted(oracle.term(i).twists)
    assert homology_dimensions(kos, 6) == homology_dimensions(oracle, 6)


def test_koszul_matches_iterated_tensor_on_corpus(corpus):
    for p in corpus:
        _assert_koszul_matches_iterated_tensor(p)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([RING_XY, RING_UV]), st.lists(ENTRY_DRAWS, max_size=2),
       st.lists(ENTRY_DRAWS, max_size=4))
def test_koszul_matches_iterated_tensor_random(ring, ambient, section):
    p = ZeroLocusPresentation(ring, drawn_entries(ring, ambient), drawn_entries(ring, section))
    _assert_koszul_matches_iterated_tensor(p)


# -- symmetric-power invariants ----------------------------------------------------


def test_sym_invariants_rank_one_equals_koszul():
    p = pres(RING_X, [("x", 1)])
    result = sym_cofib_invariants(p, 2)
    assert not result.truncated
    assert result.complex == koszul_complex(p)


def test_sym_invariants_rank_two_tables():
    p = pres(RING_XY, [("x", 1), ("y", 1)])
    result = sym_cofib_invariants(p, 3)
    w = result.complex
    assert [w.term(i).rank for i in (-2, -1, 0)] == [1, 2, 1]
    assert w.term(-2).twists == (2,)
    assert w.term(-1).twists == (1, 1)
    assert w.term(0).twists == (0,)
    assert same_homology_dims(w, koszul_complex(p), 8).passed


def test_sym_invariants_zero_section():
    p = pres(RING_X, [("0", 1)])
    result = sym_cofib_invariants(p, 1)
    assert result.complex == exterior_algebra(GradedFreeModule(RING_X, (1,)), 1)
    assert not result.truncated


def test_sym_invariants_truncation_flag():
    p = pres(RING_XY, [("x", 1), ("y", 1)])
    result = sym_cofib_invariants(p, 1)
    assert result.truncated
    assert result.complex.support == [-1, 0]


@settings(max_examples=40, deadline=None)
@given(st.lists(ENTRY_DRAWS, max_size=4), st.integers(0, 5))
def test_sym_invariants_terms_are_exterior_powers(drawn, n_max):
    p = ZeroLocusPresentation(RING_XY, (), drawn_entries(RING_XY, drawn))
    w = sym_cofib_invariants(p, n_max).complex
    top = min(n_max, p.rank)
    degrees = p.section_degrees
    for n in range(top + 1):
        subsets = itertools.combinations(range(p.rank), n)
        assert w.term(-n).twists == tuple(sum(degrees[j] for j in sub) for sub in subsets)
    assert w.support == list(range(-top, 1))


def test_sym_invariants_with_derived_ambient():
    p = pres(RING_XY, [("y", 1)], ambient=[("x", 1), ("x", 1)])
    result = sym_cofib_invariants(p, 1)
    kos = koszul_complex(p)
    assert result.complex.support == kos.support
    for i in kos.support:
        assert sorted(result.complex.term(i).twists) == sorted(kos.term(i).twists)
    assert same_homology_dims(result.complex, kos, 6).passed


# -- critical loci -------------------------------------------------------------------


def test_critical_locus_square():
    p = critical_locus(parse_poly("x^2", RING_X))
    assert [(str(f), d) for f, d in p.section] == [("2*x", 1)]


def test_critical_locus_monkey():
    p = critical_locus(parse_poly("x^2*y", RING_XY))
    assert [(str(f), d) for f, d in p.section] == [("2*x*y", 2), ("x^2", 2)]


def test_critical_locus_fermat():
    p = critical_locus(parse_poly("x^3 + y^3", RING_XY))
    assert [(str(f), d) for f, d in p.section] == [("3*x^2", 2), ("3*y^2", 2)]


def test_critical_locus_rejects_inhomogeneous():
    with pytest.raises(PresentationError):
        critical_locus(parse_poly("x^2 + x", RING_X))
    with pytest.raises(PresentationError):
        critical_locus(parse_poly("x", RING_X))


def test_critical_locus_keeps_zero_partial():
    # v-independent potential over the weighted ring
    p = critical_locus(parse_poly("u^4", RING_UV))
    assert [(str(f), d) for f, d in p.section] == [("4*u^3", 3), ("0", 2)]


# -- cotangent complexes ----------------------------------------------------------------


def test_cotangent_single_section():
    p = pres(RING_X, [("x^2", 2)])
    c = cotangent_complex(p)
    expected_jac = jacobian_data(p).matrix
    assert expected_jac.entries[0][0] == parse_poly("2*x", RING_X)
    assert c.support == [-2, -1, 0]
    # H^0 is the module of Kaehler differentials of the truncation: one
    # generator in internal degree 1, killed in degree 2 by the derivative
    table = homology_dimensions(c, 6)
    assert {k: v for k, v in table.entries.items() if k[0] == 0} == {(0, 1): 1}


def test_jacobian_layout_rows_variables_columns_sections():
    p = pres(RING_XY, [("x*y", 2), ("x^2", 2)])
    jac = jacobian_data(p).matrix
    assert [[str(e) for e in row] for row in jac.entries] == [["y", "2*x"], ["x", "0"]]
    assert jac.source.twists == (2, 2)
    assert jac.target.twists == (1, 1)


def test_cotangent_zero_section_splits():
    p = pres(RING_X, [("0", 1)])
    c = cotangent_complex(p)
    assert jacobian_data(p).matrix.is_zero()
    # [bundle dual in degree -1] and [generators in degree 0], both tensored
    # with the exterior algebra; dimensions stay those of the split complex
    assert c.term(-1).rank == 2
    assert c.term(0).rank == 1
    assert c.term(-2).rank == 1


def test_cotangent_rejects_derived_ambient():
    p = pres(RING_XY, [("y", 1)], ambient=[("x", 1)])
    with pytest.raises(PresentationError):
        cotangent_complex(p)


def test_cotangent_twists_independent_of_differential(rng):
    # shape only depends on the degree data
    p1 = pres(RING_XY, [("x*y", 2), ("x^2", 2)])
    p2 = pres(RING_XY, [("y^2", 2), ("x^2 + y^2", 2)])
    c1, c2 = cotangent_complex(p1), cotangent_complex(p2)
    assert c1.support == c2.support
    for i in c1.support:
        assert sorted(c1.term(i).twists) == sorted(c2.term(i).twists)


def test_cotangent_regular_h0_is_kaehler_module():
    # s = (x, y): the truncation is a point, so H^0 vanishes in degrees >= 1
    p = pres(RING_XY, [("x", 1), ("y", 1)])
    table = homology_dimensions(cotangent_complex(p), 6)
    assert {k: v for k, v in table.entries.items() if k[0] == 0} == {}


# -- restriction -------------------------------------------------------------------------


def test_restrict_tor_of_residue_field():
    # frozen by hand: syzygies of (x, x) are generated by e1 - e2 in degree 1,
    # the image of the top differential is x * (e1 - e2)
    p = pres(RING_X, [("x", 1)])
    restricted = restrict(koszul_complex(p), p)
    table = homology_dimensions(restricted, 8)
    assert table.entries == {(0, 0): 1, (-1, 1): 1}


def test_restrict_unit_gives_koszul():
    p = pres(RING_XY, [("x*y", 2)])
    assert restrict(unit_complex(RING_XY), p) == koszul_complex(p)


def test_restrict_zero_complex():
    p = pres(RING_X, [("x", 1)])
    assert restrict(zero_complex(RING_X), p).is_zero()
