"""Shift, cone, tensor, dual, Sym and Lambda on small complexes."""

import pytest

from zeroloci.complexes import (
    MAX_GENERATORS,
    ChainMap,
    Complex,
    ComplexInvariantError,
    WorkLimitError,
    cone,
    direct_sum,
    dual,
    exterior_algebra,
    identity_chain_map,
    koszul_contractions,
    module_complex,
    module_map_chain,
    shift,
    sym_two_term,
    tensor,
    twist_complex,
    unit_complex,
    zero_complex,
)
from zeroloci.gtheory import kclass_of_complex
from zeroloci.homology import homology_dimensions
from zeroloci.polyalg import GradedFreeModule, PolyMatrix, parse_poly
from zeroloci.zerolocus import ZeroLocusPresentation, koszul_complex

from conftest import RING_X, RING_XY, random_homogeneous


def kos_line(ring, text, twist):
    """Two-term complex [R(-twist) --poly--> R] in degrees -1, 0."""
    poly = parse_poly(text, ring)
    m = PolyMatrix(GradedFreeModule(ring, (twist,)), GradedFreeModule(ring, (0,)), [[poly]])
    return cone(module_map_chain(m))


def random_complexes(rng, count=8):
    """Valid complexes assembled from Koszul lines, shifts, twists and sums."""
    out = []
    for _ in range(count):
        c = kos_line(RING_XY, "x", 1)
        c = tensor(c, kos_line(RING_XY, "y" if rng.random() < 0.5 else "x + y", 1))
        if rng.random() < 0.5:
            c = tensor(c, kos_line(RING_XY, "x*y", 2))
        if rng.random() < 0.4:
            c = shift(c, rng.choice((-1, 1)))
        if rng.random() < 0.4:
            c = direct_sum(c, twist_complex(c, rng.randint(0, 2)))
        out.append(c)
    return out


@pytest.mark.parametrize("degree", [1.5, 1.0, "1", None])
def test_complex_refuses_non_integer_degrees(degree):
    # int() would round 1.5 down: a complex supported in degree 1
    module = GradedFreeModule(RING_X, (0,))
    with pytest.raises(ValueError, match="cohomological degrees must be integers"):
        Complex(RING_X, {degree: module}, {})
    zero = PolyMatrix.zero(module, module)
    with pytest.raises(ValueError, match="cohomological degrees must be integers"):
        Complex(RING_X, {0: module, 1: module}, {degree: zero})


# -- shift ---------------------------------------------------------------------


def test_shift_zero_is_identity():
    c = kos_line(RING_X, "x", 1)
    assert shift(c, 0) == c


def test_shift_reindexes():
    c = module_complex(GradedFreeModule(RING_X, (0,)), degree=0)
    assert shift(c, -1).support == [1]


def test_shift_inverse():
    c = tensor(kos_line(RING_XY, "x", 1), kos_line(RING_XY, "y", 1))
    assert shift(shift(c, 1), -1) == c
    assert shift(shift(c, -2), 2) == c


# -- cone ----------------------------------------------------------------------


def test_cone_of_section_is_koszul_line():
    c = kos_line(RING_X, "x", 1)
    assert c.support == [-1, 0]
    assert c.term(-1).twists == (1,)
    assert c.term(0).twists == (0,)
    assert c.differential(-1).entries[0][0] == parse_poly("x", RING_X)


def test_cone_of_identity_is_exact():
    c = tensor(kos_line(RING_XY, "x", 1), kos_line(RING_XY, "y", 1))
    mapping_cone = cone(identity_chain_map(c))
    assert homology_dimensions(mapping_cone, 8).entries == {}


def test_cone_of_zero_map_splits():
    z = RING_X.zero()
    m = PolyMatrix(GradedFreeModule(RING_X, (1,)), GradedFreeModule(RING_X, (0,)), [[z]])
    c = cone(module_map_chain(m))
    assert c.term(-1).twists == (1,)
    assert c.term(0).twists == (0,)
    assert c.differentials == {}


def test_cone_euler_additivity(rng):
    # class of the cone = class of target - class of source
    base = tensor(kos_line(RING_XY, "x", 1), kos_line(RING_XY, "y", 1))
    for phi_deg in (1, 2):
        phi = random_homogeneous(RING_XY, phi_deg, rng)
        src = twist_complex(base, phi_deg)
        comps = {i: PolyMatrix(src.term(i), base.term(i),
                               [[phi if a == b else RING_XY.zero()
                                 for b in range(src.term(i).rank)]
                                for a in range(base.term(i).rank)])
                 for i in base.support}
        f = ChainMap(src, base, comps)
        lhs = kclass_of_complex(cone(f))
        assert lhs == kclass_of_complex(base) - kclass_of_complex(src)


# -- tensor ----------------------------------------------------------------------


def test_tensor_of_lines_is_koszul_pair():
    t = tensor(kos_line(RING_XY, "x", 1), kos_line(RING_XY, "y", 1))
    assert [t.term(i).rank for i in (-2, -1, 0)] == [1, 2, 1]
    assert t.term(-2).twists == (2,)
    assert t.term(-1).twists == (1, 1)


def test_tensor_unit():
    c = tensor(kos_line(RING_XY, "x*y", 2), kos_line(RING_XY, "x", 1))
    assert tensor(c, unit_complex(RING_XY)) == c
    assert tensor(unit_complex(RING_XY), c) == c


def test_tensor_sign_rule_consistency():
    # d o d = 0 is validated on construction
    t = tensor(kos_line(RING_XY, "x*y", 2), kos_line(RING_XY, "x^2", 2))
    assert t.term(-2).twists == (4,)


def test_tensor_with_zero_complex():
    c = kos_line(RING_X, "x", 1)
    assert tensor(c, zero_complex(RING_X)).is_zero()


def test_tensor_associativity_termwise():
    a = kos_line(RING_XY, "x", 1)
    b = kos_line(RING_XY, "y", 1)
    c = kos_line(RING_XY, "x*y", 2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.support == right.support
    for i in left.support:
        assert sorted(left.term(i).twists) == sorted(right.term(i).twists)


# -- dual ------------------------------------------------------------------------


def test_dual_negates_twists():
    c = module_complex(GradedFreeModule(RING_X, (2,)))
    assert dual(c).term(0).twists == (-2,)


def test_dual_of_koszul_line():
    d = dual(kos_line(RING_X, "x", 1))
    assert d.support == [0, 1]
    assert d.term(1).twists == (-1,)
    assert d.term(0).twists == (0,)


def test_dual_involution(rng):
    for c in random_complexes(rng, count=6):
        assert dual(dual(c)) == c


# -- exterior algebra ---------------------------------------------------------------


def test_exterior_rank_one():
    e = exterior_algebra(GradedFreeModule(RING_X, (1,)), 3)
    assert e.term(0).twists == (0,)
    assert e.term(-1).twists == (1,)
    assert e.support == [-1, 0]


def test_exterior_subset_sums():
    e = exterior_algebra(GradedFreeModule(RING_X, (1, 2)), 2)
    assert e.term(0).twists == (0,)
    assert e.term(-1).twists == (1, 2)
    assert e.term(-2).twists == (3,)


def test_exterior_of_zero_bundle():
    e = exterior_algebra(GradedFreeModule(RING_X, ()), 5)
    assert e == unit_complex(RING_X)


def test_exterior_truncation():
    e = exterior_algebra(GradedFreeModule(RING_XY, (1, 1, 1)), 1)
    assert e.support == [-1, 0]


# -- symmetric powers of two-term complexes ------------------------------------------


def test_koszul_contractions_by_hand():
    # e_1 ^ e_3 ^ e_4 contracts to e_3 ^ e_4, -e_1 ^ e_4 and e_1 ^ e_3
    assert koszul_contractions((1, 3, 4)) == [(1, (3, 4), 1), (3, (1, 4), -1), (4, (1, 3), 1)]
    assert koszul_contractions(()) == []


def test_sym_one_is_identity():
    a = kos_line(RING_X, "x", 1)
    assert sym_two_term(a, 1) == a


def test_sym_zero_is_unit():
    a = kos_line(RING_X, "x", 1)
    assert sym_two_term(a, 0) == unit_complex(RING_X)


def test_sym_of_zero_section():
    z = RING_X.zero()
    m = PolyMatrix(GradedFreeModule(RING_X, (1,)), GradedFreeModule(RING_X, (0,)), [[z]])
    a = cone(module_map_chain(m))
    s = sym_two_term(a, 2)
    assert [s.term(i).rank for i in (-2, -1, 0)] == [0, 1, 1]
    assert s.differentials == {}


def test_sym_rank_two_dimension_count():
    x, y = parse_poly("x", RING_XY), parse_poly("y", RING_XY)
    m = PolyMatrix(GradedFreeModule(RING_XY, (1, 1)), GradedFreeModule(RING_XY, (0,)),
                   [[x, y]])
    a = cone(module_map_chain(m))
    s = sym_two_term(a, 2)
    assert [s.term(i).rank for i in (-2, -1, 0)] == [1, 2, 1]
    # chi-invariance cross-check of the dimension count
    table = homology_dimensions(s, 6)
    for d in range(7):
        chi_terms = sum((-1) ** (i % 2) * s.term(i).graded_dim(d) for i in s.support)
        chi_hom = sum((-1) ** (i % 2) * table.dim(i, d)
                      for i in table.cohomological_degrees())
        assert chi_terms == chi_hom


def test_sym_binomial_term_ranks():
    # rank of the degree -i term of Sym^n is C(r, i) while i <= n
    from math import comb
    polys = [parse_poly(t, RING_XY) for t in ("x", "y", "x + y")]
    m = PolyMatrix(GradedFreeModule(RING_XY, (1, 1, 1)), GradedFreeModule(RING_XY, (0,)),
                   [polys])
    a = cone(module_map_chain(m))
    for n in range(4):
        s = sym_two_term(a, n)
        for i in range(min(n, 3) + 1):
            assert s.term(-i).rank == comb(3, i)


def test_sym_rejects_unsupported_shapes():
    wide = module_complex(GradedFreeModule(RING_X, (0, 0)))
    with pytest.raises(ComplexInvariantError):
        sym_two_term(wide, 2)
    long = shift(kos_line(RING_X, "x", 1), 1)
    with pytest.raises(ComplexInvariantError):
        sym_two_term(long, 2)


# -- invariants -----------------------------------------------------------------------


def test_d_squared_enforced():
    x = parse_poly("x", RING_X)
    one = RING_X.one()
    r0 = GradedFreeModule(RING_X, (0,))
    r1 = GradedFreeModule(RING_X, (1,))
    with pytest.raises(ComplexInvariantError):
        Complex(RING_X, {-2: r1, -1: r1, 0: r0},
                {-2: PolyMatrix(r1, r1, [[one]]), -1: PolyMatrix(r1, r0, [[x]])})


def test_chain_map_commutation_enforced():
    # identity in degree -1 with zero in degree 0 cannot commute with d = x
    a = kos_line(RING_X, "x", 1)
    bad = {-1: PolyMatrix.identity(a.term(-1))}
    with pytest.raises(ComplexInvariantError):
        ChainMap(a, a, bad)
    assert identity_chain_map(a).component(-1).entries[0][0] == RING_X.one()


def test_generator_limit_refuses_before_building():
    # 2^10 generators is the limit itself; one more entry doubles the count
    assert MAX_GENERATORS == 2 ** 10
    assert len(exterior_algebra(GradedFreeModule(RING_X, (1,) * 10), 10).terms) == 11
    with pytest.raises(WorkLimitError, match="2048 generators"):
        exterior_algebra(GradedFreeModule(RING_X, (1,) * 11), 11)
    x = parse_poly("x", RING_X)
    bundle, line = GradedFreeModule(RING_X, (1,) * 11), GradedFreeModule(RING_X, (0,))
    cosection = Complex(RING_X, {-1: bundle, 0: line},
                        {-1: PolyMatrix(bundle, line, [[x] * 11])})
    with pytest.raises(WorkLimitError, match="2048 generators"):
        sym_two_term(cosection, 11)
    with pytest.raises(WorkLimitError, match="2048 generators"):
        koszul_complex(ZeroLocusPresentation(RING_X, ((x, 1),) * 5, ((x, 1),) * 6))
    a = exterior_algebra(GradedFreeModule(RING_X, (1,) * 6), 6)
    b = exterior_algebra(GradedFreeModule(RING_X, (1,) * 5), 5)
    with pytest.raises(WorkLimitError, match=f"2048 generators, more than the limit of "
                                             f"{MAX_GENERATORS}"):
        tensor(a, b)


def test_direct_sum_terms():
    a = kos_line(RING_X, "x", 1)
    s = direct_sum(a, a)
    assert s.term(-1).twists == (1, 1)
    assert s.term(0).twists == (0, 0)
    assert kclass_of_complex(s).coeffs == {0: 2, 1: -2}
