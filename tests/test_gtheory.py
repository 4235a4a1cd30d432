"""K-polynomial classes, Euler classes and the identity verifiers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroloci.complexes import dual, exterior_algebra, shift, tensor, unit_complex
from zeroloci.gtheory import (
    CrossCheckError,
    KClass,
    complex_from_kclass,
    kclass_of_complex,
    kclass_via_homology,
    lambda_minus_one,
    verify_excess,
    verify_quantum_lefschetz,
    verify_strong_factorization,
    verify_sym_ga,
    virtual_class,
    vpull,
    vpull_via_homology,
)
from zeroloci.homology import homology_dimensions
from zeroloci.polyalg import GradedFreeModule
from zeroloci.zerolocus import (
    PresentationError,
    ZeroLocusPresentation,
    koszul_complex,
    sym_cofib_invariants,
)

from conftest import (
    ENTRY_DRAWS,
    RING_X,
    RING_XY,
    derived_ambient_corpus,
    drawn_entries,
    random_homogeneous,
)
from test_zerolocus import pres


# -- KClass basics -----------------------------------------------------------------


def test_kclass_printing():
    assert str(KClass({0: 1, 1: -2, 2: 1})) == "1 - 2*t + t^2"
    assert str(KClass({0: 1, 1: -1})) == "1 - t"
    assert str(KClass({})) == "0"
    assert str(KClass({-1: 1, 3: 5})) == "t^-1 + 5*t^3"


def test_kclass_parse_roundtrip():
    for text in ("1 - 2*t + t^2", "1 - t", "0", "3*t^4 - 7"):
        assert str(KClass.parse(text)) == str(KClass.parse(str(KClass.parse(text))))


def test_kclass_arithmetic():
    one_minus_t = KClass({0: 1, 1: -1})
    assert one_minus_t * one_minus_t == KClass({0: 1, 1: -2, 2: 1})
    assert one_minus_t - one_minus_t == KClass.zero()


# -- classes of complexes --------------------------------------------------------------


def test_kclass_examples():
    assert kclass_of_complex(koszul_complex(pres(RING_X, [("x", 1)]))) == KClass.parse("1 - t")
    assert kclass_of_complex(koszul_complex(
        pres(RING_X, [("x", 1), ("x", 1)]))) == KClass.parse("1 - 2*t + t^2")
    assert kclass_of_complex(koszul_complex(
        pres(RING_XY, [("x*y", 2), ("x^2", 2)]))) == KClass.parse("1 - 2*t^2 + t^4")


def test_kclass_shift_flips_sign():
    c = koszul_complex(pres(RING_X, [("x", 1)]))
    assert kclass_of_complex(shift(c, 1)) == -kclass_of_complex(c)


@settings(max_examples=30, deadline=None)
@given(st.lists(ENTRY_DRAWS, max_size=2), st.integers(0, 1),
       st.lists(ENTRY_DRAWS, max_size=1), st.lists(ENTRY_DRAWS, max_size=3))
def test_kclass_multiplicative_under_tensor(operand, operand_shift, ambient, section):
    a = koszul_complex(pres(RING_XY, [("x", 1)]))
    b = koszul_complex(pres(RING_XY, [("x*y", 2)]))
    assert kclass_of_complex(tensor(a, b)) == kclass_of_complex(a) * kclass_of_complex(b)
    # random (operand, presentation) pairs; the product complex is the oracle
    # for the class-level left side of verify_quantum_lefschetz
    m = shift(koszul_complex(ZeroLocusPresentation(RING_XY, (), drawn_entries(RING_XY, operand))),
              operand_shift)
    p = ZeroLocusPresentation(RING_XY, drawn_entries(RING_XY, ambient),
                              drawn_entries(RING_XY, section))
    kos = koszul_complex(p)
    product = kclass_of_complex(tensor(m, kos))
    assert product == kclass_of_complex(m) * kclass_of_complex(kos)
    assert verify_quantum_lefschetz(p, m).lhs == product


def test_kclass_homology_route_agrees():
    for section in ([("x", 1)], [("x", 1), ("x", 1)], [("0", 2)]):
        c = koszul_complex(pres(RING_X, section))
        assert kclass_via_homology(c) == kclass_of_complex(c)


def test_kclass_homology_route_rejects_negative_twists():
    c = dual(koszul_complex(pres(RING_X, [("x", 1)])))
    with pytest.raises(ValueError):
        kclass_via_homology(c)


# -- lambda_{-1} -------------------------------------------------------------------------


def test_lambda_minus_one_values():
    assert lambda_minus_one([]) == KClass.one()
    assert lambda_minus_one([1]) == KClass.parse("1 - t")
    assert lambda_minus_one([2, 3]) == KClass.parse("1 - t^2 - t^3 + t^5")


def test_lambda_minus_one_rejects_nonpositive():
    with pytest.raises(ValueError):
        lambda_minus_one([0])


# -- virtual classes -----------------------------------------------------------------------


def test_virtual_class_regular_divisor():
    assert virtual_class(pres(RING_X, [("x", 1)])) == KClass.parse("1 - t")


def test_virtual_class_repeated_homology_route():
    # homology route: (1 - t) - t*(1 - t) = (1 - t)^2, frozen by hand
    assert virtual_class(pres(RING_X, [("x", 1), ("x", 1)])) == KClass.parse("1 - 2*t + t^2")


def test_virtual_class_zero_section():
    assert virtual_class(pres(RING_X, [("0", 1)])) == KClass.parse("1 - t")


# -- quantum Lefschetz ------------------------------------------------------------------------


def test_lefschetz_rank_one():
    verdict = verify_quantum_lefschetz(pres(RING_X, [("x", 1)]), unit_complex(RING_X))
    assert verdict.passed
    assert verdict.lhs == KClass.parse("1 - t")


def test_lefschetz_non_regular():
    verdict = verify_quantum_lefschetz(
        pres(RING_XY, [("x*y", 2), ("x^2", 2)]), unit_complex(RING_XY))
    assert verdict.passed
    assert verdict.lhs == KClass.parse("1 - 2*t^2 + t^4")
    assert verdict.rhs == lambda_minus_one([2, 2])


def test_lefschetz_with_koszul_operand():
    p = pres(RING_X, [("x", 1)])
    verdict = verify_quantum_lefschetz(p, koszul_complex(p))
    assert verdict.passed
    assert verdict.lhs == KClass.parse("1 - 2*t + t^2")


def test_lefschetz_includes_ambient_degrees():
    p = pres(RING_XY, [("y", 1)], ambient=[("x", 1)])
    verdict = verify_quantum_lefschetz(p, unit_complex(RING_XY))
    assert verdict.passed
    assert verdict.rhs == lambda_minus_one([1, 1])


# -- excess intersection -----------------------------------------------------------------------


def test_excess_divisor_tables():
    result = verify_excess(pres(RING_X, [("x", 1)]), 8)
    assert result.passed
    assert result.table_restricted.entries == {(0, 0): 1, (-1, 1): 1}
    assert result.table_euler.entries == {(0, 0): 1, (-1, 1): 1}


def test_excess_zero_section_literal():
    result = verify_excess(pres(RING_XY, [("0", 1)]), 8)
    assert result.passed


def test_excess_non_regular():
    result = verify_excess(pres(RING_XY, [("x*y", 2), ("x^2", 2)]), 8)
    assert result.passed
    assert result.table_restricted.entries  # nontrivial tables


def test_excess_rhs_matches_product_table(corpus):
    # oracle: the table of the product complex kos (x) Lambda(E) itself
    for p in corpus:
        kos = koszul_complex(p)
        bundle = GradedFreeModule(p.ring, p.all_degrees)
        product = tensor(kos, exterior_algebra(bundle, bundle.rank))
        assert verify_excess(p, 6).table_euler == homology_dimensions(product, 6)


# -- symmetric invariants comparison ---------------------------------------------------------------


@pytest.mark.parametrize("section", [
    [("x", 1)],
    [("x", 1), ("x", 1)],
])
def test_sym_ga_small(section):
    p = pres(RING_X, section)
    assert verify_sym_ga(p, 8).passed


def test_sym_ga_pair():
    assert verify_sym_ga(pres(RING_XY, [("x", 1), ("y", 1)]), 8).passed


def test_sym_ga_equal_complexes_share_one_table():
    for section in ([("x*y", 2), ("x^2", 2), ("y", 1)],
                    [("x", 1), ("y", 1), ("x + y", 1), ("x*y", 2)]):
        p = pres(RING_XY, section)
        assert sym_cofib_invariants(p, p.rank).complex == koszul_complex(p)
        cmp = verify_sym_ga(p, 8)
        assert cmp.passed
        assert cmp.table_a == cmp.table_b == homology_dimensions(koszul_complex(p), 8)


def test_sym_ga_four_entries_compares_two_tables():
    # the invariants tensor a three-entry ambient Koszul complex with the
    # section's exterior powers; that basis order differs from the subset
    # layout of the four-entry Koszul complex, so the complexes are unequal
    p = pres(RING_XY, [("x*y", 2)], ambient=[("x", 1), ("y", 1), ("x + y", 1)])
    assert sym_cofib_invariants(p, p.rank).complex != koszul_complex(p)
    cmp = verify_sym_ga(p, 6)
    assert cmp.passed
    assert cmp.table_a.entries


def test_sym_ga_truncated_fails():
    cmp = verify_sym_ga(pres(RING_XY, [("x", 1), ("y", 1)]), 8, n_max=1)
    assert not cmp.passed
    assert cmp.witness is not None


# -- virtual pullbacks ------------------------------------------------------------------------------


def test_vpull_divisor():
    assert vpull(pres(RING_X, [("x", 1)]), KClass.one()) == KClass.parse("1 - t")


def test_vpull_product():
    p = pres(RING_XY, [("y", 1)])
    assert vpull(p, KClass.parse("1 - t")) == KClass.parse("1 - 2*t + t^2")


def test_vpull_functoriality_example():
    kappa = KClass.one()
    p1 = pres(RING_XY, [("x", 1)])
    p2 = pres(RING_XY, [("y", 1)])
    combined = pres(RING_XY, [("x", 1), ("y", 1)])
    assert vpull(p2, vpull(p1, kappa)) == vpull(combined, kappa)
    assert vpull(p2, vpull(p1, kappa)) == KClass.parse("1 - 2*t + t^2")


def test_vpull_homology_route_agrees():
    p = pres(RING_XY, [("x*y", 2)])
    kappa = KClass.parse("1 + t")
    representative = complex_from_kclass(RING_XY, kappa)
    assert kclass_of_complex(representative) == kappa
    assert vpull_via_homology(p, representative) == vpull(p, kappa)


def test_vpull_ignores_differentials(rng):
    # base independence: only the degree list enters
    reference = None
    for _ in range(10):
        section = tuple((random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                        for d in (1, 2))
        p = ZeroLocusPresentation(RING_XY, (), section)
        value = vpull(p, KClass.parse("1 + t"))
        if reference is None:
            reference = value
        assert value == reference


# -- strong factorization ------------------------------------------------------------------------------


def test_strong_factorization_examples():
    p = pres(RING_XY, [("y", 1)], ambient=[("x", 1), ("x", 1)])
    verdict = verify_strong_factorization(p)
    assert verdict.passed
    assert verdict.lhs == KClass.parse("1 - 3*t + 3*t^2 - t^3")

    p2 = pres(RING_XY, [("y", 1)], ambient=[("x^2", 2)])
    assert verify_strong_factorization(p2).passed

    p3 = pres(RING_XY, [("0", 2)], ambient=[("x", 1)])
    verdict3 = verify_strong_factorization(p3)
    assert verdict3.passed
    assert verdict3.lhs == lambda_minus_one([1]) * lambda_minus_one([2])


def test_strong_factorization_corpus():
    for p in derived_ambient_corpus():
        assert verify_strong_factorization(p).passed


def test_strong_factorization_needs_ambient():
    with pytest.raises(PresentationError):
        verify_strong_factorization(pres(RING_X, [("x", 1)]))


# -- section independence ------------------------------------------------------------------------------


def test_koszul_class_depends_only_on_degrees(rng):
    for degree_list in ((1,), (1, 1), (2,), (1, 2)):
        expected = lambda_minus_one(degree_list)
        for _ in range(10):
            section = tuple((random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                            for d in degree_list)
            p = ZeroLocusPresentation(RING_XY, (), section)
            assert kclass_of_complex(koszul_complex(p)) == expected
