"""Acceptance battery: each test certifies one exact criterion and prints a verdict line.

The corpus in conftest covers regular, repeated, non-regular, zero-section
and derived-ambient presentations.  Every comparison is exact; the timing
bounds are generous and guard against algorithmic regressions.
"""

import time

import pytest

from zeroloci.complexes import (
    Complex,
    ComplexInvariantError,
    ChainMap,
    cone,
    dual,
    identity_chain_map,
    shift,
    tensor,
    unit_complex,
)
from zeroloci.gtheory import (
    KClass,
    kclass_of_complex,
    kclass_via_homology,
    lambda_minus_one,
    verify_excess,
    verify_quantum_lefschetz,
    verify_strong_factorization,
    verify_sym_ga,
    vpull,
)
from zeroloci.homology import (
    default_cutoff,
    euler_characteristics_match,
    homology_dimensions,
)
from zeroloci.polyalg import GradedFreeModule, PolyMatrix, graded_piece_basis
from zeroloci.zerolocus import (
    ZeroLocusPresentation,
    cotangent_complex,
    koszul_complex,
    sym_cofib_invariants,
)

from conftest import (
    RING_X,
    RING_XY,
    build_corpus,
    derived_ambient_corpus,
    echelon_rank,
    random_homogeneous,
)
from test_zerolocus import pres


def announce(number, label, elapsed, limit):
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {limit}s)")


def test_criterion_1_structure_sheaf_formula(corpus):
    started = time.perf_counter()
    assert len(corpus) >= 12
    for p in corpus:
        cmp = verify_sym_ga(p, default_cutoff(p))
        assert cmp.passed, (p, cmp.witness)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(1, f"sym invariants match Koszul tables on {len(corpus)} presentations",
             elapsed, 60)


def test_criterion_2_excess_intersection(corpus):
    started = time.perf_counter()
    for p in corpus:
        # the certified table against the table of the self-intersection kos (x) kos itself
        kos, cutoff = koszul_complex(p), default_cutoff(p)
        result = verify_excess(p, cutoff)
        assert result.table_restricted == homology_dimensions(tensor(kos, kos), cutoff), p
    # the divisor instance must reproduce the hand-computed self-Tor tables
    divisor = verify_excess(pres(RING_X, [("x", 1)]), 8)
    assert divisor.table_restricted.entries == {(0, 0): 1, (-1, 1): 1}
    assert divisor.table_euler.entries == {(0, 0): 1, (-1, 1): 1}
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(2, f"excess intersection tables agree on {len(corpus)} presentations",
             elapsed, 10)


def test_criterion_3_quantum_lefschetz(corpus):
    started = time.perf_counter()
    for p in corpus:
        verdict = verify_quantum_lefschetz(p, unit_complex(p.ring))
        assert verdict.passed, (p, str(verdict.lhs), str(verdict.rhs))
    non_regular = verify_quantum_lefschetz(
        pres(RING_XY, [("x*y", 2), ("x^2", 2)]), unit_complex(RING_XY))
    assert non_regular.lhs == KClass.parse("1 - 2*t^2 + t^4")
    assert non_regular.rhs == lambda_minus_one([2, 2])
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(3, "class-level pushforward identities, including the non-regular pair",
             elapsed, 5)


def test_criterion_4_section_independence(rng):
    started = time.perf_counter()
    checked = 0
    for degree_list in ((1,), (1, 1), (2, 2), (1, 2)):
        expected = lambda_minus_one(degree_list)
        for _ in range(100):
            section = tuple(
                (random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                for d in degree_list)
            p = ZeroLocusPresentation(RING_XY, (), section)
            assert kclass_of_complex(koszul_complex(p)) == expected
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(4, f"Koszul class equals the Euler class on {checked} random sections",
             elapsed, 30)


def test_criterion_5_vpull_functoriality(rng):
    started = time.perf_counter()
    for _ in range(50):
        degrees_1 = tuple(rng.choice((1, 1, 2)) for _ in range(rng.randint(1, 2)))
        degrees_2 = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 2)))
        s1 = tuple((random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                   for d in degrees_1)
        s2 = tuple((random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                   for d in degrees_2)
        p1 = ZeroLocusPresentation(RING_XY, (), s1)
        p2 = ZeroLocusPresentation(RING_XY, (), s2)
        combined = ZeroLocusPresentation(RING_XY, (), s1 + s2)
        kappa = KClass({0: rng.randint(-2, 3), 1: rng.randint(-2, 2),
                        2: rng.randint(-1, 1)})
        assert vpull(p2, vpull(p1, kappa)) == vpull(combined, kappa)
        # base independence: swapping the polynomials leaves the value fixed
        alt = tuple((random_homogeneous(RING_XY, d, rng, allow_zero=True), d)
                    for d in degrees_1)
        assert vpull(ZeroLocusPresentation(RING_XY, (), alt), kappa) == vpull(p1, kappa)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(5, "pullback composition and base independence on 50 random pairs",
             elapsed, 10)


def test_criterion_6_strong_factorization():
    started = time.perf_counter()
    instances = derived_ambient_corpus()
    assert len(instances) >= 6
    for p in instances:
        verdict = verify_strong_factorization(p)
        assert verdict.passed, (p, str(verdict.lhs), str(verdict.rhs))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(6, f"ambient-times-Euler factorization on {len(instances)} derived ambients",
             elapsed, 10)


def test_criterion_7_engine_soundness(corpus, rng):
    started = time.perf_counter()

    battery = []
    for p in corpus:
        kos = koszul_complex(p)
        battery.append(kos)
        battery.append(sym_cofib_invariants(p, p.rank).complex)
        battery.append(tensor(kos, kos))
        if not p.ambient:
            battery.append(cotangent_complex(p))
        battery.append(dual(kos))
        battery.append(shift(kos, 1))
    for c in battery:
        assert euler_characteristics_match(c, 8)
        twists = [a for i in c.support for a in c.term(i).twists]
        if twists and min(twists) >= 0:
            # class invariance: the homology route reconstructs the class
            assert kclass_via_homology(c) == kclass_of_complex(c)

    # d^2 = 0 and chain-map commutation are construction-time invariants
    x = RING_X.variable("x")
    one = RING_X.one()
    line0 = GradedFreeModule(RING_X, (0,))
    line1 = GradedFreeModule(RING_X, (1,))
    with pytest.raises(ComplexInvariantError):
        Complex(RING_X, {-2: line1, -1: line1, 0: line0},
                {-2: PolyMatrix(line1, line1, [[one]]),
                 -1: PolyMatrix(line1, line0, [[x]])})
    kos_x = koszul_complex(pres(RING_X, [("x", 1)]))
    with pytest.raises(ComplexInvariantError):
        ChainMap(kos_x, kos_x, {-1: PolyMatrix.identity(kos_x.term(-1))})

    # homology of the cone on an isomorphism vanishes
    for _ in range(10):
        section = tuple((random_homogeneous(RING_XY, d, rng), d)
                        for d in (1, rng.choice((1, 2))))
        c = koszul_complex(ZeroLocusPresentation(RING_XY, (), section))
        assert homology_dimensions(cone(identity_chain_map(c)), 12).entries == {}

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(7, f"chi invariance on {len(battery)} complexes, invariant enforcement, "
                "exact cones", elapsed, 60)


def test_criterion_8_oracle_equivalence():
    started = time.perf_counter()
    regular = [
        pres(RING_X, [("x", 1)]),
        pres(RING_XY, [("x", 1), ("y", 1)]),
        pres(RING_XY, [("x^2 + y^2", 2)]),
        pres(RING_XY, [("x + y", 1), ("x*y", 2)]),
    ]
    for p in regular:
        ring = p.ring
        table = homology_dimensions(koszul_complex(p), 12)
        for d in range(13):
            ring_dim = len(graded_piece_basis(ring, d))
            # independent assembly: the multiplication matrix of the section,
            # reduced by the test-local echelon form
            rows = []
            index = {m: k for k, m in enumerate(graded_piece_basis(ring, d))}
            for poly, deg in p.section:
                for mu in graded_piece_basis(ring, d - deg):
                    row = [0] * ring_dim
                    for exps, c in poly.terms.items():
                        row[index[tuple(a + b for a, b in zip(exps, mu))]] = c
                    rows.append(row)
            span = echelon_rank(rows) if rows else 0
            assert table.dim(0, d) == ring_dim - span, (p, d)
    elapsed = time.perf_counter() - started
    announce(8, "quotient dimensions match the independent multiplication-matrix "
                "oracle up to degree 12", elapsed, 60)
