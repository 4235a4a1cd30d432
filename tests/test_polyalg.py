"""Polynomials, graded bases and degreewise ranks."""

from fractions import Fraction

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroloci.polyalg import (
    MODULUS,
    GradedFreeModule,
    GradedRing,
    ParseError,
    PolyMatrix,
    Polynomial,
    graded_piece_basis,
    graded_piece_dim,
    matrix_rank_in_degree,
    modular_rank,
    parse_poly,
    rational_rank,
)

from conftest import RING_X, RING_XY, dense_matmul, echelon_rank, random_homogeneous

RING_W = GradedRing(("x", "y"), (1, 2))


# -- ring validation ---------------------------------------------------------


def test_ring_rejects_bad_input():
    with pytest.raises(ValueError):
        GradedRing(("x", "x"), (1, 1))
    with pytest.raises(ValueError):
        GradedRing(("x",), (0,))
    with pytest.raises(ValueError):
        GradedRing(("2x",), (1,))
    with pytest.raises(ValueError):
        GradedRing(("x", "y"), (1,))


# -- parsing -------------------------------------------------------------------


def test_parse_example():
    p = parse_poly("x^2*y - 3/2*y", RING_XY)
    assert p.terms == {(2, 1): Fraction(1), (0, 1): Fraction(-3, 2)}


def test_parse_zero():
    assert parse_poly("0", RING_XY).terms == {}
    assert parse_poly("x - x", RING_X).is_zero()


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + ", RING_X)
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_poly("x + z", RING_XY)
    assert "z" in str(err.value)
    assert err.value.position == 4


def test_parse_parens_and_powers():
    p = parse_poly("(x + y)^2", RING_XY)
    assert p == parse_poly("x^2 + 2*x*y + y^2", RING_XY)
    assert parse_poly("x^0", RING_X) == RING_X.one()


def test_parse_nesting_bound():
    assert parse_poly("(" * 100 + "x" + ")" * 100, RING_X) == RING_X.variable("x")
    with pytest.raises(ParseError) as err:
        parse_poly("(" * 101 + "x" + ")" * 101, RING_X)
    assert err.value.position == 100


def test_parse_rejects_malformed():
    for text in ("x y", "x ** 2", "x ^ -1", "(x", "3x", "x /2"):
        with pytest.raises(ParseError):
            parse_poly(text, RING_XY)


def _polys(ring, max_exp=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms))


@settings(max_examples=60, deadline=None)
@given(_polys(RING_XY))
def test_print_parse_roundtrip(p):
    assert parse_poly(str(p), RING_XY) == p


@settings(max_examples=40, deadline=None)
@given(_polys(RING_XY, max_exp=2, max_terms=3),
       _polys(RING_XY, max_exp=2, max_terms=3),
       _polys(RING_XY, max_exp=2, max_terms=3))
def test_commutative_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + RING_XY.zero() == a
    assert a * RING_XY.one() == a


# -- graded bases --------------------------------------------------------------


def test_basis_examples():
    assert graded_piece_basis(RING_XY, 2) == ((2, 0), (1, 1), (0, 2))
    assert graded_piece_basis(RING_W, 2) == ((2, 0), (0, 1))
    assert graded_piece_basis(RING_XY, 0) == ((0, 0),)
    assert graded_piece_basis(RING_XY, -1) == ()


@pytest.mark.parametrize("ring", [RING_X, RING_XY, RING_W, GradedRing(("a", "b", "c"), (1, 2, 3))])
def test_basis_generating_function(ring):
    # sizes must match the coefficients of prod_i 1/(1 - t^deg_i)
    cutoff = 10
    series = [1] + [0] * cutoff
    for d in ring.degrees:
        new = [0] * (cutoff + 1)
        for k in range(0, cutoff + 1, d):
            for j in range(cutoff + 1 - k):
                new[j + k] += series[j]
        series = new
    for d in range(cutoff + 1):
        assert len(graded_piece_basis(ring, d)) == series[d]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=4), st.integers(-2, 12))
def test_graded_piece_dim_counts_the_basis(degrees, d):
    ring = GradedRing(tuple(f"x{i}" for i in range(len(degrees))), tuple(degrees))
    assert graded_piece_dim(ring, d) == len(graded_piece_basis(ring, d))


# -- matrix ranks ---------------------------------------------------------------


def test_rank_hand_elimination_example():
    # (x  x): R(-1)^2 -> R in degree 1 reduces to the 1x2 matrix [1 1] over Q
    x = RING_X.variable("x")
    m = PolyMatrix(GradedFreeModule(RING_X, (1, 1)), GradedFreeModule(RING_X, (0,)),
                   [[x, x]])
    assert matrix_rank_in_degree(m, 1) == 1
    rows, _, _ = m.degree_matrix(1)
    assert echelon_rank(rows) == 1


def test_rank_identity_and_zero():
    module = GradedFreeModule(RING_XY, (1, 1, 2))
    ident = PolyMatrix.identity(module)
    zero = PolyMatrix.zero(module, module)
    for d in range(7):
        assert matrix_rank_in_degree(ident, d) == module.graded_dim(d)
        assert matrix_rank_in_degree(zero, d) == 0


def test_rank_negative_degree_is_zero():
    x = RING_X.variable("x")
    m = PolyMatrix(GradedFreeModule(RING_X, (1,)), GradedFreeModule(RING_X, (0,)), [[x]])
    assert matrix_rank_in_degree(m, -3) == 0


def test_rank_bounded_by_dimensions(rng):
    for _ in range(25):
        src_twists = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        tgt_twists = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        source = GradedFreeModule(RING_XY, src_twists)
        target = GradedFreeModule(RING_XY, tgt_twists)
        rows = [[random_homogeneous(RING_XY, a - b, rng, allow_zero=True)
                 for a in src_twists] for b in tgt_twists]
        m = PolyMatrix(source, target, rows)
        for d in range(5):
            r = matrix_rank_in_degree(m, d)
            assert r <= min(source.graded_dim(d), target.graded_dim(d))
            dense, _, _ = m.degree_matrix(d)
            assert r == echelon_rank(dense)


def test_degree_rows_scale_the_dense_layout(rng):
    # one positive factor clears every denominator; layout and support are the dense ones
    for _ in range(10):
        src_twists = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        tgt_twists = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        rows = [[random_homogeneous(RING_XY, a - b, rng, allow_zero=True)
                 * Fraction(1, rng.randint(1, 4)) for a in src_twists] for b in tgt_twists]
        m = PolyMatrix(GradedFreeModule(RING_XY, src_twists),
                       GradedFreeModule(RING_XY, tgt_twists), rows)
        for d in range(4):
            sparse, ncols = m.degree_rows(d)
            dense, nrows, dense_cols = m.degree_matrix(d)
            assert (len(sparse), ncols) == (nrows, dense_cols)
            ratios = {Fraction(row[c]) / dense[r][c] for r, row in enumerate(sparse) for c in row}
            assert len(ratios) <= 1 and all(q > 0 for q in ratios)
            assert all(set(row) == {c for c, x in enumerate(dense[r]) if x}
                       for r, row in enumerate(sparse))


@st.composite
def _integer_matrices(draw):
    """Small integer matrices; some rows are another row plus MODULUS times themselves."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4), st.integers(-2**70, 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for j in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        k = draw(st.integers(0, nrows - 1))
        rows[j] = [a + MODULUS * b for a, b in zip(rows[k], rows[j])]
    return rows


@settings(max_examples=60, deadline=None)
@given(_integer_matrices())
def test_modular_rank_is_a_lower_bound(dense):
    sparse = [{c: v for c, v in enumerate(row) if v} for row in dense]
    exact = echelon_rank(dense)
    assert rational_rank(sparse) == exact
    assert modular_rank(sparse, len(dense[0])) <= exact


def test_modular_rank_drops_when_the_prime_divides_a_minor():
    # det [[1, 1], [1, 1 + p]] = p: rank 2 over Q, 1 mod p
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + MODULUS}]
    assert rational_rank(rows) == 2
    assert modular_rank(rows, 2) == 1
    assert modular_rank([], 3) == modular_rank([{}], 0) == 0


def _random_matrix(source, target, rng, zero_rows=(), zero_cols=()):
    """Homogeneous entries (zero where the degree is negative), with chosen zero rows/columns."""
    def entry(i, j):
        degree = source.twists[j] - target.twists[i]
        if i in zero_rows or j in zero_cols or degree < 0:
            return RING_XY.zero()
        scale = Fraction(1, rng.randint(1, 3))
        return random_homogeneous(RING_XY, degree, rng, allow_zero=True) * scale

    return PolyMatrix(source, target, [[entry(i, j) for j in range(source.rank)]
                                       for i in range(target.rank)])


TWISTS = st.lists(st.integers(0, 3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(TWISTS, TWISTS, TWISTS, st.integers(0, 2**16), st.lists(st.integers(0, 3), max_size=3),
       st.lists(st.integers(0, 3), max_size=3))
def test_sparse_matmul_matches_dense(outer, middle, inner, seed, zero_rows, zero_cols):
    # a o b with whole zero rows of a and zero columns of b, against the dense triple loop
    rng = random.Random(seed)
    source, mid, target = (GradedFreeModule(RING_XY, t) for t in (inner, middle, outer))
    a = _random_matrix(mid, target, rng, zero_rows=zero_rows)
    b = _random_matrix(source, mid, rng, zero_cols=zero_cols)
    assert a @ b == dense_matmul(a, b)


def test_matrix_homogeneity_enforced():
    x = RING_X.variable("x")
    with pytest.raises(ValueError):
        PolyMatrix(GradedFreeModule(RING_X, (2,)), GradedFreeModule(RING_X, (0,)), [[x]])


def test_partial_derivative():
    p = parse_poly("x^2*y + y^3", RING_XY)
    assert p.partial(0) == parse_poly("2*x*y", RING_XY)
    assert p.partial(1) == parse_poly("x^2 + 3*y^2", RING_XY)
