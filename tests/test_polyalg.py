"""Polynomials, graded bases and degreewise ranks."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroloci import polyalg
from zeroloci.polyalg import (
    _MAX_COEFFICIENT_BITS,
    _MAX_EXPONENT,
    MODULUS,
    GradedFreeModule,
    GradedRing,
    HomogeneityError,
    ParseError,
    PolyMatrix,
    Polynomial,
    RingMismatch,
    graded_piece_basis,
    graded_piece_dim,
    matrix_rank_in_degree,
    modular_rank,
    parse_poly,
    rational_rank,
)

from conftest import RING_X, RING_XY, dense_matmul, echelon_rank, random_homogeneous
from poly_oracle import parse_poly as oracle_parse_poly

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


@pytest.mark.parametrize("degree", [1.5, 1.0, "2", Fraction(5, 2), Fraction(2), None])
def test_ring_refuses_non_integer_degrees(degree):
    # degrees are read with operator.index, so none is truncated or parsed from text
    with pytest.raises(ValueError, match="variable degrees must be integers"):
        GradedRing(("x", "y"), (degree, 1))


@pytest.mark.parametrize("twist", [2.7, 2.0, "2", Fraction(5, 2), None])
def test_module_refuses_non_integer_twists(twist):
    with pytest.raises(ValueError, match="module twists must be integers"):
        GradedFreeModule(RING_W, (0, twist))


def test_equal_rings_are_one_cache_key():
    a, b = GradedRing(("s", "t"), (1, 3)), GradedRing(["s", "t"], [1, 3])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != GradedRing(("s", "t"), (3, 1)) and a != GradedRing(("t", "s"), (1, 3))
    assert a != (("s", "t"), (1, 3))
    assert graded_piece_dim(a, 40) == 14
    tables, table = len(polyalg._PIECE_COUNTS), polyalg._PIECE_COUNTS[a.degrees]
    assert graded_piece_dim(b, 40) == 14
    assert len(polyalg._PIECE_COUNTS) == tables and polyalg._PIECE_COUNTS[b.degrees] is table


def test_rings_and_modules_are_immutable_values():
    m, n = GradedFreeModule(RING_W, [0, 2]), GradedFreeModule(RING_W, (0, 2))
    assert m is not n and m == n and hash(m) == hash(n)
    assert m != GradedFreeModule(RING_XY, (0, 2)) and m != GradedFreeModule(RING_W, (2, 0))
    for obj, name in ((RING_W, "variables"), (RING_W, "degrees"), (m, "ring"), (m, "twists")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ())
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert RING_W.degrees == (1, 2) and m.twists == (0, 2)
    assert repr(RING_W) == "GradedRing(x:1, y:2)"
    assert repr(m) == "GradedFreeModule(twists=[0, 2])"
    for obj in (RING_W, m):
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_unpickled_ring_hashes_as_in_its_new_process():
    # str hashes differ between processes, so the cached ring hash must not travel
    data = pickle.dumps(GradedRing(("s", "t"), (1, 3)))
    script = ("import pickle, sys\n"
              "from zeroloci.polyalg import GradedRing\n"
              "ring = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(ring) == hash(GradedRing(('s', 't'), (1, 3))))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(polyalg.__file__).parents[1]),
           "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"}
    done = subprocess.run([sys.executable, "-c", script], input=data, env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [b"True"]


def test_unpickled_polynomial_hashes_as_in_its_new_process():
    # a polynomial keeps its hash, which reads str hashes through its ring:
    # hashed before pickling, it must be hashed again where it is unpickled
    ring = GradedRing(("s", "t"), (1, 3))
    p = parse_poly("s^3 - 2/3*t", ring)
    hash(p)
    assert copy.copy(p) == p and hash(copy.deepcopy(p)) == hash(p)
    script = ("import pickle, sys\n"
              "from zeroloci.polyalg import GradedRing, parse_poly\n"
              "p = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(p) == hash(parse_poly('s^3 - 2/3*t', GradedRing(('s', 't'), (1, 3)))))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(polyalg.__file__).parents[1]),
           "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"}
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(p), env=env,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [b"True"]


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


def test_polynomial_refuses_non_integer_exponents():
    # int() would round 1.5 down to 1: x, and 2*x beside a true x
    for terms in ({(1.5, 0): 1}, {(1.5, 0): 1, (1, 0): 1}, {(Fraction(1), 0): 1}):
        with pytest.raises(ValueError, match=r"bad exponent vector \(.*\) for"):
            Polynomial(RING_XY, terms)


def test_parse_takes_ascii_digits_only():
    # an Arabic-Indic three is a Unicode digit, but no literal of the grammar
    with pytest.raises(ParseError, match="unexpected character") as err:
        parse_poly("\u0663*x", RING_XY)
    assert err.value.position == 0


def test_parse_rejects_malformed():
    for text in ("x y", "x ** 2", "x ^ -1", "(x", "3x", "x /2"):
        with pytest.raises(ParseError):
            parse_poly(text, RING_XY)
    # literals too long for int(): refused by their digit count, with a position
    for text, position, message in (
            ("1" + "0" * 5000 + "*x", 0, f"more bits than the limit of {_MAX_COEFFICIENT_BITS}"),
            ("x + 1/" + "1" * 5000, 6, f"more bits than the limit of {_MAX_COEFFICIENT_BITS}"),
            ("x^" + "1" * 5000, 2, f"exponent of 5000 digits exceeds {_MAX_EXPONENT}"),
            ("x^00001001", 2, f"exponent 00001001 exceeds {_MAX_EXPONENT}")):
        with pytest.raises(ParseError, match=message) as err:
            parse_poly(text, RING_XY)
        assert err.value.position == position
    # leading zeros do not count: 2^10000 has 3011 digits, 10^3011 has more bits
    assert parse_poly("0" * 5000 + "3*x^0" + "0" * 5000 + "1", RING_XY) == 3 * RING_XY.variable("x")
    assert len(str(2 ** _MAX_COEFFICIENT_BITS)) == 3011
    parse_poly("9" * 3011, RING_XY)
    with pytest.raises(ParseError, match="3012 digits"):
        parse_poly("1" + "0" * 3011, RING_XY)


# (x + y)^k costs 2 + 4 + ... + 2k term products, so (x + y)^99*1 meets the
# limit of 10000 exactly; zeros are dropped before the products are counted
@pytest.mark.parametrize("text, printed", [
    ("x^2*y - 3/2*y", "x^2*y - 3/2*y"),
    ("(x + y)^3", "x^3 + 3*x^2*y + 3*x*y^2 + y^3"),
    ("(x - x)^1000*y", "0"),
    ("(x - x)^1000*(x + y)^99", "0"),
    ("(x + y)^99*1", None),
    # x^2 - y^2 has two terms, so its 99th power counts 2 + 4 + ... + 198
    ("((x + y)*(x - y))^99", None),
])
def test_parse_results_are_pinned(text, printed):
    p = parse_poly(text, RING_XY)
    assert printed is None or str(p) == printed
    assert all(type(c) is Fraction for c in p.terms.values())


@pytest.mark.parametrize("text", ["(x + y)^100", "(x + y)^99*(x + y)"])
def test_parse_term_products_are_counted_as_pinned(text):
    with pytest.raises(ParseError, match="needs at least 10100 term products"):
        parse_poly(text, RING_XY)


def test_operators_drop_cancelled_terms():
    x, y = RING_XY.variable("x"), RING_XY.variable("y")
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    assert (x - x).terms == (x + -x).terms == (-x + x).terms == {}
    assert all(type(c) is Fraction for c in ((x + 1) * (x - Fraction(1, 2))).terms.values())


_COEFFICIENTS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _COEFFICIENTS,
                       max_size=4), _COEFFICIENTS)
def test_equal_polynomials_hash_equal(terms, scalar):
    p = Polynomial(RING_XY, terms)
    # the same polynomial summed up term by term, in the other order
    q = sum((Polynomial(RING_XY, {e: c}) for e, c in reversed(terms.items())), RING_XY.zero())
    assert p == q and hash(p) == hash(q)
    assert p - q == 0 and hash(p - q) == hash(0)
    constant = Polynomial(RING_XY, {(0, 0): scalar})
    assert constant == scalar and hash(constant) == hash(scalar)
    if scalar.denominator == 1:
        assert constant == int(scalar) and hash(constant) == hash(int(scalar))
    shifted = p + scalar
    assert shifted == q + scalar and hash(shifted) == hash(q + scalar)


# expression trees: a leaf is a variable or a literal a or a/b; a node is
# ("+" | "-" | "*", left, right), ("^", base, k) or ("neg", operand)
_LEAVES = st.one_of(
    st.sampled_from(["x", "y"]),
    st.tuples(st.integers(0, 12), st.one_of(st.none(), st.integers(1, 6))))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from("+-*"), inner, inner),
    st.tuples(st.just("^"), inner, st.integers(0, 3)),
    st.tuples(st.just("neg"), inner)), max_leaves=8)
# the binding of each form: a sum 1, a term 2, a factor 3, an atom 4
_LEVEL = {"+": 1, "-": 1, "neg": 1, "*": 2, "^": 3}


def _render(tree, level: int, parens) -> str:
    """tree as text, in parentheses where its form binds looser than level
    (a leading minus only begins a sum) and where parens draws True."""
    if isinstance(tree, str):
        text, own = tree, 4
    elif isinstance(tree[0], int):
        text, own = str(tree[0]) if tree[1] is None else f"{tree[0]}/{tree[1]}", 4
    elif tree[0] == "neg":
        text, own = "-" + _render(tree[1], 2, parens), 1
    elif tree[0] == "^":
        text, own = f"{_render(tree[1], 4, parens)}^{tree[2]}", 3
    else:
        op, own = tree[0], _LEVEL[tree[0]]
        sep = "*" if op == "*" else f" {op} "
        text = _render(tree[1], own, parens) + sep + _render(tree[2], own + 1, parens)
    return f"({text})" if own < level or parens() else text


def _evaluate(tree, ring):
    """tree by Polynomial operators on ring.variable and Fraction constants."""
    if isinstance(tree, str):
        return ring.variable(tree)
    if isinstance(tree[0], int):
        return ring.one() * Fraction(tree[0], tree[1] or 1)
    if tree[0] == "neg":
        return -_evaluate(tree[1], ring)
    if tree[0] == "^":
        base, out = _evaluate(tree[1], ring), ring.one()
        for _ in range(tree[2]):
            out = out * base
        return out
    left, right = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    return left + right if tree[0] == "+" else left - right if tree[0] == "-" else left * right


@settings(max_examples=150, deadline=None)
@given(_TREES, st.data())
def test_parse_matches_polynomial_operators(tree, data):
    text = _render(tree, 1, lambda: data.draw(st.booleans()))
    p = parse_poly(text, RING_XY)
    assert p == _evaluate(tree, RING_XY), text
    assert all(type(c) is Fraction for c in p.terms.values())
    assert parse_poly(str(p), RING_XY) == p


def _outcome(parse, text: str, ring):
    """The terms in order with their coefficient types, or the ParseError's
    message and position."""
    try:
        p = parse(text, ring)
    except ParseError as exc:
        return str(exc), exc.position
    return [(e, c, type(c)) for e, c in p.terms.items()]


# tokens of the grammar and a few outside it: an unknown name, a Unicode
# digit, a stray symbol, exponents past the limit, zeros
_TOKENS = st.sampled_from(["x", "y", "z", "0", "1", "2", "3", "12", "007", "1024", "+", "-",
                           "*", "/", "^", "(", ")", " ", "^2", "^0", "^999", "^1001", "0/",
                           "\u0663", "$", "_"])


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKENS, max_size=16).map("".join))
def test_parse_agrees_with_the_oracle_on_token_strings(text):
    assert _outcome(parse_poly, text, RING_W) == _outcome(oracle_parse_poly, text, RING_W), text


@settings(max_examples=100, deadline=None)
@given(_TREES, st.data())
def test_parse_agrees_with_the_oracle_on_expression_trees(tree, data):
    text = _render(tree, 1, lambda: data.draw(st.booleans()))
    assert _outcome(parse_poly, text, RING_XY) == _outcome(oracle_parse_poly, text, RING_XY), text


# the limits met by monomials alone, folded into one coefficient and exponent
# list without a term dict: x^1000 counts no product, each step of 1^1000 or of
# the group (x)^1000 one, 0 none
@pytest.mark.parametrize("text, outcome", [
    ("x^1000*" * 10 + "x", [((10001, 0), 1, Fraction)]),
    ("1024^1000", (f"the expression multiplies factors whose largest coefficients have 10004 "
                   f"bits, more than the limit of {_MAX_COEFFICIENT_BITS}", 5)),
    ("1024^999*x*1024^999", (f"the expression multiplies factors whose largest coefficients "
                             f"have 19984 bits, more than the limit of "
                             f"{_MAX_COEFFICIENT_BITS}", 10)),
    ("0^0", [((0, 0), 1, Fraction)]),
    ("0^1000*x", []),
    ("0*(x + y)^1000",
     ("the expression needs at least 10100 term products, more than the limit of 10000", 10)),
    ("1^1000*" * 10 + "x",
     ("the expression needs at least 10001 term products, more than the limit of 10000", 65)),
    ("(x)^1000*" * 10 + "x",
     ("the expression needs at least 10001 term products, more than the limit of 10000", 85)),
])
def test_parse_limits_on_monomials_are_pinned(text, outcome):
    if isinstance(outcome, tuple):
        outcome = (f"{outcome[0]} at position {outcome[1]}", outcome[1])
    assert _outcome(parse_poly, text, RING_XY) == outcome
    assert _outcome(oracle_parse_poly, text, RING_XY) == outcome


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


def test_matrix_entry_checks_keep_their_semantics():
    # constants pass only where the wanted degree is 0; an equal ring built
    # separately is the same ring, a different one is refused
    one, x = RING_X.one(), RING_X.variable("x")
    flat, twisted = GradedFreeModule(RING_X, (0,)), GradedFreeModule(RING_X, (1,))
    assert PolyMatrix(flat, flat, [[one * 3]]).entries == ((one * 3,),)
    with pytest.raises(HomogeneityError):
        PolyMatrix(twisted, flat, [[one]])
    with pytest.raises(HomogeneityError):
        PolyMatrix(flat, flat, [[x + one]])
    same = GradedRing(("x",), (1,))
    assert same is not RING_X
    PolyMatrix(GradedFreeModule(same, (1,)), flat, [[x]])
    with pytest.raises(RingMismatch):
        PolyMatrix(twisted, flat, [[GradedRing(("y",), (1,)).variable("y")]])
    with pytest.raises(RingMismatch):
        PolyMatrix(GradedFreeModule(RING_XY, (0,)), flat, [[RING_XY.one()]])


def test_partial_derivative():
    p = parse_poly("x^2*y + y^3", RING_XY)
    assert p.partial(0) == parse_poly("2*x*y", RING_XY)
    assert p.partial(1) == parse_poly("x^2 + 3*y^2", RING_XY)
