"""Exact arithmetic over Q for graded polynomial rings.

Polynomials carry a single positive Z-grading (each variable has a weight
>= 1, so every graded piece is finite dimensional).  Coefficients are
`fractions.Fraction`; there is no floating point anywhere in this package.
Terms are a dict {exponent tuple: coefficient} with no zero value;
`_add_terms` and `_times` sum and multiply such dicts for the operators and
for `parse_poly`, whose recursive descent keeps integer coefficients as int
and makes one validated `Polynomial` per expression.  Homogeneous matrices between twisted free modules reduce, degree by degree,
to finite matrices over Q, assembled as sparse integer rows (the rational
matrix times one positive integer, so ranks are unchanged).  Two kernels take
their rank: `rational_rank`, exact sparse integer row reduction with gcd
normalisation, and `modular_rank`, dense elimination mod the prime MODULUS
in numpy int64, whose result is only a lower bound on the rank over Q;
`homology` certifies it before use.  numpy is imported inside
`modular_rank`, so importing the package does not load it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, log10
from operator import add
from typing import Mapping, Sequence

__all__ = [
    "GradedRing",
    "Polynomial",
    "GradedFreeModule",
    "PolyMatrix",
    "ParseError",
    "RingMismatch",
    "HomogeneityError",
    "parse_poly",
    "graded_piece_basis",
    "graded_piece_dim",
    "matrix_rank_in_degree",
    "rational_rank",
    "modular_rank",
    "MODULUS",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
# each level of parentheses costs the recursive-descent parser four stack
# frames; this bound keeps any input well clear of the interpreter's limit
_MAX_NESTING = 100
# powers are repeated products, one per unit of the exponent
_MAX_EXPONENT = 1000
# but a product costs one step per pair of terms, so one parse may form at
# most this many pairs, powers included (an a-term times a b-term polynomial
# counts a * b).  Reaching it takes about 0.01 s (Python 3.11, 2 cores); the
# largest count met is 31 in the benchmark workloads, and 110 in the tests
# outside the checks of this limit
_MAX_TERM_PRODUCTS = 10000
# and before each product the largest coefficients of the two factors may
# have at most this many bits together (numerator plus denominator each).  A
# coefficient of the product is a sum of such products, so this bounds the
# factors, not exactly the product.  A product at the limit takes
# microseconds; the largest factor met in the tests has 32 bits
# (2147483630), in the benchmark workloads 3
_MAX_COEFFICIENT_BITS = 10000
# a number literal with more digits than 2^_MAX_COEFFICIENT_BITS has more bits
_MAX_COEFFICIENT_DIGITS = int(_MAX_COEFFICIENT_BITS * log10(2)) + 1
# the prime of `modular_rank`: below 2^31, so a product of two residues fits int64
MODULUS = 2147483629


class ParseError(ValueError):
    """Syntax error in a polynomial expression; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class RingMismatch(ValueError):
    """Operands live over different rings."""


class HomogeneityError(ValueError):
    """A matrix entry or section fails its required homogeneity."""


@dataclass(frozen=True)
class GradedRing:
    """Q[x_1, ..., x_n] with deg(x_i) = degrees[i] >= 1."""

    variables: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if len(self.variables) != len(self.degrees):
            raise ValueError("one degree per variable required")
        for name in self.variables:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be distinct")
        for d in self.degrees:
            if d < 1:
                raise ValueError("variable degrees must be >= 1")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def weighted_degree(self, exponents: Sequence[int]) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def variable_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: Fraction(1)})

    def variable(self, name: str) -> "Polynomial":
        i = self.variable_index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def __repr__(self):
        vs = ", ".join(f"{v}:{d}" for v, d in zip(self.variables, self.degrees))
        return f"GradedRing({vs})"


@lru_cache(maxsize=None)
def graded_piece_basis(ring: GradedRing, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of weighted degree d, in descending lex order.

    Empty for d < 0.  The order is fixed so matrix layouts are reproducible.
    """
    if d < 0:
        return ()
    out: list[tuple[int, ...]] = []

    def fill(index: int, remaining: int, prefix: tuple[int, ...]):
        if index == ring.nvars:
            if remaining == 0:
                out.append(prefix)
            return
        if index == ring.nvars - 1:
            w = ring.degrees[index]
            if remaining % w == 0:
                out.append(prefix + (remaining // w,))
            return
        w = ring.degrees[index]
        for e in range(remaining // w, -1, -1):
            fill(index + 1, remaining - e * w, prefix + (e,))

    if ring.nvars == 0:
        return ((),) if d == 0 else ()
    fill(0, d, ())
    return tuple(out)


# one count table per ring: counts[k] = graded_piece_dim(ring, k) for k < len(counts)
_PIECE_COUNTS: dict[GradedRing, list[int]] = {}


def graded_piece_dim(ring: GradedRing, d: int) -> int:
    """len(graded_piece_basis(ring, d)), counted without enumerating the monomials.

    Built variable by variable: counts[k] is the number of monomials of
    weighted degree k in the variables seen so far, and each variable of
    weight w adds counts[k - w].  The ring's table is rebuilt at twice its
    length when d runs past its end, so a window of W degrees costs O(W).
    """
    if d < 0:
        return 0
    counts = _PIECE_COUNTS.get(ring, ())
    if d >= len(counts):
        size = max(d + 1, 2 * len(counts))
        counts = [1] + [0] * (size - 1)
        for w in ring.degrees:
            for k in range(w, size):
                counts[k] += counts[k - w]
        _PIECE_COUNTS[ring] = counts
    return counts[d]


@lru_cache(maxsize=None)
def _basis_position(ring: GradedRing, d: int) -> dict[tuple[int, ...], int]:
    """Exponent vector -> its index in `graded_piece_basis(ring, d)`."""
    return {exps: k for k, exps in enumerate(graded_piece_basis(ring, d))}


def _add_terms(acc: dict, terms: Mapping, subtract: bool = False) -> dict:
    """acc + terms (or acc - terms) for term dicts with no zero value, formed
    in acc, which is returned; a term that cancels is dropped."""
    for e, c in terms.items():
        c = acc.get(e, 0) - c if subtract else acc.get(e, 0) + c
        if c:
            acc[e] = c
        else:
            del acc[e]
    return acc


def _times(a: Mapping, b: Mapping) -> dict:
    """The product of two term dicts with no zero value; a term that cancels is dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                del out[e]
    return out


class Polynomial:
    """Element of a GradedRing: finite map from exponent vectors to nonzero rationals."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms: dict[tuple[int, ...], Fraction] = {}
        for exps, c in terms.items():
            c = Fraction(c)
            if c:
                exps = tuple(int(e) for e in exps)
                if len(exps) != ring.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for {ring!r}")
                _add_terms(self.terms, {exps: c})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Common weighted degree of all terms; None for the zero polynomial."""
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise HomogeneityError(f"{self} is not homogeneous")
        return degs.pop()

    # -- arithmetic ------------------------------------------------------

    @classmethod
    def _trusted(cls, ring: GradedRing, terms: dict) -> "Polynomial":
        """A polynomial on terms already valid for ring, not checked again."""
        p = object.__new__(cls)
        p.ring, p.terms = ring, terms
        return p

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("polynomials over different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.ring, {(0,) * self.ring.nvars: Fraction(other)})
        return NotImplemented

    def _sum(self, other, subtract: bool):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Polynomial._trusted(self.ring, _add_terms(dict(self.terms), other.terms, subtract))

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.ring, _add_terms({}, self.terms, True))

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._trusted(self.ring, _times(self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def partial(self, var_index: int) -> "Polynomial":
        """Partial derivative with respect to the var_index-th variable."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k == 0:
                continue
            e2 = list(e)
            e2[var_index] = k - 1
            terms[tuple(e2)] = terms.get(tuple(e2), Fraction(0)) + c * k
        return Polynomial(self.ring, terms)

    # -- printing --------------------------------------------------------

    def _monomial_str(self, exps: tuple[int, ...]) -> str:
        parts = []
        for name, k in zip(self.ring.variables, exps):
            if k == 0:
                continue
            parts.append(name if k == 1 else f"{name}^{k}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            mono = self._monomial_str(exps)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else "-" + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# a token, or `bad`: the first character that starts none
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text: str):
    """(kind, text, position) per token, then ("eof", "", len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start(kind))
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: rationals (a or a/b), variables, + - * ^, parens.

    Each rule returns a new term dict {exponent tuple: int or Fraction} with
    no zero value, so `+` and `-` add into it in place.
    """

    def __init__(self, text: str, ring: GradedRing):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ring = ring
        self.constant = (0,) * ring.nvars
        self.depth = 0
        self.products = 0

    def at(self, symbol: str) -> bool:
        kind, value, _ = self.tokens[self.i]
        return kind == "op" and value == symbol

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def multiply(self, a: dict, b: dict, pos: int) -> dict:
        """a * b, counted against _MAX_TERM_PRODUCTS and _MAX_COEFFICIENT_BITS
        before it is formed."""
        self.products += len(a) * len(b)
        if self.products > _MAX_TERM_PRODUCTS:
            raise ParseError(f"the expression needs at least {self.products} term products, "
                             f"more than the limit of {_MAX_TERM_PRODUCTS}", pos)
        bits = _coefficient_bits(a) + _coefficient_bits(b)
        if bits > _MAX_COEFFICIENT_BITS:
            raise ParseError(f"the expression multiplies factors whose largest coefficients "
                             f"have {bits} bits, more than the limit of "
                             f"{_MAX_COEFFICIENT_BITS}", pos)
        return _times(a, b)

    def number(self) -> int:
        """The next token, a number literal, refused by its digit count before
        int() reads it when it has more than _MAX_COEFFICIENT_BITS bits."""
        _, value, pos = self.advance()
        digits = value.lstrip("0")
        if len(digits) > _MAX_COEFFICIENT_DIGITS:
            raise ParseError(f"a number of {len(digits)} digits has more bits than the limit "
                             f"of {_MAX_COEFFICIENT_BITS}", pos)
        return int(digits or "0")

    def parse_expr(self) -> dict:
        negate = self.at("-")
        self.i += negate
        acc = self.parse_term()
        if negate:
            acc = _add_terms({}, acc, True)
        while self.at("+") or self.at("-"):
            subtract = self.advance()[1] == "-"
            _add_terms(acc, self.parse_term(), subtract)
        return acc

    def parse_term(self) -> dict:
        acc = self.parse_factor()
        while self.at("*"):
            pos = self.advance()[2]
            acc = self.multiply(acc, self.parse_factor(), pos)
        return acc

    def parse_factor(self) -> dict:
        base = self.parse_base()
        if not self.at("^"):
            return base
        self.i += 1
        kind, value, pos = self.advance()
        if kind != "num":
            raise ParseError("expected a nonnegative integer exponent", pos)
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            shown = value if len(value) <= 20 else f"of {len(value)} digits"
            raise ParseError(f"exponent {shown} exceeds {_MAX_EXPONENT}", pos)
        out = {self.constant: 1}
        for _ in range(int(digits)):
            out = self.multiply(out, base, pos)
        return out

    def parse_base(self) -> dict:
        kind, value, pos = self.tokens[self.i]
        if kind == "num":
            c = self.number()
            if self.at("/"):
                self.i += 1
                kind, _, pos = self.tokens[self.i]
                if kind != "num":
                    raise ParseError("expected a denominator", pos)
                denominator = self.number()
                if denominator == 0:
                    raise ParseError("zero denominator", pos)
                c = Fraction(c, denominator)
            return {self.constant: c} if c else {}
        self.i += 1
        if kind == "ident":
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            i = self.ring.variables.index(value)
            return {self.constant[:i] + (1,) + self.constant[i + 1:]: 1}
        if kind == "op" and value == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            if not self.at(")"):
                raise ParseError("expected ')'", self.tokens[self.i][2])
            self.i += 1
            return inner
        raise ParseError("expected a number, variable or parenthesis", pos)


def _coefficient_bits(terms: Mapping) -> int:
    """The most bits of a coefficient in a term dict, numerator plus denominator."""
    # a plain loop: a generator under max() took twice as long
    bits = 0
    for c in terms.values():
        n = c.numerator.bit_length() + c.denominator.bit_length()
        if n > bits:
            bits = n
    return bits


def parse_poly(text: str, ring: GradedRing) -> Polynomial:
    """Parse a polynomial expression; print/parse round-trips exactly."""
    parser = _Parser(text, ring)
    terms = parser.parse_expr()
    kind, value, pos = parser.tokens[parser.i]
    if kind != "eof":
        raise ParseError(f"unexpected {value!r}", pos)
    return Polynomial(ring, terms)


# ---------------------------------------------------------------------------
# graded free modules and homogeneous matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedFreeModule:
    """Direct sum of twisted copies of the ring: generator j has internal degree twists[j]."""

    ring: GradedRing
    twists: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(int(a) for a in self.twists))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def graded_dim(self, d: int) -> int:
        return sum(graded_piece_dim(self.ring, d - a) for a in self.twists)

    def basis_in_degree(self, d: int) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (generator index, monomial exponent) spanning the degree-d piece."""
        out = []
        for j, a in enumerate(self.twists):
            for exps in graded_piece_basis(self.ring, d - a):
                out.append((j, exps))
        return out

    def dual(self) -> "GradedFreeModule":
        return GradedFreeModule(self.ring, tuple(-a for a in self.twists))

    def __repr__(self):
        return f"GradedFreeModule(twists={list(self.twists)})"


class PolyMatrix:
    """Homogeneous map of graded free modules, entry (i, j) of degree twists_src[j] - twists_tgt[i]."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule,
                 entries: Sequence[Sequence[Polynomial]]):
        ring = source.ring
        if target.ring is not ring and target.ring != ring:
            raise RingMismatch("matrix endpoints over different rings")
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError(
                f"entry shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
                f"target rank {target.rank} x source rank {source.rank}")
        constant = (0,) * ring.nvars
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                # identity first: the dataclass == compares both rings field by field
                if p.ring is not ring and p.ring != ring:
                    raise RingMismatch("matrix entry over a different ring")
                if p.is_zero():
                    continue
                want = source.twists[j] - target.twists[i]
                if want == 0 and len(p.terms) == 1 and constant in p.terms:
                    continue
                if p.homogeneous_degree() != want:
                    raise HomogeneityError(
                        f"entry ({i},{j}) = {p} must be homogeneous of degree {want}")
        self.source = source
        self.target = target
        self.entries = rows

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, source: GradedFreeModule, target: GradedFreeModule) -> "PolyMatrix":
        z = source.ring.zero()
        return cls(source, target, [[z] * source.rank for _ in range(target.rank)])

    @classmethod
    def identity(cls, module: GradedFreeModule) -> "PolyMatrix":
        one, zero = module.ring.one(), module.ring.zero()
        n = module.rank
        return cls(module, module, [[one if i == j else zero for j in range(n)]
                                    for i in range(n)])

    # -- algebra ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Composite self o other (other applied first).

        Sparse: each nonzero entry of a row of self meets only the nonzero
        entries of the matching row of other, summed in ascending k.
        """
        if other.target.twists != self.source.twists or other.target.ring != self.source.ring:
            raise ValueError("composition shape mismatch")
        zero = self.source.ring.zero()
        other_rows = [[(j, b) for j, b in enumerate(row) if not b.is_zero()]
                      for row in other.entries]
        rows = []
        for entry_row in self.entries:
            acc: dict[int, Polynomial] = {}
            for k, a in enumerate(entry_row):
                if a.is_zero():
                    continue
                for j, b in other_rows[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows.append([acc.get(j, zero) for j in range(other.source.rank)])
        return PolyMatrix(other.source, self.target, rows)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (other.source.twists, other.target.twists) != (self.source.twists, self.target.twists):
            raise ValueError("sum shape mismatch")
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return PolyMatrix(self.source, self.target, rows)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.source, self.target,
                          [[-p for p in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    def degree_rows(self, d: int) -> tuple[list[dict[int, int]], int]:
        """The induced linear map on degree-d pieces as sparse integer rows.

        Returns (rows, ncols): one {column: value} dict per target basis
        element of degree d, columns indexed by the source basis, columns
        ascending.  The whole matrix is scaled by the lcm of the
        coefficient denominators, which leaves every rank unchanged.
        """
        scale = 1
        for row in self.entries:
            for p in row:
                for c in p.terms.values():
                    scale = scale * c.denominator // gcd(scale, c.denominator)
        ring = self.source.ring
        offsets, position = [], []
        nrows = 0
        for a in self.target.twists:
            offsets.append(nrows)
            position.append(_basis_position(ring, d - a))
            nrows += len(position[-1])
        rows: list[dict[int, int]] = [{} for _ in range(nrows)]
        col = 0
        for j, a in enumerate(self.source.twists):
            terms = [(offsets[i], position[i], exps, c.numerator * (scale // c.denominator))
                     for i, entry_row in enumerate(self.entries)
                     for exps, c in entry_row[j].terms.items()]
            for mu in graded_piece_basis(ring, d - a):
                for offset, where, exps, value in terms:
                    rows[offset + where[tuple(map(add, exps, mu))]][col] = value
                col += 1
        return rows, col

    def degree_matrix(self, d: int) -> tuple[list[list[Fraction]], int, int]:
        """The degree-d piece as a dense Q-matrix: a reference layout for tests.

        Returns (rows, nrows, ncols) in the layout of `degree_rows`.  Ranks
        are not computed from it.
        """
        src_basis = self.source.basis_in_degree(d)
        tgt_basis = self.target.basis_in_degree(d)
        ncols, nrows = len(src_basis), len(tgt_basis)
        row_index = {}
        for r, (i, exps) in enumerate(tgt_basis):
            row_index[(i, exps)] = r
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for c, (j, mu) in enumerate(src_basis):
            for i in range(self.target.rank):
                p = self.entries[i][j]
                if p.is_zero():
                    continue
                for exps, coeff in p.terms.items():
                    shifted = tuple(a + b for a, b in zip(exps, mu))
                    r = row_index.get((i, shifted))
                    if r is not None:
                        rows[r][c] = rows[r][c] + coeff
        return rows, nrows, ncols

    def __repr__(self):
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"


def rational_rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows by row reduction with gcd normalisation."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                rank += 1
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            merged: dict[int, int] = {}
            for c, v in row.items():
                merged[c] = v * a
            for c, v in pivot.items():
                w = merged.get(c, 0) - v * b
                if w:
                    merged[c] = w
                elif c in merged:
                    del merged[c]
            g = 0
            for v in merged.values():
                g = gcd(g, v)
            if g > 1:
                merged = {c: v // g for c, v in merged.items()}
            row = merged
    return rank


def matrix_rank_in_degree(m: PolyMatrix, d: int) -> int:
    """Rank over Q of the degree-d piece of a homogeneous matrix."""
    rows, ncols = m.degree_rows(d)
    if not rows or not ncols:
        return 0
    return rational_rank(rows)


def modular_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank mod MODULUS of sparse integer rows, by dense int64 elimination.

    A lower bound on the rank over Q: a minor that vanishes over the
    integers vanishes mod p.  Residues stay below 2^31, so products fit int64.
    """
    if not rows or not ncols:
        return 0
    import numpy as np

    a = np.zeros((len(rows), ncols), dtype=np.int64)
    for r, row in enumerate(rows):
        if row:
            a[r, list(row)] = [v % MODULUS for v in row.values()]
    rank = 0
    for col in range(ncols):
        hits = np.flatnonzero(a[rank:, col])
        if not hits.size:
            continue
        pivot = rank + hits[0]
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        below = rank + hits[1:]
        if below.size:
            head = a[rank, col:] * pow(int(a[rank, col]), -1, MODULUS) % MODULUS
            a[below, col:] = (a[below, col:] - a[below, col, None] * head) % MODULUS
        rank += 1
        if rank == len(rows):
            break
    return rank
