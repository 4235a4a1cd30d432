"""Exact arithmetic over Q for graded polynomial rings.

Polynomials carry a single positive Z-grading (each variable has a weight
>= 1, so every graded piece is finite dimensional).  Coefficients are
`fractions.Fraction`; there is no floating point anywhere in this package.
Homogeneous matrices between twisted free modules reduce, degree by degree,
to finite matrices over Q whose ranks are computed by sparse integer row
reduction with gcd normalisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
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
    "matrix_rank_in_degree",
    "rational_rank",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
# each level of parentheses costs the recursive-descent parser four stack
# frames; this bound keeps any input well clear of the interpreter's limit
_MAX_NESTING = 100
# powers are repeated products, one per unit of the exponent
_MAX_EXPONENT = 1000


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


class Polynomial:
    """Element of a GradedRing: finite map from exponent vectors to nonzero rationals."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: Mapping[tuple[int, ...], Fraction]):
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != ring.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {ring!r}")
            clean[exps] = clean.get(exps, Fraction(0)) + c
        self.ring = ring
        self.terms = {e: c for e, c in clean.items() if c != 0}

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

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatch("polynomials over different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.ring, {(0,) * self.ring.nvars: Fraction(other)})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

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

    def coefficient(self, exponents: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: rationals (a or a/b), variables, + - * ^, parens."""

    def __init__(self, tokens, ring: GradedRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind == "op" and value == symbol:
            return self.advance()
        raise ParseError(f"expected {symbol!r}", pos)

    def parse_expr(self) -> Polynomial:
        kind, value, pos = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.advance()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.parse_term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def parse_term(self) -> Polynomial:
        acc = self.parse_factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "num":
                raise ParseError("expected a nonnegative integer exponent", pos)
            if int(value) > _MAX_EXPONENT:
                raise ParseError(f"exponent {value} exceeds {_MAX_EXPONENT}", pos)
            self.advance()
            return base ** int(value)
        return base

    def parse_base(self) -> Polynomial:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            numer = int(value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.advance()
                kind3, value3, pos3 = self.peek()
                if kind3 != "num":
                    raise ParseError("expected a denominator", pos3)
                self.advance()
                if int(value3) == 0:
                    raise ParseError("zero denominator", pos3)
                c = Fraction(numer, int(value3))
            else:
                c = Fraction(numer)
            return Polynomial(self.ring, {(0,) * self.ring.nvars: c})
        if kind == "ident":
            self.advance()
            try:
                return self.ring.variable(value)
            except KeyError:
                raise ParseError(f"unknown variable {value!r}", pos) from None
        if kind == "op" and value == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.advance()
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.expect_op(")")
            return inner
        raise ParseError("expected a number, variable or parenthesis", pos)


def parse_poly(text: str, ring: GradedRing) -> Polynomial:
    """Parse a polynomial expression; print/parse round-trips exactly."""
    parser = _Parser(_tokenize(text), ring)
    poly = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected {value!r}", pos)
    return poly


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
        return sum(len(graded_piece_basis(self.ring, d - a)) for a in self.twists)

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
        if source.ring != target.ring:
            raise RingMismatch("matrix endpoints over different rings")
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError(
                f"entry shape {len(rows)}x{len(rows[0]) if rows else 0} does not match "
                f"target rank {target.rank} x source rank {source.rank}")
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if p.ring != source.ring:
                    raise RingMismatch("matrix entry over a different ring")
                if p.is_zero():
                    continue
                want = source.twists[j] - target.twists[i]
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
        """Composite self o other (other applied first)."""
        if other.target.twists != self.source.twists or other.target.ring != self.source.ring:
            raise ValueError("composition shape mismatch")
        ring = self.source.ring
        rows = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = ring.zero()
                for k in range(self.source.rank):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return PolyMatrix(other.source, self.target, rows)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (other.source.twists, other.target.twists) != (self.source.twists, self.target.twists):
            raise ValueError("sum shape mismatch")
        rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return PolyMatrix(self.source, self.target, rows)

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.source, self.target,
                          [[-p for p in row] for row in self.entries])

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix(self.source, self.target,
                          [[p * c for p in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    def degree_matrix(self, d: int) -> tuple[list[list[Fraction]], int, int]:
        """The induced linear map on degree-d pieces as a dense Q-matrix.

        Returns (rows, nrows, ncols); rows are indexed by the target basis
        of degree d, columns by the source basis.
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


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """Sparse integer representative of a rational row (scaling preserves rank)."""
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        sparse = {c: x.numerator for c, x in enumerate(row) if x}
    else:
        sparse = {c: int(x * lcm) for c, x in enumerate(row) if x}
    if sparse:
        g = 0
        for v in sparse.values():
            g = gcd(g, v)
        if g > 1:
            sparse = {c: v // g for c, v in sparse.items()}
    return sparse


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by sparse integer row reduction with gcd normalisation."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for dense in rows:
        row = _integer_row(dense)
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
    rows, nrows, ncols = m.degree_matrix(d)
    if nrows == 0 or ncols == 0:
        return 0
    return rational_rank(rows)
