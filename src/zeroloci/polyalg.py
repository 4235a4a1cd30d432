"""Exact arithmetic over Q for graded polynomial rings.

Polynomials carry a single positive Z-grading (each variable has a weight
>= 1, so every graded piece is finite dimensional).  Coefficients are
`fractions.Fraction`; there is no floating point anywhere in this package.
Terms are a dict {exponent tuple: coefficient} with no zero value;
`_add_terms` and `_times` sum and multiply such dicts for the operators and
for `parse_poly`, whose recursive descent keeps integer coefficients as int
and makes one validated `Polynomial` per expression.  Twisted free modules
count their graded pieces without enumerating them (`graded_piece_dim`).
Homogeneous matrices, their degree pieces and the rank kernels live in the
chain-level layer, `chains`, which loads on first use; this module forwards
their names there (`forward_to_chains`).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import log10
from operator import add, index

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


class ParseError(ValueError):
    """Syntax error in a polynomial expression; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class RingMismatch(ValueError):
    """Operands live over different rings."""


class HomogeneityError(ValueError):
    """A matrix entry or section fails its required homogeneity."""


class Record:
    """Frozen value class: its fields are the __slots__, set by `_init`, read by ==, hash, repr."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__, which checks again
        return type(self), self._values()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")
    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class GradedRing(Record):
    """Q[x_1, ..., x_n] with deg(x_i) = degrees[i] >= 1."""

    __slots__ = ("variables", "degrees", "_hash")

    def __init__(self, variables: Sequence[str], degrees: Sequence[int]):
        variables = tuple(variables)
        try:
            degrees = tuple(map(index, degrees))
        except TypeError:
            raise ValueError(f"variable degrees must be integers, not {degrees!r}") from None
        if len(variables) != len(degrees):
            raise ValueError("one degree per variable required")
        for name in variables:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be distinct")
        if any(d < 1 for d in degrees):
            raise ValueError("variable degrees must be >= 1")
        self._init(variables, degrees, hash((variables, degrees)))

    def _values(self) -> tuple:  # _hash is derived: __reduce__ rebuilds it through __init__
        return self.variables, self.degrees

    def __hash__(self):  # computed once: rings key the piece tables and caches below
        return self._hash

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
        for key, c in terms.items():
            c = Fraction(c)
            if c:
                try:
                    exps = tuple(map(index, key))  # int() would round 1.5 down
                except TypeError:
                    exps = None
                if exps is None or len(exps) != ring.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {key} for {ring!r}")
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
    r"\s*(?:(?P<num>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


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
# graded free modules
# ---------------------------------------------------------------------------


class GradedFreeModule(Record):
    """Direct sum of twisted copies of the ring: generator j has internal degree twists[j]."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring: GradedRing, twists: Sequence[int]):
        try:
            self._init(ring, tuple(map(index, twists)))
        except TypeError:
            raise ValueError(f"module twists must be integers, not {twists!r}") from None

    @property
    def rank(self) -> int:
        return len(self.twists)

    def graded_dim(self, d: int) -> int:
        return sum(graded_piece_dim(self.ring, d - a) for a in self.twists)

    def basis_in_degree(self, d: int) -> list[tuple[int, tuple[int, ...]]]:
        """Pairs (generator index, monomial exponent) spanning the degree-d piece."""
        from .chains import basis_in_degree
        return basis_in_degree(self, d)

    def dual(self) -> "GradedFreeModule":
        return GradedFreeModule(self.ring, tuple(-a for a in self.twists))

    def __repr__(self):
        return f"GradedFreeModule(twists={list(self.twists)})"


# ---------------------------------------------------------------------------
# names that moved to the chain-level layer
# ---------------------------------------------------------------------------


def forward_to_chains(namespace: dict, names) -> tuple:
    """A module's __getattr__ and __dir__ (PEP 562) that resolve names, moved to
    `chains`, to the objects there; so `chains` is imported on first use only."""
    moved = frozenset(names)

    def __getattr__(name):
        if name in moved:
            from . import chains
            return getattr(chains, name)
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    def __dir__():
        return sorted(moved.union(namespace))

    return __getattr__, __dir__


__getattr__, __dir__ = forward_to_chains(globals(), (
    "PolyMatrix", "graded_piece_basis", "_basis_position", "rational_rank", "modular_rank",
    "matrix_rank_in_degree", "MODULUS"))
