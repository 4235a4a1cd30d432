"""Exact arithmetic over Q for graded polynomial rings.

Polynomials carry a single positive Z-grading (each variable has a weight
>= 1, so every graded piece is finite dimensional).  Coefficients are
`fractions.Fraction`; there is no floating point anywhere in this package.
Terms are a dict {exponent tuple: coefficient} with no zero value;
`_add_terms` and `_times` sum and multiply such dicts for the operators and
for `parse_poly`, and `signed_sum` prints them, as it prints the K-classes
of `gtheory`.  The parser's recursive descent folds the atomic factors of
a term (numbers, a/b, variables and their powers) into one monomial, a
coefficient kept as int until an a/b brings in a Fraction, and takes the
dict product only for a parenthesised factor; the result's coefficients
become Fractions and no other check runs on it; `parse_poly` keeps its
last PARSE_MEMO_SIZE results, so each (text, ring) is parsed once per
process.  Twisted free modules count their graded pieces without
enumerating them (`graded_piece_dim`).
Homogeneous matrices, their degree pieces and the rank kernels live in the
chain-level layer, `chains`, which loads on first use; the names of this
module's `__all__` it does not define resolve there (`forward_to_chains`).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import log10
from operator import add, index, mul

__all__ = [
    "GradedRing",
    "Polynomial",
    "GradedFreeModule",
    "PolyMatrix",
    "ParseError",
    "RingMismatch",
    "HomogeneityError",
    "parse_poly",
    "PARSE_MEMO_SIZE",
    "graded_piece_basis",
    "graded_piece_dim",
    "matrix_rank_in_degree",
    "rational_rank",
    "modular_rank",
    "MODULUS",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
# each level of parentheses costs the recursive-descent parser three stack
# frames; this bound keeps any input well clear of the interpreter's limit
_MAX_NESTING = 100
# a power of a number or a group is repeated products, one per unit of the
# exponent; a variable's power is its exponent, no product
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
# polynomials kept by `parse_poly`, least recently used dropped first: one
# benchmark corpus sweep (seed 1) parses 929 entries, 82 distinct, and a memo
# of 64 serves all 847 repeats
PARSE_MEMO_SIZE = 64


class ParseError(ValueError):
    """Syntax error in a polynomial expression; `position` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class RingMismatch(ValueError):
    """Operands live over different rings."""


class HomogeneityError(ValueError):
    """A matrix entry or section fails its required homogeneity."""


def as_integers(values, what: str) -> tuple[int, ...]:
    """values read with operator.index, as a tuple; int() would round 1.5 down
    and read "2".  Raises ValueError "<what> must be integers" otherwise."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, not {tuple(values)!r}") from None


def signed_sum(terms) -> str:
    """The text of a sum of (monomial text, nonzero rational) terms, in the
    order given, as "-x^2 + 3/2*x*y - 2": a coefficient of 1 is left out
    before a monomial, "" is the monomial 1, and no terms print as "0"."""
    out = ""
    for mono, c in terms:
        mag = abs(c)
        body = mono if mag == 1 and mono else f"{mag}*{mono}" if mono else str(mag)
        out += (" - " if c < 0 else " + ") + body
    return "-" + out[3:] if out.startswith(" - ") else out[3:] or "0"


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
        variables, degrees = tuple(variables), as_integers(degrees, "variable degrees")
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
        return sum(map(mul, exponents, self.degrees))

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


# one count table per tuple of variable degrees, the only part of a ring the counts
# read; a tuple key compares in C, where a ring key would call Record.__eq__:
# counts[k] = graded_piece_dim(ring, k) for k < len(counts)
_PIECE_COUNTS: dict[tuple[int, ...], list[int]] = {}


def graded_piece_dim(ring: GradedRing, d: int) -> int:
    """len(graded_piece_basis(ring, d)), counted without enumerating the monomials.

    Built variable by variable: counts[k] is the number of monomials of
    weighted degree k in the variables seen so far, and each variable of
    weight w adds counts[k - w].  The table of the ring's degrees is rebuilt
    at twice its length when d runs past its end, so a window of W degrees
    costs O(W).
    """
    if d < 0:
        return 0
    counts = _PIECE_COUNTS.get(ring.degrees, ())
    if d >= len(counts):
        size = max(d + 1, 2 * len(counts))
        counts = [1] + [0] * (size - 1)
        for w in ring.degrees:
            for k in range(w, size):
                counts[k] += counts[k - w]
        _PIECE_COUNTS[ring.degrees] = counts
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
    """Element of a GradedRing: finite map from exponent vectors to nonzero rationals.

    A polynomial is a value: `parse_poly` shares it between equal inputs,
    and it hashes and keys the Koszul-table memo (`homology.koszul_table`),
    so it must not be mutated.  The hash agrees with == and is computed
    once: a constant hashes like its scalar, the zero polynomial like 0.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: GradedRing, terms: Mapping[tuple[int, ...], Fraction]):
        self.ring, self._hash = ring, None
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

    def term_degrees(self) -> set[int]:
        """The weighted degrees of the terms, in one pass."""
        degrees = self.ring.degrees
        return {sum(map(mul, e, degrees)) for e in self.terms}

    def homogeneous_degree(self):
        """Common weighted degree of all terms; None for the zero polynomial."""
        degs = self.term_degrees()
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
        p.ring, p.terms, p._hash = ring, terms, None
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

    def __hash__(self):  # computed once: equal polynomials key the Koszul-table memo
        if self._hash is None:
            terms = self.terms
            constant = not terms or len(terms) == 1 and not any(next(iter(terms)))
            # a constant hashes like its scalar, the zero polynomial like 0
            self._hash = (hash(terms.get((0,) * self.ring.nvars, 0)) if constant
                          else hash((self.ring, frozenset(terms.items()))))
        return self._hash

    def __reduce__(self):  # copy and pickle rebuild through __init__: string hashes differ
        return type(self), (self.ring, self.terms)

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

    def __str__(self):
        names = self.ring.variables
        return signed_sum(
            ("*".join([x if k == 1 else f"{x}^{k}" for x, k in zip(names, e) if k]), c)
            for e, c in sorted(self.terms.items(), reverse=True))

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# the tokens: a number, a name or an operator; whitespace between them is skipped
_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]")
# a character that is in no token and is not whitespace
_BAD_RE = re.compile(r"[^\s0-9A-Za-z_+\-*/^()]")


def _bits(c) -> int:
    """The bits of a coefficient, numerator plus denominator; 0 for zero, as for no term."""
    return c.numerator.bit_length() + c.denominator.bit_length() if c else 0


def _monomial(c, exps) -> dict:
    """The term dict of c * x^exps."""
    return {tuple(exps): c} if c else {}


class _Parser:
    """Recursive descent for: rationals (a or a/b), variables, + - * ^, parens.

    The tokens are strings, then "" for the end; an error names a token by
    its index, and `error` turns that into the offset in the text.  A term
    folds its atomic factors (a number, a/b or a variable, each with an
    optional ^k) into one running monomial: a coefficient, an int until an
    a/b brings in a Fraction, and an exponent list.  A parenthesised factor
    is a term dict {exponent tuple: coefficient} with no zero value, and
    from the first one on so is the term's product.  Each product is
    counted as the product of the two factors' term dicts would be; a
    variable's power is one monomial and counts none.
    """

    def __init__(self, text: str, ring: GradedRing):
        bad = _BAD_RE.search(text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.tokens.append("")
        self.i = 0
        self.variables = ring.variables
        self.nvars = ring.nvars
        self.depth = 0
        self.products = 0

    def error(self, message: str, token: int) -> ParseError:
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)] + [len(self.text)]
        return ParseError(message, starts[token])

    def count(self, products: int, bits: int, token: int) -> None:
        """Count a product of `products` pairs of terms against _MAX_TERM_PRODUCTS,
        then the `bits` of its factors' largest coefficients against
        _MAX_COEFFICIENT_BITS, before the product is formed."""
        self.products += products
        if self.products > _MAX_TERM_PRODUCTS:
            raise self.error(f"the expression needs at least {self.products} term products, "
                             f"more than the limit of {_MAX_TERM_PRODUCTS}", token)
        if bits > _MAX_COEFFICIENT_BITS:
            raise self.error(f"the expression multiplies factors whose largest coefficients "
                             f"have {bits} bits, more than the limit of "
                             f"{_MAX_COEFFICIENT_BITS}", token)

    def multiply(self, a: dict, b: dict, token: int) -> dict:
        bits = max(map(_bits, a.values()), default=0) + max(map(_bits, b.values()), default=0)
        self.count(len(a) * len(b), bits, token)
        return _times(a, b)

    def number(self) -> int:
        """The next token, a number literal, refused by its digit count before
        int() reads it when it has more than _MAX_COEFFICIENT_BITS bits."""
        digits = self.tokens[self.i].lstrip("0")
        if len(digits) > _MAX_COEFFICIENT_DIGITS:
            raise self.error(f"a number of {len(digits)} digits has more bits than the "
                             f"limit of {_MAX_COEFFICIENT_BITS}", self.i)
        self.i += 1
        return int(digits or "0")

    def exponent(self) -> tuple[int, int]:
        """After a '^': the exponent and its token."""
        self.i += 2
        value = self.tokens[self.i - 1]
        if not value.isdigit():
            raise self.error("expected a nonnegative integer exponent", self.i - 1)
        digits = value.lstrip("0") or "0"
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
            shown = value if len(value) <= 20 else f"of {len(value)} digits"
            raise self.error(f"exponent {shown} exceeds {_MAX_EXPONENT}", self.i - 1)
        return int(digits), self.i - 1

    def parse_expr(self) -> dict:
        tokens, acc = self.tokens, {}
        subtract = tokens[self.i] == "-"
        self.i += subtract
        while True:
            self.parse_term(acc, subtract)
            op = tokens[self.i]
            if op != "+" and op != "-":
                return acc
            subtract = op == "-"
            self.i += 1

    def parse_term(self, acc: dict, subtract: bool) -> None:
        """Add the next term into the term dict acc, or subtract it."""
        tokens = self.tokens
        # the monomial c * x^exps, or from the first group on the term dict
        # terms; the token of the last '*'
        c, exps, terms, star = 1, [0] * self.nvars, None, None
        while True:
            if tokens[self.i] == "(":
                group = self.parse_group()
                terms = group if star is None else self.multiply(
                    _monomial(c, exps) if terms is None else terms, group, star)
            else:
                f, var, k = self.parse_atom()
                if terms is not None:
                    e = [k if j == var else 0 for j in range(self.nvars)]
                    terms = self.multiply(terms, _monomial(f, e), star)
                else:
                    if star is not None:
                        self.count(1 if c and f else 0, _bits(c) + _bits(f), star)
                    c *= f
                    if var is not None:
                        exps[var] += k
            if tokens[self.i] != "*":
                break
            star = self.i
            self.i += 1
        _add_terms(acc, _monomial(c, exps) if terms is None else terms, subtract)

    def parse_atom(self) -> tuple:
        """A number, a/b or a variable, with its ^k if any: (coefficient,
        variable index or None, k)."""
        tokens, var = self.tokens, None
        value = tokens[self.i]
        if value.isdigit():
            c = self.number()
            if tokens[self.i] == "/":
                self.i += 1
                if not tokens[self.i].isdigit():
                    raise self.error("expected a denominator", self.i)
                denominator = self.number()
                if denominator == 0:
                    raise self.error("zero denominator", self.i - 1)
                c = Fraction(c, denominator)
        elif value.isidentifier():
            if value not in self.variables:
                raise self.error(f"unknown variable {value!r}", self.i)
            self.i += 1
            c, var = 1, self.variables.index(value)
        else:
            raise self.error("expected a number, variable or parenthesis", self.i)
        if tokens[self.i] != "^":
            return c, var, 1
        k, caret = self.exponent()
        if var is not None:
            return 1, var, k  # a variable's power is its exponent: no product
        out = 1  # c^k in k counted products, as by term dicts
        for _ in range(k):
            self.count(1 if out and c else 0, _bits(out) + _bits(c), caret)
            out *= c
        return out, var, k

    def parse_group(self) -> dict:
        """A parenthesised expression, with its ^k if any."""
        if self.depth == _MAX_NESTING:
            raise self.error(f"parentheses nested deeper than {_MAX_NESTING}", self.i)
        self.i += 1
        self.depth += 1
        inner = self.parse_expr()
        self.depth -= 1
        if self.tokens[self.i] != ")":
            raise self.error("expected ')'", self.i)
        self.i += 1
        if self.tokens[self.i] != "^":
            return inner
        k, caret = self.exponent()
        out = {(0,) * self.nvars: 1}
        for _ in range(k):
            out = self.multiply(out, inner, caret)
        return out


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_poly(text: str, ring: GradedRing) -> Polynomial:
    """Parse a polynomial expression; print/parse round-trips exactly.

    Memoized per process on (text, ring): equal inputs return the identical
    polynomial, a value that must not be mutated, for as long as it is among
    the last PARSE_MEMO_SIZE parsed.  A ParseError is not kept, so the same
    text raises again.
    """
    parser = _Parser(text, ring)
    terms = parser.parse_expr()
    if parser.tokens[parser.i]:
        raise parser.error(f"unexpected {parser.tokens[parser.i]!r}", parser.i)
    return Polynomial._trusted(ring, {e: Fraction(c) for e, c in terms.items()})


# ---------------------------------------------------------------------------
# graded free modules
# ---------------------------------------------------------------------------


class GradedFreeModule(Record):
    """Direct sum of twisted copies of the ring: generator j has internal degree twists[j]."""

    __slots__ = ("ring", "twists")

    def __init__(self, ring: GradedRing, twists: Sequence[int]):
        self._init(ring, as_integers(twists, "module twists"))

    @property
    def rank(self) -> int:
        return len(self.twists)

    def graded_dim(self, d: int) -> int:
        return sum(graded_piece_dim(self.ring, d - a) for a in self.twists)

    def dual(self) -> "GradedFreeModule":
        return GradedFreeModule(self.ring, tuple(-a for a in self.twists))

    def __repr__(self):
        return f"GradedFreeModule(twists={list(self.twists)})"


# ---------------------------------------------------------------------------
# names that moved to the chain-level layer
# ---------------------------------------------------------------------------


def forward_to_chains(namespace: dict) -> tuple:
    """A module's __getattr__ and __dir__ (PEP 562), made after its last
    definition, resolving each name of its __all__ it does not define in
    `chains`, which is imported on first use only."""
    moved = frozenset(namespace["__all__"]).difference(namespace)

    def __getattr__(name):
        if name in moved:
            from . import chains
            return getattr(chains, name)
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    def __dir__():
        return sorted(moved.union(namespace))

    return __getattr__, __dir__


__getattr__, __dir__ = forward_to_chains(globals())
