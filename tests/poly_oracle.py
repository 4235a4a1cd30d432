"""The reference polynomial reader: a plain recursive descent over term dicts.

Every factor, a number and a variable included, is its own term dict
{exponent tuple: int or Fraction} with no zero value, and every `*` and
every step of a `^k` is a dict product counted against the limits of
`zeroloci.polyalg`, except the power of a bare variable: one monomial, read
without a product.  The package's reader folds atomic factors into one
monomial instead; `test_polyalg` requires both to give the same terms, the
same coefficient types and the same `ParseError` message and position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from zeroloci.polyalg import (
    _MAX_COEFFICIENT_BITS,
    _MAX_COEFFICIENT_DIGITS,
    _MAX_EXPONENT,
    _MAX_NESTING,
    _MAX_TERM_PRODUCTS,
    ParseError,
    Polynomial,
    _add_terms,
    _times,
)

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


def _coefficient_bits(terms) -> int:
    """The most bits of a coefficient in a term dict, numerator plus denominator."""
    return max((c.numerator.bit_length() + c.denominator.bit_length() for c in terms.values()),
               default=0)


class _Parser:
    """Recursive descent for: rationals (a or a/b), variables, + - * ^, parens.

    Each rule returns a new term dict with no zero value, so `+` and `-` add
    into it in place.
    """

    def __init__(self, text: str, ring):
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
        variable = self.tokens[self.i][0] == "ident"
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
        if variable:  # a variable's power is one monomial: no product
            (exps,) = base
            return {tuple(int(digits) * e for e in exps): 1}
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


def parse_poly(text: str, ring) -> Polynomial:
    """The polynomial of text over ring, validated by `Polynomial.__init__`."""
    parser = _Parser(text, ring)
    terms = parser.parse_expr()
    kind, value, pos = parser.tokens[parser.i]
    if kind != "eof":
        raise ParseError(f"unexpected {value!r}", pos)
    return Polynomial(ring, terms)
