"""Groebner bases of homogeneous ideals over Q, and Hilbert series of monomial ideals.

`groebner_basis` is homogeneous Buchberger in weighted grevlex, with normal
selection and the product criterion, truncated above a degree.  A monomial
is an exponent tuple outside this module and one packed int inside it, a
field of bits per variable (`_Packing.pack`, undone by `exponents`), so a
product of monomials is a sum, the leading term is the least int and a
division test is one subtraction and one mask.  `groebner_basis` returns
the basis still packed, (leading monomial, primitive integer polynomial)
pairs, with its packing; `groebner_failure` reads it as it is and
certifies it exactly up to that degree (Buchberger's criterion on every
S-pair the product criterion leaves, and membership of every input, each
packed and reduced there).  Both raise `GroebnerWorkLimit` past named
work limits.
`hilbert_numerator` reads the Hilbert series of the ideal of the leading
monomials without enumerating monomials, and `numerator_height` its height
off that numerator.  `hilbert_and_grade` reads both off a certified basis,
whose leading monomials alone it unpacks: the one call of the Koszul
table, which imports this module there, so importing the package does not
load it.
"""

from __future__ import annotations

from math import comb, gcd, lcm
from collections.abc import Sequence

from .complexes import ComplexInvariantError
from .polyalg import GradedRing, Polynomial

__all__ = [
    "GroebnerWorkLimit",
    "MAX_GROEBNER_STEPS",
    "MAX_GROEBNER_PAIRS",
    "MAX_GROEBNER_BASIS",
    "MAX_GROEBNER_BITS",
    "groebner_basis",
    "groebner_failure",
    "hilbert_and_grade",
    "hilbert_numerator",
    "numerator_height",
]

# A basis and its certificate each raise GroebnerWorkLimit past any of these:
# term updates in its reductions, S-pairs reduced, basis elements, bits of a
# coefficient of a (primitive, integer) basis element.  A term update takes
# about 0.5 us (Python 3.11, 2 cores): 50,000 of them took 0.021-0.041 s on
# dense random quadrics in 6-10 variables, so a basis and its certificate
# stop within about 0.1 s on any input, and the table falls back to the rank
# route.  The other three limits bound the S-pair queue, the Hilbert-series
# recursion and the cost of one update; 6 dense quadrics in 6 variables with
# coefficients in [-100, 100] stop at 600 bits in 0.01 s.  The most met in
# one call are 28,274 term updates, 41 pairs, 12 elements and 144 bits in
# the tests (4 dense quadrics in 5 variables), and 599 updates, 9 pairs, 6
# elements and 11 bits in the benchmark workloads
MAX_GROEBNER_STEPS = 50000
MAX_GROEBNER_PAIRS = 500
MAX_GROEBNER_BASIS = 50
MAX_GROEBNER_BITS = 600


class GroebnerWorkLimit(Exception):
    """The work of a basis or of its certificate passed a MAX_GROEBNER_* limit."""


class _Steps:
    """The term updates left to the reductions of one call, out of MAX_GROEBNER_STEPS."""

    def __init__(self):
        self.left = MAX_GROEBNER_STEPS

    def spend(self, n: int) -> None:
        self.left -= n
        if self.left < 0:
            raise GroebnerWorkLimit(f"more than {MAX_GROEBNER_STEPS} term updates")


class _Packing:
    """Monomials of a ring with every exponent at most top, packed as ints.

    Variable i takes bits i W to i W + W - 1 for W = top.bit_length() + 1, so
    the last variable is the most significant; the top bit of each field is
    a guard bit, 0 in a monomial, and guard has all of them.  An int compares
    as the reversed exponent vector does, so within one weighted degree the
    smaller int is the grevlex-larger monomial: the larger monomial has the
    smaller exponent in the last variable where they differ.  A product of
    monomials is the sum of their ints while no exponent passes top, and
    lead divides m exactly when (m + guard - lead) & guard == guard: field i
    of m + guard - lead is m_i - lead_i + 2^(W - 1), which keeps its guard
    bit exactly when m_i >= lead_i and never borrows from the next field.
    """

    def __init__(self, ring: GradedRing, top: int):
        self.ring = ring
        self.width = top.bit_length() + 1
        self.guard = self.pack((1 << top.bit_length(),) * ring.nvars)

    def pack(self, exps) -> int:
        """The monomial of the exponent vector exps."""
        m = 0
        for e in reversed(exps):
            m = (m << self.width) + e
        return m

    def exponents(self, m) -> tuple[int, ...]:
        """The exponent vector of the monomial m."""
        mask = (1 << self.width) - 1
        return tuple(m >> (i * self.width) & mask for i in range(self.ring.nvars))

    def pair(self, a, b, top):
        """(degree, lcm) of the S-pair of leading monomials a and b, or None
        when they are coprime (lcm = a + b) or the degree passes top.  Field
        by field, lcm = a + (b - a where b_i >= a_i, else 0)."""
        d = b + self.guard - a
        g = d & self.guard
        lcm = a + (d & (g - (g >> (self.width - 1))))
        degree = self.ring.weighted_degree(self.exponents(lcm))
        return (degree, lcm) if lcm != a + b and degree <= top else None


# Buchberger's algorithm works on polynomials as {packed monomial: int} dicts
# (`_Packing`), and a reduction step and an S-polynomial make their term
# updates through one `_add_shifted`.  Each polynomial is kept up to a nonzero
# rational factor, which changes neither its leading monomial nor whether it
# is 0; integer arithmetic measured 3-5x faster than Fraction arithmetic on
# the same bases.  A basis element is kept with its leading monomial, a
# (lead, polynomial) pair, and so is handed to the certificate.
_Packed = tuple[int, dict]


def _pack_poly(p: Polynomial, packing: _Packing) -> dict:
    """p as a primitive integer polynomial on packed monomials, positive leading coefficient."""
    scale = lcm(*(c.denominator for c in p.terms.values()))
    return _primitive({packing.pack(e): c.numerator * (scale // c.denominator)
                       for e, c in p.terms.items()})


def _primitive(p: dict) -> dict:
    g = gcd(*p.values())
    if p[min(p)] < 0:
        g = -g
    return p if g == 1 else {k: v // g for k, v in p.items()}


def _add_shifted(p: dict, factor: int, shift: int, g: dict) -> None:
    """p += factor x^shift g on packed monomials, dropping the terms that cancel."""
    for k, v in g.items():
        k += shift
        w = p.get(k, 0) + factor * v
        if w:
            p[k] = w
        else:
            del p[k]


def _reduce(p: dict, basis, steps: _Steps, guard, top_only: bool = False) -> dict:
    """A multiple of the remainder of p on division by basis, a list of
    (lead, polynomial) pairs on packed monomials with guard bits guard, each
    term update spent from steps.  With top_only, stops at the first term no
    leading monomial divides, so the result is empty exactly when p reduces
    to 0."""
    p = dict(p)
    remainder = {}
    while p:
        m = min(p)
        c = p[m]
        for lead, g in basis:
            if (m + guard - lead) & guard == guard:
                break
        else:
            remainder[m] = p.pop(m)
            if top_only:
                break
            continue
        # p <- a p - c m/lead g, both factors divided by gcd(a, c): cancels m
        a = g[lead]
        q = gcd(a, c)
        a, c = a // q, c // q
        steps.spend(len(g) + (len(p) - 1 + len(remainder) if a != 1 else 0))
        if a != 1:
            for k in p:
                p[k] *= a
            for k in remainder:
                remainder[k] *= a
        _add_shifted(p, -c, m - lead, g)
    return remainder


def _s_polynomial(f, g, lcm) -> dict:
    """A multiple of the S-polynomial of two (lead, polynomial) pairs whose
    leading monomials have lcm lcm: b lcm/lm(f) f - a lcm/lm(g) g for leading
    coefficients a of f and b of g."""
    (lf, tf), (lg, tg) = f, g
    a, b = tf[lf], tg[lg]
    q = gcd(a, b)
    out: dict = {}
    _add_shifted(out, b // q, lcm - lf, tf)
    _add_shifted(out, -a // q, lcm - lg, tg)
    return out


def groebner_basis(polys: Sequence[Polynomial],
                   max_degree: int) -> tuple[list[_Packed], _Packing | None]:
    """A Groebner basis in weighted grevlex of the ideal of homogeneous polys,
    in degrees up to max_degree; zero polys are skipped.

    Homogeneous Buchberger over Q: the inputs and the S-pairs are taken in
    order of weighted degree (normal selection, an S-pair at the degree of
    its lcm), then of arrival, the inputs first; each is reduced by the
    basis so far and added when a remainder is left.  Pairs whose leading
    monomials are coprime are skipped (the product criterion).  So no
    leading monomial of the result divides another.  Inputs and pairs above
    max_degree are not taken: the result is a Groebner basis in degrees up
    to max_degree, whose leading monomials generate in(I) in those degrees
    and a subideal of it above.  The work is done on monomials packed with
    top max_degree (`_Packing`): every variable has degree at least 1 and
    nothing above max_degree is taken, so no exponent passes it.  Returns
    (basis, packing): each element a (leading monomial, polynomial) pair on
    packed monomials, the polynomial primitive and integer, and that packing
    (`_Packing.exponents` unpacks a monomial); ([], None) for no polys.  Raises
    GroebnerWorkLimit when the work passes MAX_GROEBNER_STEPS term updates,
    MAX_GROEBNER_PAIRS reduced S-pairs, MAX_GROEBNER_BASIS elements or
    MAX_GROEBNER_BITS bits in a coefficient.  The result is not certified
    here; see `groebner_failure`.
    """
    if not polys:
        return [], None
    packing = _Packing(polys[0].ring, max_degree)
    steps = _Steps()
    # (degree, order of arrival, an input polynomial or the S-pair of two
    # basis elements as _s_polynomial takes it); the least is taken next
    queue = [(d, k, _pack_poly(p, packing)) for k, p in enumerate(polys)
             if not p.is_zero() and (d := p.homogeneous_degree()) <= max_degree]
    arrivals = len(polys)
    basis = []
    pairs = 0
    while queue:
        queue.remove(entry := min(queue))
        item = entry[2]
        if isinstance(item, tuple):
            pairs += 1
            if pairs > MAX_GROEBNER_PAIRS:
                raise GroebnerWorkLimit(f"more than {MAX_GROEBNER_PAIRS} S-pairs")
            item = _s_polynomial(*item)
        remainder = _reduce(item, basis, steps, packing.guard)
        if not remainder:
            continue
        terms = _primitive(remainder)
        lead = min(terms)
        bits = max(abs(v) for v in terms.values()).bit_length()
        if len(basis) == MAX_GROEBNER_BASIS:
            raise GroebnerWorkLimit(f"more than {MAX_GROEBNER_BASIS} basis elements")
        if bits > MAX_GROEBNER_BITS:
            raise GroebnerWorkLimit(f"a coefficient of more than {MAX_GROEBNER_BITS} bits")
        for other in basis:
            if pair := packing.pair(other[0], lead, max_degree):
                queue.append((pair[0], arrivals, (other, (lead, terms), pair[1])))
                arrivals += 1
        basis.append((lead, terms))
    return basis, packing


def groebner_failure(basis: Sequence[_Packed], packing: _Packing, polys: Sequence[Polynomial],
                     max_degree: int) -> "str | None":
    """Why basis, (leading monomial, polynomial) pairs on packing as
    `groebner_basis` gives them, is not a Groebner basis of the ideal of
    polys (over one ring, and not empty when basis is not) in degrees up to
    max_degree, or None when it is one.

    Buchberger's criterion, checked on every S-pair of degree up to
    max_degree whose leading monomials share a variable: each reduces to 0
    by the basis.  A pair with coprime leading monomials reduces to 0 by
    its own two elements (the product criterion; Cox, Little and O'Shea,
    ch. 2 sec. 9, Prop. 4), so it is skipped.  For homogeneous polynomials
    that makes the basis a Groebner basis in those degrees.  Then each
    nonzero input of degree up to max_degree reduces to 0, so the ideal of
    the basis holds those inputs.  A basis from `groebner_basis` lies in
    the ideal of its inputs by construction, so the two ideals are then
    equal in those degrees.  The pairs and inputs are packed and reduced in
    the basis's own packing, so a basis built up to a higher degree is read
    as it is; ValueError when max_degree passes the exponents its fields
    hold.  Raises GroebnerWorkLimit past MAX_GROEBNER_STEPS term updates,
    so no answer is given unchecked.
    """
    if not polys:
        return None
    if max_degree >= 1 << (packing.width - 1):
        raise ValueError(f"degree {max_degree} passes the fields of the basis's packing")
    steps = _Steps()
    for j in range(len(basis)):
        for k in range(j):
            pair = packing.pair(basis[k][0], basis[j][0], max_degree)
            if pair and _reduce(_s_polynomial(basis[k], basis[j], pair[1]), basis, steps,
                                packing.guard, top_only=True):
                return f"the S-pair of elements {k} and {j} does not reduce to 0"
    for k, p in enumerate(polys):
        if p.is_zero() or p.homogeneous_degree() > max_degree:
            continue
        if _reduce(_pack_poly(p, packing), basis, steps, packing.guard, top_only=True):
            return f"input {k} does not reduce to 0"
    return None


def hilbert_and_grade(ring: GradedRing, polys: Sequence[Polynomial],
                      max_degree: int) -> tuple[dict[int, int], int] | None:
    """(K, g) for I the ideal of the homogeneous polys, read off a Groebner
    basis of I up to max_degree, certified: the ideal J of its leading
    monomials equals in(I) up to max_degree, so
    sum_d dim (R/J)_d t^d = K(t) / prod (1 - t^deg x_i) is the Hilbert series
    of R/I up to t^max_degree (R/I and R/in(I) have one Hilbert function),
    and g = height J <= height in(I) = grade I, with equality when the basis
    is complete; g is read off K (`numerator_height`).  None when the basis
    or its certificate passes a work limit; raises ComplexInvariantError
    when the certificate fails, and ValueError for the unit ideal.
    """
    try:
        basis, packing = groebner_basis(polys, max_degree)
        failure = groebner_failure(basis, packing, polys, max_degree)
    except GroebnerWorkLimit:
        return None
    if failure:
        raise ComplexInvariantError(f"the Groebner basis of the entries is not certified: "
                                    f"{failure}")
    numerator = hilbert_numerator(ring, [packing.exponents(lead) for lead, _ in basis])
    return numerator, numerator_height(numerator)


def _minimal(gens) -> list[tuple[int, ...]]:
    """The minimal generators among exponent vectors: none divides another."""
    out = []
    for m in sorted(set(gens), key=sum):
        if not any(all(a >= b for a, b in zip(m, g)) for g in out):
            out.append(m)
    return out


def hilbert_numerator(ring: GradedRing, gens) -> dict[int, int]:
    """K(t) with sum_d dim (R/J)_d t^d = K(t) / prod_i (1 - t^deg x_i), for J the
    ideal of the monomials gens (exponent vectors); {power: coefficient}.

    Pairwise coprime generators give prod (1 - t^deg m).  Otherwise a variable
    x in the most generators and the least exponent e it has in a generator
    of two or more variables give the pivot p = x^e, and the exact sequence
    0 -> R/(J : p)(-deg p) -> R/J -> R/(J + p) -> 0 gives
    K(J) = K(J + p) + t^deg p K(J : p).  Both sides have fewer variables in
    generators of two or more variables, so the recursion ends.  No monomial
    of R/J is enumerated.
    """
    gens = _minimal(gens)
    seen = set()
    for g in gens:
        support = {i for i, e in enumerate(g) if e}
        if support & seen:
            break
        seen |= support
    else:
        out = {0: 1}
        for g in gens:
            step = ring.weighted_degree(g)
            shifted: dict[int, int] = dict(out)
            for k, c in out.items():
                shifted[k + step] = shifted.get(k + step, 0) - c
            out = {k: c for k, c in shifted.items() if c}
        return out
    counts = [sum(1 for g in gens if g[i]) for i in range(ring.nvars)]
    x = max(range(ring.nvars), key=counts.__getitem__)
    e = min(g[x] for g in gens if g[x] and sum(1 for a in g if a) > 1)
    pivot = tuple(e if i == x else 0 for i in range(ring.nvars))
    plus = hilbert_numerator(ring, gens + [pivot])
    colon = hilbert_numerator(ring, [g[:x] + (max(g[x] - e, 0),) + g[x + 1:] for g in gens])
    step = e * ring.degrees[x]
    for k, c in colon.items():
        plus[k + step] = plus.get(k + step, 0) + c
    return {k: c for k, c in plus.items() if c}


def numerator_height(numerator: dict[int, int]) -> int:
    """Height of a monomial ideal J off the numerator K of its Hilbert series
    (`hilbert_numerator`).

    R/J has Krull dimension n - height J, the order of the pole of
    K(t) / prod (1 - t^deg x_i) at t = 1; the denominator vanishes there to
    order n, so height J is the order of vanishing of K at t = 1: the number
    of times 1 - t divides K.  When (1 - t)^h divides K = sum_k c_k t^k, the
    coefficients of K / (1 - t)^h sum to (-1)^h sum_k c_k binom(k, h), the
    h-th coefficient of K in powers of t - 1; so the height is the least h
    where that sum is not 0, read off the terms of K without writing out a
    quotient.  ValueError for K = 0: the unit ideal, whose quotient is 0.
    """
    if not numerator:
        raise ValueError("the unit ideal has no height: a generator is the monomial 1")
    height = 0
    while not sum(c * comb(k, height) for k, c in numerator.items()):
        height += 1
    return height
