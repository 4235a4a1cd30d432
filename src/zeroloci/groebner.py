"""Groebner bases of homogeneous ideals over Q, and Hilbert series of monomial ideals.

`groebner_basis` is homogeneous Buchberger in weighted grevlex, with normal
selection and the product criterion, truncated above a degree.  It returns
the basis in the one form its certificate and its readers use: (leading
key, primitive integer polynomial on grevlex keys) pairs.
`groebner_failure` certifies such a basis exactly up to that degree
(Buchberger's criterion on every S-pair the product criterion leaves, and
membership of every input).  Both raise `GroebnerWorkLimit` past named
work limits.  `hilbert_numerator` and `monomial_height` read the Hilbert
series and the height of the ideal of the leading monomials without
enumerating monomials.  `hilbert_and_grade` reads both off a certified
basis: the one call of the Koszul table, which imports this module there,
so importing the package does not load it.
"""

from __future__ import annotations

import heapq
from math import gcd
from operator import add
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
    "monomial_height",
]

# A basis and its certificate each raise GroebnerWorkLimit past any of these:
# term updates in its reductions, S-pairs reduced, basis elements, bits of a
# coefficient of a (primitive, integer) basis element.  A term update takes
# 2-3 us (Python 3.11, 2 cores): 50,000 of them took 0.10-0.17 s on dense
# random quadrics in 5-10 variables, so a basis and its certificate stop
# within about 0.35 s on any input, and the table falls back to the rank
# route.  The other three limits bound the S-pair queue, the Hilbert-series
# recursion and the cost of one update; 6 dense quadrics in 6 variables stop
# at 600 bits in 0.10 s.  The most met are a few hundred term updates (285
# on one run of the hypothesis draws), 13 pairs, 8 elements and 25 bits in
# the tests, and 1,653 updates, 9, 6 and 11 in the benchmark workloads
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


def _grevlex_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of weighted grevlex among monomials of one weighted degree:
    the larger monomial has the smaller exponent in the last variable where
    they differ.  The key is an involution, and keys add as exponents do."""
    return tuple(-e for e in reversed(exps))


# Buchberger's algorithm works on polynomials as {grevlex key: int} dicts,
# so the leading term is the largest key, a product of monomials is the sum
# of their keys, and m divides n when key(n) <= key(m) in every place.  Each
# is kept up to a nonzero rational factor, which changes neither its leading
# monomial nor whether it is 0; integer arithmetic measured 3-5x faster than
# Fraction arithmetic on the same bases.  A basis element is kept, and
# returned, with its leading key: a (leading key, polynomial) pair.
_Keyed = tuple[tuple[int, ...], dict]


def _keyed(p: Polynomial) -> dict:
    """p as a primitive integer polynomial on grevlex keys, positive leading coefficient."""
    scale = 1
    for c in p.terms.values():
        scale = scale * c.denominator // gcd(scale, c.denominator)
    return _primitive({_grevlex_key(e): c.numerator * (scale // c.denominator)
                       for e, c in p.terms.items()})


def _primitive(p: dict) -> dict:
    g = 0
    for v in p.values():
        g = gcd(g, v)
    if p[max(p)] < 0:
        g = -g
    return p if g == 1 else {k: v // g for k, v in p.items()}


def _reduce(p: dict, basis, steps: _Steps, top_only: bool = False) -> dict:
    """A multiple of the remainder of p on division by basis, a list of
    (leading key, polynomial) pairs, each term update spent from steps.
    With top_only, stops at the first term no leading monomial divides, so
    the result is empty exactly when p reduces to 0."""
    p = dict(p)
    remainder = {}
    while p:
        m = max(p)
        c = p.pop(m)
        for lead, g in basis:
            if all(a <= b for a, b in zip(m, lead)):
                break
        else:
            remainder[m] = c
            if top_only:
                break
            continue
        # p <- a p - c m/lead g, both factors divided by gcd(a, c)
        a = g[lead]
        q = gcd(a, c)
        a, c = a // q, c // q
        steps.spend(len(g) + (len(p) + len(remainder) if a != 1 else 0))
        if a != 1:
            for k in p:
                p[k] *= a
            for k in remainder:
                remainder[k] *= a
        shift = tuple(x - y for x, y in zip(m, lead))
        for k, v in g.items():
            if k != lead:
                k = tuple(map(add, k, shift))
                w = p.get(k, 0) - c * v
                if w:
                    p[k] = w
                else:
                    del p[k]
    return remainder


def _s_polynomial(f, g) -> dict:
    """A multiple of the S-polynomial of two (leading key, polynomial) pairs:
    b lcm/lm(f) f - a lcm/lm(g) g for leading coefficients a of f and b of g."""
    (lf, tf), (lg, tg) = f, g
    lcm = tuple(map(min, lf, lg))
    a, b = tf[lf], tg[lg]
    q = gcd(a, b)
    out: dict = {}
    for lead, terms, factor in ((lf, tf, b // q), (lg, tg, -a // q)):
        shift = tuple(x - y for x, y in zip(lcm, lead))
        for k, v in terms.items():
            k = tuple(map(add, k, shift))
            w = out.get(k, 0) + factor * v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


def _lcm_degree(weights: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Weighted degree of the lcm of two monomials given by grevlex keys;
    weights are the variable degrees in reverse order, as keys list them."""
    return -sum(w * e for w, e in zip(weights, map(min, a, b)))


def groebner_basis(polys: Sequence[Polynomial], max_degree: int) -> list[_Keyed]:
    """A Groebner basis in weighted grevlex of the ideal of homogeneous polys,
    in degrees up to max_degree; zero polys are skipped.

    Homogeneous Buchberger over Q: the inputs and the S-pairs are taken in
    order of weighted degree (normal selection, an S-pair at the degree of
    its lcm), each is reduced by the basis so far and added when a remainder
    is left.  Pairs whose leading monomials are coprime are skipped (the
    product criterion).  So no leading monomial of the result divides
    another.  Inputs and pairs above max_degree are not taken: the result
    is a Groebner basis in degrees up to max_degree, whose leading monomials
    generate in(I) in those degrees and a subideal of it above.  Each
    element is a (leading key, polynomial) pair, the polynomial primitive and
    integer on grevlex keys (`_grevlex_key` turns a key back into exponents).
    Raises GroebnerWorkLimit when the work passes MAX_GROEBNER_STEPS term
    updates, MAX_GROEBNER_PAIRS reduced S-pairs, MAX_GROEBNER_BASIS elements
    or MAX_GROEBNER_BITS bits in a coefficient.  The result is not certified
    here; see `groebner_failure`.
    """
    if not polys:
        return []
    weights = polys[0].ring.degrees[::-1]
    steps = _Steps()
    # (degree, order of arrival, an input polynomial or a pair of basis indices)
    queue = [(d, k, _keyed(p)) for k, p in enumerate(polys)
             if not p.is_zero() and (d := p.homogeneous_degree()) <= max_degree]
    heapq.heapify(queue)
    arrivals = len(queue)
    basis: list[_Keyed] = []
    pairs = 0
    while queue:
        _, _, item = heapq.heappop(queue)
        if isinstance(item, tuple):
            pairs += 1
            if pairs > MAX_GROEBNER_PAIRS:
                raise GroebnerWorkLimit(f"more than {MAX_GROEBNER_PAIRS} S-pairs")
            item = _s_polynomial(basis[item[0]], basis[item[1]])
        remainder = _reduce(item, basis, steps)
        if not remainder:
            continue
        terms = _primitive(remainder)
        lead = max(terms)
        bits = max(abs(v) for v in terms.values()).bit_length()
        if len(basis) == MAX_GROEBNER_BASIS:
            raise GroebnerWorkLimit(f"more than {MAX_GROEBNER_BASIS} basis elements")
        if bits > MAX_GROEBNER_BITS:
            raise GroebnerWorkLimit(f"a coefficient of more than {MAX_GROEBNER_BITS} bits")
        for k, (other, _) in enumerate(basis):
            degree = _lcm_degree(weights, lead, other)
            if any(a and b for a, b in zip(lead, other)) and degree <= max_degree:
                heapq.heappush(queue, (degree, arrivals, (k, len(basis))))
                arrivals += 1
        basis.append((lead, terms))
    return basis


def groebner_failure(basis: Sequence[_Keyed], polys: Sequence[Polynomial],
                     max_degree: int) -> "str | None":
    """Why basis, (leading key, polynomial) pairs as `groebner_basis` gives
    them, is not a Groebner basis of the ideal of polys (over one ring, and
    not empty when basis is not) in degrees up to max_degree, or None when
    it is one.

    Buchberger's criterion, checked on every S-pair of degree up to
    max_degree whose leading monomials share a variable: each reduces to 0
    by the basis.  A pair with coprime leading monomials reduces to 0 by
    its own two elements (the product criterion; Cox, Little and O'Shea,
    ch. 2 sec. 9, Prop. 4), so it is skipped.  For homogeneous polynomials
    that makes the basis a Groebner basis in those degrees.  Then each
    nonzero input of degree up to max_degree reduces to 0, so the ideal of
    the basis holds those inputs.  A basis from `groebner_basis` lies in
    the ideal of its inputs by construction, so the two ideals are then
    equal in those degrees.  Raises GroebnerWorkLimit past
    MAX_GROEBNER_STEPS term updates, so no answer is given unchecked.
    """
    weights = polys[0].ring.degrees[::-1] if polys else ()
    steps = _Steps()
    for j in range(len(basis)):
        for k in range(j):
            a, b = basis[k][0], basis[j][0]
            coprime = not any(x and y for x, y in zip(a, b))
            if coprime or _lcm_degree(weights, a, b) > max_degree:
                continue
            if _reduce(_s_polynomial(basis[k], basis[j]), basis, steps, top_only=True):
                return f"the S-pair of elements {k} and {j} does not reduce to 0"
    for k, p in enumerate(polys):
        if p.is_zero() or p.homogeneous_degree() > max_degree:
            continue
        if _reduce(_keyed(p), basis, steps, top_only=True):
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
    is complete.  None when the basis or its certificate passes a work
    limit; raises ComplexInvariantError when the certificate fails, and
    ValueError for the unit ideal (`monomial_height`).
    """
    try:
        basis = groebner_basis(polys, max_degree)
        failure = groebner_failure(basis, polys, max_degree)
    except GroebnerWorkLimit:
        return None
    if failure:
        raise ComplexInvariantError(f"the Groebner basis of the entries is not certified: "
                                    f"{failure}")
    lead = [_grevlex_key(key) for key, _ in basis]
    return hilbert_numerator(ring, lead), monomial_height(lead)


def _minimal(gens) -> list[tuple[int, ...]]:
    """The minimal generators among exponent vectors: none divides another."""
    out: list[tuple[int, ...]] = []
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
    seen: set[int] = set()
    coprime = True
    for g in gens:
        support = {i for i, e in enumerate(g) if e}
        if support & seen:
            coprime = False
            break
        seen |= support
    if coprime:
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


def monomial_height(gens) -> int:
    """Height of the ideal of the monomials gens: the fewest variables that
    meet the support of every generator (0 for no generator).

    R/J has dimension nvars minus this: the coordinate subspace on a set of
    variables lies in the zero set of J exactly when no generator is a
    monomial in those variables alone.  ValueError for the unit ideal (a
    generator 1, with empty support), which no set of variables meets.
    """
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in _minimal(gens)]
    if frozenset() in supports:
        raise ValueError("the unit ideal has no height: a generator is the monomial 1")

    def meets(supports, k: int) -> bool:
        if not supports:
            return True
        if k == 0:
            return False
        smallest = min(supports, key=len)
        return any(meets([s for s in supports if v not in s], k - 1) for v in smallest)

    height = 0
    while not meets(supports, height):
        height += 1
    return height
