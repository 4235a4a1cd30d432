"""Classes of complexes in the Grothendieck group of graded modules.

For complexes of twisted free modules the complete invariant is the
K-polynomial numerator: a Laurent polynomial in one variable t collecting
the twists with alternating sign.  Every class-level identity checked
here is therefore a decidable equality of Laurent polynomials, and each
main operation also carries an independent homology route (alternating
sums of truncated Hilbert series of the homology) that must reproduce
the direct answer.

A class depends only on the terms of a complex, and classes multiply under
tensor.  So a class is read off the terms (the Koszul class off the
exterior powers of the entries) or taken as a product of classes.  The
homology routes read Koszul tables (`homology.koszul_table`), which build a
differential only for the rank cells a Groebner basis of the entries leaves.
A truncated sym-GA check compares such a table with that of the invariants,
built directly (`chains.sym_cofib_invariants`); it and `kclass_via_homology`
import the chain-level layer where they need it.

The excess-intersection identity is proved, not sampled: a chain
isomorphism from the self-intersection kos(f, f) (the entries listed
twice) to kos(f, 0) (the entries, then as many zeros), both Koszul
complexes, makes the two Hilbert tables one, read off the Koszul table.
The isomorphism and both differentials are integer combinations of
constant maps on exterior words, so it is checked exactly once per number
of entries on those maps, with the contraction rule the Koszul complex is
built with, and no polynomial complex or matrix.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from collections.abc import Mapping, Sequence

from .complexes import (
    Complex,
    ComplexInvariantError,
    check_generators,
    koszul_contractions,
)
from .homology import DimComparison, HilbertTable, compare_tables, koszul_table
from .polyalg import GradedFreeModule, GradedRing, ParseError, Record, RingMismatch
from .zerolocus import PresentationError, ZeroLocusPresentation, koszul_terms

__all__ = [
    "KClass",
    "KVerdict",
    "ExcessResult",
    "CrossCheckError",
    "kclass_of_complex",
    "kclass_via_homology",
    "koszul_class",
    "excess_certificate",
    "lambda_minus_one",
    "virtual_class",
    "verify_quantum_lefschetz",
    "verify_excess",
    "verify_sym_ga",
    "vpull",
    "vpull_via_homology",
    "verify_strong_factorization",
    "complex_from_kclass",
]


class CrossCheckError(RuntimeError):
    """The direct route and the homology route disagree; an engine bug."""


class KClass:
    """Laurent polynomial in t with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {}
        for k, v in (coeffs or {}).items():
            v = int(v)
            if v:
                clean[int(k)] = v
        self.coeffs = clean

    @classmethod
    def zero(cls) -> "KClass":
        return cls({})

    @classmethod
    def one(cls) -> "KClass":
        return cls({0: 1})

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "KClass":
        return cls({power: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "KClass") -> "KClass":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return KClass(coeffs)

    def __sub__(self, other: "KClass") -> "KClass":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) - v
        return KClass(coeffs)

    def __neg__(self) -> "KClass":
        return KClass({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other: "KClass") -> "KClass":
        coeffs: dict[int, int] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                coeffs[k] = coeffs.get(k, 0) + v1 * v2
        return KClass(coeffs)

    def truncate(self, max_power: int) -> "KClass":
        return KClass({k: v for k, v in self.coeffs.items() if k <= max_power})

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            mag = abs(v)
            if k == 0:
                body = str(mag)
            else:
                power = "t" if k == 1 else f"t^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            pieces.append(("-" if v < 0 else "+", body))
        sign, body = pieces[0]
        out = body if sign == "+" else "-" + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"KClass({self})"

    @classmethod
    def parse(cls, text: str) -> "KClass":
        """Parse an integer polynomial in t, e.g. "1 - 2*t + t^2"."""
        from .polyalg import parse_poly

        ring = GradedRing(("t",), (1,))
        poly = parse_poly(text, ring)
        coeffs = {}
        for (k,), c in poly.terms.items():
            if c.denominator != 1:
                raise ParseError(f"non-integer coefficient {c}", 0)
            coeffs[k] = int(c)
        return cls(coeffs)


class KVerdict(Record):
    """Exact comparison of two classes; on failure both sides are the witness."""

    __slots__ = ("passed", "lhs", "rhs")

    def __init__(self, passed: bool, lhs: KClass, rhs: KClass):
        self._init(passed, lhs, rhs)


class ExcessResult(Record):
    """Tables of kos(f, f) and of kos(f, 0), equal by a chain isomorphism.

    There is no failing verdict: a certificate that fails to commute or to
    invert raises ComplexInvariantError instead.
    """

    __slots__ = ("table_restricted", "table_euler")

    def __init__(self, table_restricted: HilbertTable, table_euler: HilbertTable):
        self._init(table_restricted, table_euler)


def kclass_of_complex(c: Complex) -> KClass:
    """Alternating sum over the twists of each term."""
    return _kclass_of_terms(c.terms)


def _kclass_of_terms(terms: Mapping[int, GradedFreeModule]) -> KClass:
    coeffs: dict[int, int] = {}
    for i, module in terms.items():
        sign = -1 if i % 2 else 1
        for a in module.twists:
            coeffs[a] = coeffs.get(a, 0) + sign
    return KClass(coeffs)


def koszul_class(p: ZeroLocusPresentation) -> KClass:
    """Class of the Koszul complex of p, read off its terms without building it."""
    return _kclass_of_terms(koszul_terms(p))


def kclass_via_homology(c: Complex, cutoff: int | None = None) -> KClass:
    """Class reconstructed from homology: sum of (-1)^i times the truncated
    Hilbert series of H^i, multiplied by the ring's denominator product.

    Exact for complexes with nonnegative twists once the cutoff reaches the
    largest twist; this is the truncation route and must agree with
    kclass_of_complex.  A Koszul complex takes `_koszul_kclass_via_homology`.
    """
    twists = [a for i in c.support for a in c.term(i).twists]
    if not twists:
        return KClass.zero()
    if min(twists) < 0:
        raise ValueError("homology route requires nonnegative twists")
    if cutoff is None:
        cutoff = max(twists)
    cutoff = max(cutoff, max(twists))
    from .chains import homology_dimensions

    return _kclass_of_table(homology_dimensions(c, cutoff), c.ring)


def _koszul_kclass_via_homology(p: ZeroLocusPresentation) -> KClass:
    """kclass_via_homology(koszul_complex(p)), read off the Koszul table up to
    the largest Koszul twist, the sum of the entries' degrees."""
    return _kclass_of_table(koszul_table(p, sum(p.all_degrees)), p.ring)


def _kclass_of_table(table: HilbertTable, ring: GradedRing) -> KClass:
    """The alternating sum of the Hilbert series of the table's rows up to its
    cutoff, times the ring's denominator product, truncated there."""
    total = KClass.zero()
    for i in table.cohomological_degrees():
        series = KClass({d: table.dim(i, d) for d in range(table.cutoff + 1)})
        total = total + (series if i % 2 == 0 else -series)
    return (total * lambda_minus_one(ring.degrees)).truncate(table.cutoff)


def lambda_minus_one(degrees: Sequence[int]) -> KClass:
    """Euler class of a twisted free bundle: the product of (1 - t^d)."""
    out = KClass.one()
    for d in degrees:
        d = int(d)
        if d < 1:
            raise ValueError("twist degrees must be positive")
        out = out * KClass({0: 1, d: -1})
    return out


def virtual_class(p: ZeroLocusPresentation) -> KClass:
    """Class of the Koszul complex, cross-checked through the homology route."""
    direct = koszul_class(p)
    via_homology = _koszul_kclass_via_homology(p)
    if direct != via_homology:
        raise CrossCheckError(
            f"virtual class mismatch: direct {direct} vs homology {via_homology}")
    return direct


def verify_quantum_lefschetz(p: ZeroLocusPresentation, m: Complex) -> KVerdict:
    """Pushforward-pullback against twisting by the Euler class, at class level.

    Classes multiply under tensor, so the left side is [m] times [kos], and
    [kos] is read off the Koszul terms; no differential is built.  The bundle
    is free, so the identity is independent of any regularity of the section.
    """
    if m.ring != p.ring:
        raise RingMismatch("operand complex over a different ring")
    lhs = kclass_of_complex(m) * koszul_class(p)
    rhs = kclass_of_complex(m) * lambda_minus_one(p.all_degrees)
    return KVerdict(lhs == rhs, lhs, rhs)


def _wedge_sign(s: tuple[int, ...], t: tuple[int, ...], u: tuple[int, ...]) -> int:
    """Sign sorting the word (e_S, then e_t for t in U and e'_t otherwise, t in T)
    into all e ascending, then all e' ascending."""
    word = [(0, k) for k in s] + [(0 if k in u else 1, k) for k in t]
    inversions = sum(1 for a, b in itertools.combinations(word, 2) if a > b)
    return -1 if inversions % 2 else 1


# an integer combination of words, and a map sending each word to one
_Combination = dict[tuple[int, ...], int]
_WordMap = dict[tuple[int, ...], _Combination]


def _lambda_psi(r: int, c: int) -> _WordMap:
    """Lambda(psi), psi(e_k) = e_k and psi(e'_k) = c e_k + e'_k, on the words of
    Lambda(E (+) E) for r entries.

    A word is an ascending subset of range(2r), r + k standing for e'_k, so
    the word S u (r + T) is e_S ^ e'_T, the Koszul layout of 2r entries.
    Lambda(psi) sends it to the sum over U in T, disjoint from S, of
    c^|U| times `_wedge_sign` times the word S u U u (r + (T - U)).
    """
    out = {}
    for w in itertools.chain.from_iterable(
            itertools.combinations(range(2 * r), n) for n in range(2 * r + 1)):
        s = tuple(k for k in w if k < r)
        t = tuple(k - r for k in w if k >= r)
        free = [k for k in t if k not in s]
        out[w] = {tuple(sorted(s + u)) + tuple(r + k for k in t if k not in u):
                  _wedge_sign(s, t, u) * c ** size
                  for size in range(len(free) + 1)
                  for u in itertools.combinations(free, size)}
    return out


def _contract(ks: tuple[int, ...], combination: _Combination) -> _Combination:
    """The sum of the contractions by e_k, k in ks, of a combination of words."""
    out: _Combination = {}
    for w, a in combination.items():
        for k, rest, sign in koszul_contractions(w):
            if k in ks:
                out[rest] = out.get(rest, 0) + sign * a
    return {w: a for w, a in out.items() if a}


def _apply(f: _WordMap, combination: _Combination) -> _Combination:
    """f applied to a combination of words."""
    out: _Combination = {}
    for w, a in combination.items():
        for v, b in f[w].items():
            out[v] = out.get(v, 0) + a * b
    return {v: a for v, a in out.items() if a}


@lru_cache(maxsize=None)
def excess_certificate(r: int) -> tuple[_WordMap, _WordMap]:
    """The chain isomorphism Lambda(psi): kos(s, s) -> kos(s, 0) for r entries,
    and its inverse, as maps from words to integer combinations of words
    (see `_lambda_psi`).

    kos(s, s) has the entries s_k twice over, kos(s, 0) the s_k and then r
    zeros, so on words their differentials are sum_k s_k (D_k + D_(r+k))
    and sum_k s_k D_k, D_j the contraction by e_j (`koszul_contractions`).
    The maps are constant, so Lambda(psi) commutes with the differentials
    exactly when D_k Lambda(psi) = Lambda(psi) (D_k + D_(r+k)) for every
    k < r, the coefficients of s_k.  That is checked on every word, and so
    is Lambda(psi)^-1 Lambda(psi) = 1; each degree has as many words on
    both sides, so the left inverse is two-sided and commutes too.  Checked
    on the universal section, the identities specialise to every section of
    r entries under s_k -> f_k, twists included (e_k and e'_k carry the
    same twist).  Raises ComplexInvariantError if a check fails, and
    WorkLimitError when kos(s, s), of 4^r generators, is over
    MAX_GENERATORS (from r = 6 on).
    """
    check_generators(4 ** r)
    forward, inverse = _lambda_psi(r, 1), _lambda_psi(r, -1)
    for w, image in forward.items():
        for k in range(r):
            if _contract((k,), image) != _apply(forward, _contract((k, r + k), {w: 1})):
                raise ComplexInvariantError(
                    f"chain map fails to commute on the word {w} at s{k + 1}")
        if _apply(inverse, image) != {w: 1}:
            raise ComplexInvariantError(f"Lambda(psi) does not invert on the word {w}")
    return forward, inverse


def verify_excess(p: ZeroLocusPresentation, cutoff: int) -> ExcessResult:
    """Self-intersection kos(f, f) against kos(f, 0), by one Koszul table.

    The two complexes are isomorphic through `excess_certificate`, checked
    once per number of entries, so they share one table.  kos(f, 0) is
    kos (x) Lambda(E), and Lambda(E) has the terms of kos and zero
    differential, so that table is the kos table shifted by the degree and
    twist of each of those generators.  The certificate runs first: from
    six entries on it raises WorkLimitError before any table is computed.
    """
    excess_certificate(len(p.all_entries))
    table = koszul_table(p, cutoff)
    shifted: dict[tuple[int, int], int] = {}
    for n, module in koszul_terms(p).items():
        for twist in module.twists:
            for (i, d), h in table.entries.items():
                if d + twist <= cutoff:
                    shifted[i + n, d + twist] = shifted.get((i + n, d + twist), 0) + h
    both = HilbertTable(cutoff, shifted)
    return ExcessResult(both, both)


def verify_sym_ga(p: ZeroLocusPresentation, cutoff: int,
                  n_max: int | None = None) -> DimComparison:
    """Weight-zero symmetric-power complex against the Koszul complex.

    Untruncated, the invariants are the Koszul complex itself: one table,
    reported on both sides.  Truncated symmetric powers give a proper
    subcomplex of the Koszul complex, built directly; its table is compared
    with the Koszul table, which builds the Koszul complex only for the rank
    cells a Groebner basis of the entries leaves.
    """
    if n_max is not None and n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max is None or n_max >= p.rank:
        table = koszul_table(p, cutoff)
        return DimComparison(True, None, table, table)
    from .chains import homology_dimensions, sym_cofib_invariants

    table_a = homology_dimensions(sym_cofib_invariants(p, n_max).complex, cutoff)
    table_b = koszul_table(p, cutoff)
    witness = compare_tables(table_a, table_b)
    return DimComparison(witness is None, witness, table_a, table_b)


def vpull(p: ZeroLocusPresentation, kappa: KClass) -> KClass:
    """Pullback-retruncation along the zero-locus inclusion, at class level."""
    return kappa * lambda_minus_one(p.section_degrees)


def vpull_via_homology(p: ZeroLocusPresentation, representative: Complex) -> KClass:
    """Homology route for the class pullback, from a representative complex.

    The class of representative (x) kos is [representative] times [kos], and
    both factors are exact, so the homology route runs on the Koszul complex
    of the section alone; the tensor complex is not built.
    """
    if representative.ring != p.ring:
        raise RingMismatch("representative over a different ring")
    section = ZeroLocusPresentation(p.ring, (), p.section)
    return kclass_of_complex(representative) * _koszul_kclass_via_homology(section)


def verify_strong_factorization(p: ZeroLocusPresentation) -> KVerdict:
    """Virtual class of the full locus against ambient class times Euler class."""
    if not p.ambient:
        raise PresentationError(
            "verify_strong_factorization needs a derived ambient; "
            "with an empty ambient use verify_quantum_lefschetz")
    lhs = virtual_class(p)
    ambient_only = ZeroLocusPresentation(p.ring, (), p.ambient)
    rhs = virtual_class(ambient_only) * lambda_minus_one(p.section_degrees)
    return KVerdict(lhs == rhs, lhs, rhs)


def complex_from_kclass(ring: GradedRing, kappa: KClass) -> Complex:
    """A zero-differential representative: positive parts in degree 0, negative in degree 1.

    One generator per unit of coefficient; raises WorkLimitError above
    MAX_GENERATORS before allocating them.
    """
    check_generators(sum(abs(v) for v in kappa.coeffs.values()))
    pos = tuple(sorted(k for k, v in kappa.coeffs.items() for _ in range(max(v, 0))))
    neg = tuple(sorted(k for k, v in kappa.coeffs.items() for _ in range(max(-v, 0))))
    if any(k < 0 for k in pos + neg):
        raise ValueError("representatives need nonnegative powers")
    terms = {}
    if pos:
        terms[0] = GradedFreeModule(ring, pos)
    if neg:
        terms[1] = GradedFreeModule(ring, neg)
    return Complex(ring, terms, {})
