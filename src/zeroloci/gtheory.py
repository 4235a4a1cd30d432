"""Classes of complexes in the Grothendieck group of graded modules.

For complexes of twisted free modules the complete invariant is the
K-polynomial numerator: a Laurent polynomial in one variable t collecting
the twists with alternating sign.  Every class-level identity checked
here is therefore a decidable equality of Laurent polynomials, and each
main operation also carries a homology route (alternating sums of
truncated Hilbert series of the homology) that must reproduce the direct
answer.  That route is not independent of the terms: a table sets
dim H^i_d = dim C^i_d - rank(d^i)_d - rank(d^(i-1))_d (`homology._assemble`),
so in the alternating sum every rank cancels, and what it reproduces is the
Euler characteristic of the terms.  It checks the term dimensions, the
truncation and the series arithmetic, not the ranks: a wrong rank that
leaves every dimension nonnegative changes a table but not a class.

A class depends only on the terms of a complex, and classes multiply under
tensor.  So a class is read off the terms (the Koszul class off the
exterior powers of the entries) or taken as a product of classes.  The
homology routes read Koszul tables (`homology.koszul_table`), which build a
differential only for the rank cells a Groebner basis of the entries leaves.
A truncated sym-GA check compares such a table with that of the invariants,
built directly (`chains.sym_cofib_invariants`), where it imports the
chain-level layer.

The excess-intersection identity is proved, not sampled: a chain
isomorphism from the self-intersection kos(f, f) (the entries listed
twice) to kos(f, 0) (the entries, then as many zeros), both Koszul
complexes, makes the two Hilbert tables one, read off the Koszul table.
The isomorphism and both differentials are integer combinations of
constant maps on exterior words, so it is checked exactly once per number
of entries on those maps, and no polynomial complex or matrix.  A word is
a bit set of the exterior generators, and its contractions come from a
table read once per number of entries from `koszul_contractions`, the
rule the Koszul complex is built with.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Mapping, Sequence

from .complexes import Complex, ComplexInvariantError, check_generators, koszul_contractions
from .homology import (DimComparison, HilbertTable, compare_tables, homology_dimensions,
                       koszul_table)
from .polyalg import GradedFreeModule, GradedRing, ParseError, Record, as_integers, signed_sum
from .zerolocus import PresentationError, ZeroLocusPresentation, koszul_terms

__all__ = [
    "KClass",
    "KVerdict",
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
]


class CrossCheckError(RuntimeError):
    """The direct route and the homology route disagree; an engine bug."""


class KClass:
    """Laurent polynomial in t with integer coefficients.

    The constructor reads every power and coefficient with operator.index;
    the arithmetic, and the classes this module reads off terms, tables and
    checked degrees, build their int results through `_trusted`, unchecked.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        coeffs = coeffs or {}
        self.coeffs = {k: v for k, v in zip(as_integers(coeffs, "K-class powers"),
                                            as_integers(coeffs.values(), "K-class coefficients"))
                       if v}

    @classmethod
    def _trusted(cls, coeffs: dict[int, int]) -> "KClass":
        """The class of int coefficients on int powers, zeros dropped, not checked again."""
        out = object.__new__(cls)
        out.coeffs = {k: v for k, v in coeffs.items() if v}
        return out

    @classmethod
    def zero(cls) -> "KClass":
        return cls._trusted({})

    @classmethod
    def one(cls) -> "KClass":
        return cls._trusted({0: 1})

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "KClass":
        return cls({power: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _sum(self, other: "KClass", sign: int) -> "KClass":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
        return KClass._trusted(coeffs)

    def __add__(self, other: "KClass") -> "KClass":
        return self._sum(other, 1)

    def __sub__(self, other: "KClass") -> "KClass":
        return self._sum(other, -1)

    def __neg__(self) -> "KClass":
        return KClass._trusted({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other: "KClass") -> "KClass":
        coeffs: dict[int, int] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                coeffs[k] = coeffs.get(k, 0) + v1 * v2
        return KClass._trusted(coeffs)

    def truncate(self, max_power: int) -> "KClass":
        return KClass._trusted({k: v for k, v in self.coeffs.items() if k <= max_power})

    def __eq__(self, other):
        if not isinstance(other, KClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self):
        return signed_sum(("t" if k == 1 else f"t^{k}" if k else "", v)
                          for k, v in sorted(self.coeffs.items()))

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


def kclass_of_complex(c: Complex) -> KClass:
    """Alternating sum over the twists of each term."""
    return _kclass_of_terms(c.terms)


def _kclass_of_terms(terms: Mapping[int, GradedFreeModule]) -> KClass:
    coeffs: dict[int, int] = {}
    for i, module in terms.items():
        sign = -1 if i % 2 else 1
        for a in module.twists:
            coeffs[a] = coeffs.get(a, 0) + sign
    return KClass._trusted(coeffs)


def koszul_class(p: ZeroLocusPresentation) -> KClass:
    """Class of the Koszul complex of p, read off its terms without building it."""
    return _kclass_of_terms(koszul_terms(p))


def kclass_via_homology(c: Complex) -> KClass:
    """Class reconstructed from homology: sum of (-1)^i times the truncated
    Hilbert series of H^i, multiplied by the ring's denominator product.

    Exact for complexes with nonnegative twists, with the series truncated at
    the largest twist; this is the truncation route and must agree with
    kclass_of_complex.  A Koszul complex takes `_koszul_kclass_via_homology`.
    """
    twists = [a for i in c.support for a in c.term(i).twists]
    if not twists:
        return KClass.zero()
    if min(twists) < 0:
        raise ValueError("homology route requires nonnegative twists")
    return _kclass_of_table(homology_dimensions(c, max(twists)), c.ring)


def _koszul_kclass_via_homology(p: ZeroLocusPresentation) -> KClass:
    """kclass_via_homology(koszul_complex(p)), read off the Koszul table up to
    the largest Koszul twist, the sum of the entries' degrees."""
    return _kclass_of_table(koszul_table(p, sum(p.all_degrees)), p.ring)


def _kclass_of_table(table: HilbertTable, ring: GradedRing) -> KClass:
    """The alternating sum of the Hilbert series of the table's rows up to its
    cutoff, times the ring's denominator product, truncated there."""
    total = KClass.zero()
    for i in table.cohomological_degrees():
        series = KClass._trusted({d: table.dim(i, d) for d in range(table.cutoff + 1)})
        total = total + (series if i % 2 == 0 else -series)
    return (total * lambda_minus_one(ring.degrees)).truncate(table.cutoff)


def lambda_minus_one(degrees: Sequence[int]) -> KClass:
    """Euler class of a twisted free bundle: the product of (1 - t^d)."""
    out = KClass.one()
    for d in as_integers(degrees, "twist degrees"):
        if d < 1:
            raise ValueError("twist degrees must be positive")
        out = out * KClass._trusted({0: 1, d: -1})
    return out


def virtual_class(p: ZeroLocusPresentation) -> KClass:
    """Class of the Koszul complex, cross-checked through the homology route."""
    direct = koszul_class(p)
    via_homology = _koszul_kclass_via_homology(p)
    if direct != via_homology:
        raise CrossCheckError(
            f"virtual class mismatch: direct {direct} vs homology {via_homology}")
    return direct


def verify_quantum_lefschetz(p: ZeroLocusPresentation, m: KClass) -> KVerdict:
    """Pushforward-pullback against twisting by the Euler class, at class level,
    for an operand of class m.

    Classes multiply under tensor, so the left side is m times [kos], and
    [kos] is read off the Koszul terms; no differential is built.  The bundle
    is free, so the identity is independent of any regularity of the section.
    """
    lhs = m * koszul_class(p)
    rhs = m * lambda_minus_one(p.all_degrees)
    return KVerdict(lhs == rhs, lhs, rhs)


def _wedge_sign(s: int, t: int, u: int) -> int:
    """Sign sorting the word (e_S, then e_t for t in U and e'_t otherwise, t in T)
    into all e ascending, then all e' ascending, for bit sets S, T and U in T - S.

    Each e_t, t in U, passes the e_k, k in S, above it and the e'_k, k in T - U,
    below it.
    """
    inversions = 0
    for k in range(u.bit_length()):
        if u >> k & 1:
            inversions += (s >> k).bit_count() + ((t ^ u) % 2 ** k).bit_count()
    return (-1) ** inversions


# a map of words as a list, indexed by word, of integer combinations of words
_WordMap = list[dict[int, int]]


def _lambda_psi(r: int, c: int) -> _WordMap:
    """Lambda(psi), psi(e_k) = e_k and psi(e'_k) = c e_k + e'_k, on the words of
    Lambda(E (+) E) for r entries.

    A word is a bit set of range(2r), bit r + k standing for e'_k, so the word
    S | T << r is e_S ^ e'_T, the Koszul layout of 2r entries.  Lambda(psi)
    sends it to the sum over U in T - S of c^|U| times `_wedge_sign` times the
    word S | U | (T - U) << r.
    """
    return [{s | u | (t ^ u) << r: _wedge_sign(s, t, u) * c ** u.bit_count()
             for u in range(t + 1) if u & t & ~s == u}
            for t in range(2 ** r) for s in range(2 ** r)]


def _contractions(r: int) -> list[list[tuple[int, int, int]]]:
    """The contractions of each word of 2r letters, on bit sets: for the word w,
    one (j, w without j, sign) per letter j of w, from `koszul_contractions`,
    the rule the Koszul complex is built with."""
    words = [()]
    for j in range(2 * r):
        words += [word + (j,) for word in words]
    index = {word: w for w, word in enumerate(words)}
    return [[(j, index[rest], sign) for j, rest, sign in koszul_contractions(word)]
            for word in words]


@lru_cache(maxsize=None)
def excess_certificate(r: int) -> tuple[_WordMap, _WordMap]:
    """The chain isomorphism Lambda(psi): kos(s, s) -> kos(s, 0) for r entries,
    and its inverse, on words stored as bit sets (see `_lambda_psi`).

    kos(s, s) has the entries s_k twice over, kos(s, 0) the s_k and then r
    zeros, so on words their differentials are sum_k s_k (D_k + D_(r+k))
    and sum_k s_k D_k, D_j the contraction by e_j.  The contractions of
    every word are read once from `koszul_contractions`, the rule the
    Koszul complex is built with.  The maps are constant, so Lambda(psi)
    commutes with the differentials exactly when D_k Lambda(psi) =
    Lambda(psi) (D_k + D_(r+k)) for every k < r, the coefficients of s_k.
    That is checked on every word, and so is Lambda(psi)^-1 Lambda(psi) = 1;
    each degree has as many words on both sides, so the left inverse is
    two-sided and commutes too.  Checked on the universal section, the
    identities specialise to every section of r entries under s_k -> f_k,
    twists included (e_k and e'_k carry the same twist).  Raises
    ComplexInvariantError if a check fails, and WorkLimitError when
    kos(s, s), of 4^r generators, is over MAX_GENERATORS (from r = 6 on).
    """
    check_generators(4 ** r)
    forward, inverse = _lambda_psi(r, 1), _lambda_psi(r, -1)
    contractions = _contractions(r)
    for w, image in enumerate(forward):
        # D_k Lambda(psi) w - Lambda(psi) (D_k + D_(r+k)) w for each k < r, then
        # Lambda(psi)^-1 Lambda(psi) w - w
        diff = [{} for _ in range(r)] + [{w: -1}]
        for v, a in image.items():
            for j, rest, sign in contractions[v]:
                if j < r:
                    diff[j][rest] = diff[j].get(rest, 0) + sign * a
            for x, b in inverse[v].items():
                diff[r][x] = diff[r].get(x, 0) + a * b
        for j, rest, sign in contractions[w]:
            for v, a in forward[rest].items():
                diff[j % r][v] = diff[j % r].get(v, 0) - sign * a
        for k, d in enumerate(diff):
            if any(d.values()):
                # the letters of w, ascending, are the letters its contractions remove
                word = tuple(j for j, _, _ in contractions[w])
                raise ComplexInvariantError(
                    f"chain map fails to commute on the word {word} at s{k + 1}" if k < r
                    else f"Lambda(psi) does not invert on the word {word}")
    return forward, inverse


def verify_excess(p: ZeroLocusPresentation, cutoff: int) -> HilbertTable:
    """The one table of the self-intersection kos(f, f) and of kos(f, 0).

    The two complexes are isomorphic through `excess_certificate`, checked
    once per number of entries, so they share one table; there is no failing
    verdict, as a certificate that fails to commute or to invert raises
    ComplexInvariantError.  kos(f, 0) is kos (x) Lambda(E), and Lambda(E)
    has the terms of kos and zero differential, so that table is the kos
    table shifted by the degree and twist of each of those generators.  The
    certificate runs first: from six entries on it raises WorkLimitError
    before any table is computed.
    """
    excess_certificate(len(p.all_entries))
    table = koszul_table(p, cutoff)
    shifted: dict[tuple[int, int], int] = {}
    for n, module in koszul_terms(p).items():
        for twist in module.twists:
            for (i, d), h in table.entries.items():
                if d + twist <= cutoff:
                    shifted[i + n, d + twist] = shifted.get((i + n, d + twist), 0) + h
    return HilbertTable(cutoff, shifted)


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
    from .chains import sym_cofib_invariants

    table_a = homology_dimensions(sym_cofib_invariants(p, n_max), cutoff)
    table_b = koszul_table(p, cutoff)
    witness = compare_tables(table_a, table_b)
    return DimComparison(witness is None, witness, table_a, table_b)


def vpull(p: ZeroLocusPresentation, kappa: KClass) -> KClass:
    """Pullback-retruncation along the zero-locus inclusion, at class level."""
    return kappa * lambda_minus_one(p.section_degrees)


def vpull_via_homology(p: ZeroLocusPresentation, kappa: KClass) -> KClass:
    """Homology route for the class pullback of kappa.

    The class of a representative of kappa tensored with kos is kappa times
    [kos], so the homology route runs on the Koszul complex of the section
    alone; neither a representative nor the tensor complex is built.
    """
    section = ZeroLocusPresentation(p.ring, (), p.section)
    return kappa * _koszul_kclass_via_homology(section)


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

