"""Classes of complexes in the Grothendieck group of graded modules.

For complexes of twisted free modules the complete invariant is the
K-polynomial numerator: a Laurent polynomial in one variable t collecting
the twists with alternating sign.  Every class-level identity checked
here is therefore a decidable equality of Laurent polynomials, and each
main operation also carries an independent homology route (alternating
sums of truncated Hilbert series of the homology) that must reproduce
the direct answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .complexes import Complex, tensor
from .homology import (
    DimComparison,
    HilbertTable,
    compare_tables,
    homology_dimensions,
    same_homology_dims,
)
from .polyalg import GradedFreeModule, GradedRing, ParseError, RingMismatch
from .zerolocus import (
    PresentationError,
    ZeroLocusPresentation,
    koszul_complex,
    sym_cofib_invariants,
)

__all__ = [
    "KClass",
    "KVerdict",
    "ExcessResult",
    "CrossCheckError",
    "kclass_of_complex",
    "kclass_via_homology",
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

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
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


@dataclass(frozen=True)
class KVerdict:
    """Exact comparison of two classes; on failure both sides are the witness."""

    passed: bool
    lhs: KClass
    rhs: KClass


@dataclass(frozen=True)
class ExcessResult:
    passed: bool
    witness: Optional[tuple[int, int, int, int]]
    table_restricted: HilbertTable
    table_euler: HilbertTable


def kclass_of_complex(c: Complex) -> KClass:
    """Alternating sum over the twists of each term."""
    coeffs: dict[int, int] = {}
    for i in c.support:
        sign = -1 if i % 2 else 1
        for a in c.term(i).twists:
            coeffs[a] = coeffs.get(a, 0) + sign
    return KClass(coeffs)


def kclass_via_homology(c: Complex, cutoff: Optional[int] = None) -> KClass:
    """Class reconstructed from homology: sum of (-1)^i times the truncated
    Hilbert series of H^i, multiplied by the ring's denominator product.

    Exact for complexes with nonnegative twists once the cutoff reaches the
    largest twist; this is the truncation route and must agree with
    kclass_of_complex.
    """
    twists = [a for i in c.support for a in c.term(i).twists]
    if not twists:
        return KClass.zero()
    if min(twists) < 0:
        raise ValueError("homology route requires nonnegative twists")
    if cutoff is None:
        cutoff = max(twists)
    cutoff = max(cutoff, max(twists))
    table = homology_dimensions(c, cutoff)
    total = KClass.zero()
    for i in table.cohomological_degrees():
        series = KClass({d: table.dim(i, d) for d in range(cutoff + 1)})
        total = total + (series if i % 2 == 0 else -series)
    denominator = lambda_minus_one(c.ring.degrees)
    return (total * denominator).truncate(cutoff)


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
    kos = koszul_complex(p)
    direct = kclass_of_complex(kos)
    via_homology = kclass_via_homology(kos)
    if direct != via_homology:
        raise CrossCheckError(
            f"virtual class mismatch: direct {direct} vs homology {via_homology}")
    return direct


def verify_quantum_lefschetz(p: ZeroLocusPresentation, m: Complex) -> KVerdict:
    """Pushforward-pullback against twisting by the Euler class, at class level.

    Classes multiply under tensor, so the left side is [m] times [kos].  The
    bundle is free, so the identity is independent of any regularity of the section.
    """
    if m.ring != p.ring:
        raise RingMismatch("operand complex over a different ring")
    lhs = kclass_of_complex(m) * kclass_of_complex(koszul_complex(p))
    rhs = kclass_of_complex(m) * lambda_minus_one(p.all_degrees)
    return KVerdict(lhs == rhs, lhs, rhs)


def verify_excess(p: ZeroLocusPresentation, cutoff: int) -> ExcessResult:
    """Self-intersection kos (x) kos against kos (x) Lambda(E), by dimension tables.

    Lambda(E) has the terms of kos and zero differential, so the right table is
    the kos table shifted by the degree and twist of each of those generators.
    """
    kos = koszul_complex(p)
    table = homology_dimensions(kos, cutoff)
    shifted: dict[tuple[int, int], int] = {}
    for n, module in kos.terms.items():
        for twist in module.twists:
            for (i, d), h in table.entries.items():
                if d + twist <= cutoff:
                    shifted[i + n, d + twist] = shifted.get((i + n, d + twist), 0) + h
    lhs, rhs = homology_dimensions(tensor(kos, kos), cutoff), HilbertTable(cutoff, shifted)
    witness = compare_tables(lhs, rhs)
    return ExcessResult(witness is None, witness, lhs, rhs)


def verify_sym_ga(p: ZeroLocusPresentation, cutoff: int,
                  n_max: Optional[int] = None) -> DimComparison:
    """Weight-zero symmetric-power complex against the Koszul complex.

    Equal complexes (an exact test, independent of the cutoff) share one
    table, reported on both sides.  They differ when the symmetric powers
    are truncated, or with an ambient of three or more entries, whose
    Koszul complex tensored with the section's exterior powers orders the
    basis unlike the subset layout; then the two tables are compared.
    """
    if n_max is None:
        n_max = p.rank
    invariants = sym_cofib_invariants(p, n_max).complex
    kos = koszul_complex(p)
    if invariants == kos:
        table = homology_dimensions(kos, cutoff)
        return DimComparison(True, None, table, table)
    return same_homology_dims(invariants, kos, cutoff)


def vpull(p: ZeroLocusPresentation, kappa: KClass) -> KClass:
    """Pullback-retruncation along the zero-locus inclusion, at class level."""
    return kappa * lambda_minus_one(p.section_degrees)


def _section_koszul(p: ZeroLocusPresentation) -> Complex:
    return koszul_complex(ZeroLocusPresentation(p.ring, (), p.section))


def vpull_via_homology(p: ZeroLocusPresentation, representative: Complex) -> KClass:
    """Homology route for the class pullback, from a representative complex."""
    if representative.ring != p.ring:
        raise RingMismatch("representative over a different ring")
    restricted = tensor(representative, _section_koszul(p))
    return kclass_via_homology(restricted)


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
    """A zero-differential representative: positive parts in degree 0, negative in degree 1."""
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
