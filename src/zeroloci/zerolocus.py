"""Affine presentations of derived zero loci and their canonical complexes.

A presentation is a graded ring together with two lists of homogeneous
entries: the ambient list cuts out a derived ambient space as an iterated
zero locus over affine space, and the section list gives the components
of a section of a twisted free bundle over that ambient.  The associated
Koszul complex computes the derived quotient; with a free bundle every
complex built here is bounded, and deliberately shortened symmetric-power
data is marked by an explicit truncation flag rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, sym_two_term, tensor
from .polyalg import GradedFreeModule, GradedRing, Polynomial, PolyMatrix, RingMismatch

__all__ = [
    "PresentationError",
    "SectionEntry",
    "ZeroLocusPresentation",
    "JacobianData",
    "SymInvariantsResult",
    "koszul_complex",
    "sym_cofib_invariants",
    "critical_locus",
    "cotangent_complex",
    "jacobian_data",
    "restrict",
]

SectionEntry = tuple[Polynomial, int]


class PresentationError(ValueError):
    """A zero-locus presentation violates one of its invariants."""


def _check_entries(ring: GradedRing, entries, label: str) -> tuple[SectionEntry, ...]:
    out = []
    for k, (poly, degree) in enumerate(entries):
        degree = int(degree)
        if poly.ring != ring:
            raise PresentationError(f"{label} entry {k} lives over a different ring")
        if degree < 1:
            raise PresentationError(f"{label} entry {k}: declared degree must be >= 1")
        if not poly.is_zero() and (not poly.is_homogeneous()
                                   or poly.homogeneous_degree() != degree):
            raise PresentationError(
                f"{label} entry {k}: {poly} is not homogeneous of declared degree {degree}")
        out.append((poly, degree))
    return tuple(out)


@dataclass(frozen=True)
class ZeroLocusPresentation:
    """Ambient Koszul data plus a homogeneous section of a twisted free bundle.

    `ambient` presents the ambient space (empty means plain affine space);
    `section` lists the components of the section with their bundle twists.
    Zero components are allowed and rely on the declared degree.
    """

    ring: GradedRing
    ambient: tuple[SectionEntry, ...]
    section: tuple[SectionEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "ambient", _check_entries(self.ring, self.ambient, "ambient"))
        object.__setattr__(self, "section", _check_entries(self.ring, self.section, "section"))

    @property
    def all_entries(self) -> tuple[SectionEntry, ...]:
        return self.ambient + self.section

    @property
    def section_degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.section)

    @property
    def ambient_degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.ambient)

    @property
    def all_degrees(self) -> tuple[int, ...]:
        return self.ambient_degrees + self.section_degrees

    @property
    def rank(self) -> int:
        return len(self.section)

    def bundle_dual(self) -> GradedFreeModule:
        """The dual of the section bundle, one generator of twist d per component."""
        return GradedFreeModule(self.ring, self.section_degrees)


@dataclass(frozen=True)
class JacobianData:
    """Partial derivatives of the section entries, rows indexed by ring variables."""

    matrix: PolyMatrix


@dataclass(frozen=True)
class SymInvariantsResult:
    """Weight-zero symmetric-power complex; `truncated` when n_max < bundle rank."""

    complex: Complex
    truncated: bool


def _cosection(ring: GradedRing, entries: tuple[SectionEntry, ...]) -> Complex:
    """[(+)_k R(-d_k) --(f_k)--> R] in degrees -1, 0, one generator of twist d_k per entry."""
    bundle = GradedFreeModule(ring, tuple(degree for _, degree in entries))
    line = GradedFreeModule(ring, (0,))
    cosection = PolyMatrix(bundle, line, [[poly for poly, _ in entries]])
    return Complex(ring, {-1: bundle, 0: line}, {-1: cosection})


def koszul_complex(p: ZeroLocusPresentation) -> Complex:
    """Exterior powers of all entries, ambient first, joined by contraction.

    Up to three entries this equals the tensor of their two-term complexes.
    """
    return sym_two_term(_cosection(p.ring, p.all_entries), len(p.all_entries))


def sym_cofib_invariants(p: ZeroLocusPresentation, n_max: int) -> SymInvariantsResult:
    """Weight-zero part of the symmetric algebra on the cofibre of the cosection.

    The direct sum of the symmetric powers up to n_max is regraded by the
    auxiliary weight (the power of the generator of the trivial line); its
    weight-zero pieces are the exterior powers Lambda^n of the dual bundle,
    n <= top = min(n_max, rank), joined by contraction with the section.
    The line generator has twist 0, so these are exactly the terms and
    differentials of the single power Sym^top of the cofibre, whose degree
    -n term is Lambda^n (x) Sym^(top - n)(line).  The result is tensored
    with the ambient Koszul complex when the ambient is derived.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    cofib = _cosection(p.ring, p.section)
    invariants = sym_two_term(cofib, min(n_max, p.rank))
    if p.ambient:
        ambient = ZeroLocusPresentation(p.ring, (), p.ambient)
        invariants = tensor(koszul_complex(ambient), invariants)
    return SymInvariantsResult(invariants, truncated=n_max < p.rank)


def critical_locus(w: Polynomial) -> ZeroLocusPresentation:
    """Presentation of the critical locus of a homogeneous potential.

    The section lists all partial derivatives, one per ring variable, with
    declared degrees deg(w) - deg(x_i); identically-zero partials keep the
    declared degree.
    """
    ring = w.ring
    if w.is_zero() or not w.is_homogeneous():
        raise PresentationError("the potential must be nonzero and homogeneous")
    degree = w.homogeneous_degree()
    if degree < 2:
        raise PresentationError("the potential must be homogeneous of degree >= 2")
    section = tuple((w.partial(i), degree - ring.degrees[i]) for i in range(ring.nvars))
    return ZeroLocusPresentation(ring, (), section)


def jacobian_data(p: ZeroLocusPresentation) -> JacobianData:
    """All partials of the section entries; rows = ring variables, columns = entries."""
    ring = p.ring
    source = p.bundle_dual()
    target = GradedFreeModule(ring, ring.degrees)
    rows = [[poly.partial(i) for poly, _ in p.section] for i in range(ring.nvars)]
    return JacobianData(PolyMatrix(source, target, rows))


def cotangent_complex(p: ZeroLocusPresentation) -> Complex:
    """Jacobian two-term complex restricted to the zero locus.

    Only smooth affine ambients are supported: the ambient list must be
    empty.  The result is [bundle dual --Jacobian--> Kaehler generators]
    in degrees -1, 0, tensored with the Koszul complex of the presentation.
    """
    if p.ambient:
        raise PresentationError("cotangent_complex requires an empty ambient list")
    ring = p.ring
    jac = jacobian_data(p).matrix
    terms = {}
    if jac.source.rank:
        terms[-1] = jac.source
    if jac.target.rank:
        terms[0] = jac.target
    two_term = Complex(ring, terms, {-1: jac} if jac.source.rank and jac.target.rank else {})
    return tensor(two_term, koszul_complex(p))


def restrict(m: Complex, p: ZeroLocusPresentation) -> Complex:
    """Derived restriction to the zero locus: tensor with the Koszul complex."""
    if m.ring != p.ring:
        raise RingMismatch("complex and presentation over different rings")
    return tensor(m, koszul_complex(p))
