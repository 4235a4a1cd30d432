"""Affine presentations of derived zero loci and their canonical complexes.

A presentation is a graded ring together with two lists of homogeneous
entries: the ambient list cuts out a derived ambient space as an iterated
zero locus over affine space, and the section list gives the components
of a section of a twisted free bundle over that ambient.  The associated
Koszul complex computes the derived quotient.  It and the symmetric-power
invariants, a subcomplex of it when deliberately shortened (marked by an
explicit truncation flag rather than an error), are built directly in one
subset layout by `complexes.contraction_complex`; all are bounded.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import index

from .complexes import Complex, check_generators, contraction_complex, exterior_algebra, tensor
from .polyalg import GradedFreeModule, GradedRing, Polynomial, PolyMatrix, Record, RingMismatch

__all__ = [
    "PresentationError",
    "SectionEntry",
    "ZeroLocusPresentation",
    "JacobianData",
    "SymInvariantsResult",
    "koszul_complex",
    "koszul_terms",
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
        try:
            degree = index(degree)
        except TypeError:
            raise PresentationError(f"{label} entry {k}: non-integer degree {degree!r}") from None
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


class ZeroLocusPresentation(Record):
    """Ambient Koszul data plus a homogeneous section of a twisted free bundle.

    `ambient` presents the ambient space (empty means plain affine space);
    `section` lists the components of the section with their bundle twists.
    Zero components are allowed and rely on the declared degree.
    """

    __slots__ = ("ring", "ambient", "section")

    def __init__(self, ring: GradedRing, ambient: tuple, section: tuple):
        self._init(ring, _check_entries(ring, ambient, "ambient"),
                   _check_entries(ring, section, "section"))

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


class JacobianData(Record):
    """Partial derivatives of the section entries, rows indexed by ring variables."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: PolyMatrix):
        self._init(matrix)


class SymInvariantsResult(Record):
    """Weight-zero symmetric-power complex; `truncated` when n_max < bundle rank."""

    __slots__ = ("complex", "truncated")

    def __init__(self, complex: Complex, truncated: bool):
        self._init(complex, truncated)


def _koszul_layout(p: ZeroLocusPresentation, n_max: int) -> Complex:
    """The subcomplex of the Koszul complex of p spanned by the subsets of all
    entries with at most n_max section entries (all of it for n_max >= rank),
    degree -n in lexicographic order, section entries after the ambient ones.
    Contraction keeps the bound.  Raises WorkLimitError above MAX_GENERATORS
    before building anything.
    """
    ambient, r = len(p.ambient), len(p.all_entries)
    check_generators(2 ** ambient * sum(comb(p.rank, s) for s in range(min(n_max, p.rank) + 1)))
    degrees = p.all_degrees
    subsets = {-n: [sub for sub in itertools.combinations(range(r), n)
                    if sum(k >= ambient for k in sub) <= n_max]
               for n in range(min(r, ambient + n_max) + 1)}
    terms = {i: GradedFreeModule(p.ring, tuple(sum(degrees[k] for k in sub) for sub in subs))
             for i, subs in subsets.items()}
    return contraction_complex(p.ring, [f for f, _ in p.all_entries], subsets, terms)


def koszul_complex(p: ZeroLocusPresentation) -> Complex:
    """Exterior powers of all entries, ambient first, joined by contraction.

    Up to three entries this equals the tensor of their two-term complexes.
    """
    return _koszul_layout(p, p.rank)


def koszul_terms(p: ZeroLocusPresentation) -> dict[int, GradedFreeModule]:
    """The terms of koszul_complex(p), in its layout, without building a differential.

    The degree -n term is Lambda^n of all entries: the n-subset sums of their
    twists, the exterior algebra on the entries' twists.
    """
    return exterior_algebra(GradedFreeModule(p.ring, p.all_degrees), len(p.all_entries)).terms


def sym_cofib_invariants(p: ZeroLocusPresentation, n_max: int) -> SymInvariantsResult:
    """Weight-zero part of the symmetric algebra on the cofibre of the cosection.

    The direct sum of the symmetric powers up to n_max is regraded by the
    auxiliary weight (the power of the generator of the trivial line); its
    weight-zero pieces are the exterior powers Lambda^n of the dual bundle,
    n <= top = min(n_max, rank), joined by contraction with the section
    (the line generator has twist 0).  Tensored with the ambient Koszul
    complex they are the subcomplex of the Koszul complex spanned by the
    subsets with at most top section entries (e_A (x) e_B -> e_(A u B)
    needs no sign), built directly in the Koszul layout, without the rest
    of the Koszul complex; untruncated (n_max >= rank) it is the Koszul
    complex itself.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return SymInvariantsResult(_koszul_layout(p, n_max), truncated=n_max < p.rank)


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
