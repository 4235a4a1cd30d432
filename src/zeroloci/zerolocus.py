"""Affine presentations of derived zero loci and their canonical complexes.

A presentation is a graded ring together with two lists of homogeneous
entries: the ambient list cuts out a derived ambient space as an iterated
zero locus over affine space, and the section list gives the components
of a section of a twisted free bundle over that ambient.  The associated
Koszul complex computes the derived quotient; its terms are
`koszul_terms`, built once per process for each ring and list of entry
degrees (`exterior_terms`).  The complex itself, the symmetric-power
invariants (a subcomplex of it when deliberately shortened below the
rank), the Jacobian and the cotangent complex are built in the
chain-level layer, `chains`, which loads on first use; the names of this
module's `__all__` it does not define resolve there.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from operator import index
from types import MappingProxyType

from .complexes import _exterior_powers
from .polyalg import GradedFreeModule, GradedRing, Polynomial, Record, forward_to_chains

__all__ = [
    "PresentationError",
    "SectionEntry",
    "ZeroLocusPresentation",
    "koszul_complex",
    "koszul_terms",
    "exterior_terms",
    "TERMS_MEMO_SIZE",
    "check_entries",
    "sym_cofib_invariants",
    "critical_locus",
    "cotangent_complex",
    "jacobian_data",
    "restrict",
]

SectionEntry = tuple[Polynomial, int]

# term layouts kept by `exterior_terms`, least recently used dropped first: one
# benchmark corpus sweep (seed 1) asks for 565 (Koszul terms and the operands
# of verify-lefschetz), 20 distinct; a memo of 16 serves 543 of the 545
# repeats, one of 32 all of them
TERMS_MEMO_SIZE = 32


class PresentationError(ValueError):
    """A zero-locus presentation violates one of its invariants."""


def check_entries(ring: GradedRing, entries, label: str) -> tuple[SectionEntry, ...]:
    """(polynomial, declared degree) pairs, each homogeneous of a degree >= 1 over
    ring; a PresentationError names the offending one "<label> entry k"."""
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
        if poly.terms and poly.term_degrees() != {degree}:
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
        self._init(ring, check_entries(ring, ambient, "ambient"),
                   check_entries(ring, section, "section"))

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


def koszul_terms(p: ZeroLocusPresentation) -> Mapping[int, GradedFreeModule]:
    """The terms of koszul_complex(p), in its layout, without building a differential:
    exterior_terms of the ring and the degrees of all entries, shared and read-only.

    The degree -n term is Lambda^n of all entries: the n-subset sums of their
    twists, the exterior algebra on the entries' twists.
    """
    return exterior_terms(p.ring, p.all_degrees)


@lru_cache(maxsize=TERMS_MEMO_SIZE)
def exterior_terms(ring: GradedRing, degrees: tuple[int, ...]) -> Mapping[int, GradedFreeModule]:
    """The terms of the exterior algebra on generators of these twists, Lambda^n
    in degree -n: the Koszul terms of entries of these degrees.

    Memoized per process on (ring, degrees): equal inputs return one
    read-only mapping (a MappingProxyType, so writing to it raises) for as
    long as it is among the last TERMS_MEMO_SIZE made.  A raised error
    (WorkLimitError past MAX_GENERATORS) is not kept.
    """
    return MappingProxyType(_exterior_powers(GradedFreeModule(ring, degrees), len(degrees)))


def critical_locus(w: Polynomial) -> ZeroLocusPresentation:
    """Presentation of the critical locus of a homogeneous potential.

    The section lists all partial derivatives, one per ring variable, with
    declared degrees deg(w) - deg(x_i); identically-zero partials keep the
    declared degree.
    """
    ring = w.ring
    degrees = w.term_degrees()
    if len(degrees) != 1:
        raise PresentationError("the potential must be nonzero and homogeneous")
    degree = degrees.pop()
    if degree < 2:
        raise PresentationError("the potential must be homogeneous of degree >= 2")
    section = tuple((w.partial(i), degree - ring.degrees[i]) for i in range(ring.nvars))
    return ZeroLocusPresentation(ring, (), section)


__getattr__, __dir__ = forward_to_chains(globals())
