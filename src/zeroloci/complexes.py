"""Bounded cochain complexes of graded free modules.

Cohomological (upper) indexing throughout.  A `Complex` holds its terms and
its nonzero differentials, and checks d o d = 0 exactly on construction;
an inconsistent complex raises ComplexInvariantError.  Koszul tables and
classes (`homology`, `gtheory`) read only terms: `_exterior_powers` builds the
exterior powers of a module (subsets of generators in ascending
lexicographic order), `exterior_algebra` the complex of them with no
differential, and `koszul_contractions` gives the contraction rule that
joins them into a Koszul complex.

Chain maps and the operations on complexes (shift, cone, tensor, dual,
direct sum, twist, symmetric powers of two-term complexes, and
`contraction_complex`, the one builder of every complex in the Koszul
subset layout) live in the chain-level layer, `chains`, which loads on first
use; the names of this module's `__all__` it does not define resolve there.
The constructors whose size can grow exponentially in their input count the
generators they would build first and raise WorkLimitError, before
allocating anything, above MAX_GENERATORS (`check_generators`).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from math import comb

from .polyalg import GradedFreeModule, GradedRing, RingMismatch, as_integers, forward_to_chains

__all__ = [
    "Complex",
    "ChainMap",
    "ComplexInvariantError",
    "WorkLimitError",
    "MAX_GENERATORS",
    "check_generators",
    "unit_complex",
    "module_complex",
    "zero_complex",
    "shift",
    "cone",
    "tensor",
    "dual",
    "direct_sum",
    "exterior_algebra",
    "koszul_contractions",
    "contraction_complex",
    "sym_two_term",
    "twist_complex",
    "identity_chain_map",
    "module_map_chain",
]


# measured (Python 3.11, 2 cores): the largest complexes allowed, the Koszul
# complex of 10 entries and kos (x) kos of 5 entries, build in about 5 s each,
# mostly their exact d o d checks; the benchmark workloads and every test but
# the limit's own build at most 64 generators
MAX_GENERATORS = 1024


class ComplexInvariantError(ValueError):
    """d o d != 0, a chain map fails to commute, or an unsupported shape."""


class WorkLimitError(ValueError):
    """A complex or a table would be larger than its named limit."""


def check_generators(count: int) -> None:
    """Raise WorkLimitError when a complex would have more than MAX_GENERATORS generators."""
    if count > MAX_GENERATORS:
        raise WorkLimitError(f"the complex would have {count} generators, more than the "
                             f"limit of {MAX_GENERATORS}")


class Complex:
    """Finite-support cochain complex; term(i) is a GradedFreeModule, d^i: C^i -> C^{i+1}."""

    __slots__ = ("ring", "terms", "differentials")

    def __init__(self, ring: GradedRing,
                 terms: Mapping[int, GradedFreeModule],
                 differentials: Mapping[int, PolyMatrix]):
        kept = {i: m for i, m in zip(as_integers(terms, "cohomological degrees"), terms.values())
                if m.rank > 0}
        for m in kept.values():
            if m.ring != ring:
                raise RingMismatch("complex term over a different ring")
        diffs: dict[int, PolyMatrix] = {}
        for i, d in zip(as_integers(differentials, "cohomological degrees"),
                        differentials.values()):
            if i not in kept or (i + 1) not in kept:
                if not d.is_zero():
                    raise ComplexInvariantError(
                        f"nonzero differential at degree {i} touching a zero term")
                continue
            if d.source.twists != kept[i].twists or d.target.twists != kept[i + 1].twists:
                raise ComplexInvariantError(f"differential at degree {i} has wrong endpoints")
            if d.is_zero():
                continue
            diffs[i] = d
        for i, d in diffs.items():
            nxt = diffs.get(i + 1)
            if nxt is not None and not (nxt @ d).is_zero():
                raise ComplexInvariantError(f"d^{i + 1} o d^{i} != 0")
        self.ring = ring
        self.terms = kept
        self.differentials = diffs

    # -- access ------------------------------------------------------------

    @property
    def support(self) -> list[int]:
        return sorted(self.terms)

    def term(self, i: int) -> GradedFreeModule:
        return self.terms.get(i, GradedFreeModule(self.ring, ()))

    def differential(self, i: int) -> PolyMatrix:
        d = self.differentials.get(i)
        if d is None:
            from .chains import PolyMatrix
            return PolyMatrix.zero(self.term(i), self.term(i + 1))
        return d

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        return (self.ring == other.ring
                and self.terms == other.terms
                and self.differentials == other.differentials)

    def __repr__(self):
        if self.is_zero():
            return "Complex(0)"
        parts = [f"{i}: {list(self.term(i).twists)}" for i in self.support]
        return "Complex{" + ", ".join(parts) + "}"


def exterior_algebra(f_dual: GradedFreeModule, max_power: int) -> Complex:
    """(+)_n Lambda^n placed in degree -n with zero differential; twists are subset sums."""
    return Complex(f_dual.ring, _exterior_powers(f_dual, max_power), {})


def _exterior_powers(f_dual: GradedFreeModule, max_power: int) -> dict[int, GradedFreeModule]:
    """The terms of exterior_algebra(f_dual, max_power), without building a complex."""
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    top = min(max_power, f_dual.rank)
    check_generators(sum(comb(f_dual.rank, n) for n in range(top + 1)))
    terms = {}
    for n in range(top + 1):
        twists = tuple(sum(f_dual.twists[j] for j in sub)
                       for sub in itertools.combinations(range(f_dual.rank), n))
        if twists:
            terms[-n] = GradedFreeModule(f_dual.ring, twists)
    return terms


def koszul_contractions(sub: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    """The contractions of the wedge e_sub by each of its factors.

    sub is an ascending tuple of generator indices.  One (k, sub without k,
    sign) per k in sub, the sign (-1)^(position of k in sub): the Koszul
    differential sends e_sub to the sum of sign * f_k * e_(sub without k).
    """
    return [(k, sub[:p] + sub[p + 1:], -1 if p % 2 else 1) for p, k in enumerate(sub)]


__getattr__, __dir__ = forward_to_chains(globals())
