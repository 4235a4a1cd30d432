"""Bounded cochain complexes of graded free modules.

Cohomological (upper) indexing throughout.  Sign conventions are fixed once
so that matrix layouts are reproducible:

* tensor differential  d(a (x) b) = da (x) b + (-1)^|a| a (x) db;
* mapping cone of f: A -> B has degree-i term A^{i+1} (+) B^i and block
  differential [[-d_A, 0], [f, d_B]];
* basis of a tensor degree is ordered by ascending left degree, then
  row-major on generator pairs; exterior powers use subsets of generators
  in ascending lexicographic order.

Every constructor checks d o d = 0 exactly; building an inconsistent
complex raises ComplexInvariantError.  The constructors whose size can grow
exponentially in their input (`tensor`, `exterior_algebra`, `sym_two_term`)
count the generators they would build first and raise WorkLimitError,
before allocating anything, above MAX_GENERATORS.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Mapping

from .polyalg import (
    GradedFreeModule,
    GradedRing,
    PolyMatrix,
    RingMismatch,
)

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
        kept = {int(i): m for i, m in terms.items() if m.rank > 0}
        for m in kept.values():
            if m.ring != ring:
                raise RingMismatch("complex term over a different ring")
        diffs: dict[int, PolyMatrix] = {}
        for i, d in differentials.items():
            i = int(i)
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


class ChainMap:
    """Degreewise map of complexes commuting with the differentials (checked exactly)."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Complex, target: Complex,
                 components: Mapping[int, PolyMatrix]):
        if source.ring != target.ring:
            raise RingMismatch("chain map between complexes over different rings")
        comps: dict[int, PolyMatrix] = {}
        for i, f in components.items():
            i = int(i)
            if f.source.twists != source.term(i).twists or f.target.twists != target.term(i).twists:
                raise ComplexInvariantError(f"component at degree {i} has wrong endpoints")
            if not f.is_zero():
                comps[i] = f
        degrees = set(source.terms) | set(target.terms)
        for i in degrees:
            lhs = target.differential(i) @ _component(comps, source, target, i)
            rhs = _component(comps, source, target, i + 1) @ source.differential(i)
            if lhs.entries != rhs.entries:
                raise ComplexInvariantError(f"chain map fails to commute at degree {i}")
        self.source = source
        self.target = target
        self.components = comps

    def component(self, i: int) -> PolyMatrix:
        return _component(self.components, self.source, self.target, i)


def _component(comps, source: Complex, target: Complex, i: int) -> PolyMatrix:
    f = comps.get(i)
    if f is None:
        return PolyMatrix.zero(source.term(i), target.term(i))
    return f


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def zero_complex(ring: GradedRing) -> Complex:
    return Complex(ring, {}, {})


def module_complex(module: GradedFreeModule, degree: int = 0) -> Complex:
    return Complex(module.ring, {degree: module}, {})


def unit_complex(ring: GradedRing) -> Complex:
    """The ring itself, untwisted, in cohomological degree 0."""
    return module_complex(GradedFreeModule(ring, (0,)))


def identity_chain_map(c: Complex) -> ChainMap:
    return ChainMap(c, c, {i: PolyMatrix.identity(c.term(i)) for i in c.support})


def module_map_chain(f: PolyMatrix, degree: int = 0) -> ChainMap:
    """A single homogeneous matrix viewed as a map of one-term complexes."""
    return ChainMap(module_complex(f.source, degree), module_complex(f.target, degree),
                    {degree: f})


def twist_complex(c: Complex, amount: int) -> Complex:
    """Add `amount` to every twist; the differentials are unchanged."""
    terms = {i: GradedFreeModule(c.ring, tuple(a + amount for a in m.twists))
             for i, m in c.terms.items()}
    diffs = {i: PolyMatrix(terms[i], terms[i + 1], d.entries)
             for i, d in c.differentials.items()}
    return Complex(c.ring, terms, diffs)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def shift(c: Complex, n: int) -> Complex:
    """(shift c n)^i = c^{i+n}; differentials pick up the sign (-1)^n."""
    terms = {i - n: m for i, m in c.terms.items()}
    sign = 1 if n % 2 == 0 else -1
    diffs = {}
    for i, d in c.differentials.items():
        diffs[i - n] = d if sign == 1 else -d
    return Complex(c.ring, terms, diffs)


def cone(f: ChainMap) -> Complex:
    """Mapping cone: degree-i term source^{i+1} (+) target^i, d = [[-d_src, 0], [f, d_tgt]]."""
    a, b = f.source, f.target
    ring = a.ring
    degrees = sorted({i - 1 for i in a.terms} | set(b.terms))
    terms = {}
    for i in degrees:
        twists = a.term(i + 1).twists + b.term(i).twists
        if twists:
            terms[i] = GradedFreeModule(ring, twists)
    diffs = {}
    zero = ring.zero()
    for i in degrees:
        if i not in terms or (i + 1) not in terms:
            continue
        src_a, src_b = a.term(i + 1), b.term(i)
        tgt_a, tgt_b = a.term(i + 2), b.term(i + 1)
        da = a.differential(i + 1)
        db = b.differential(i)
        fi = f.component(i + 1)
        rows = []
        for r in range(tgt_a.rank):
            rows.append([-da.entries[r][c] for c in range(src_a.rank)]
                        + [zero] * src_b.rank)
        for r in range(tgt_b.rank):
            rows.append([fi.entries[r][c] for c in range(src_a.rank)]
                        + [db.entries[r][c] for c in range(src_b.rank)])
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)


def direct_sum(a: Complex, b: Complex) -> Complex:
    if a.ring != b.ring:
        raise RingMismatch("direct sum over different rings")
    ring = a.ring
    terms = {}
    for i in set(a.terms) | set(b.terms):
        twists = a.term(i).twists + b.term(i).twists
        terms[i] = GradedFreeModule(ring, twists)
    zero = ring.zero()
    diffs = {}
    for i in set(a.differentials) | set(b.differentials):
        da, db = a.differential(i), b.differential(i)
        rows = []
        for r in range(da.target.rank):
            rows.append(list(da.entries[r]) + [zero] * db.source.rank)
        for r in range(db.target.rank):
            rows.append([zero] * da.source.rank + list(db.entries[r]))
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)


def tensor(a: Complex, b: Complex) -> Complex:
    """Total complex of the bigraded tensor product with Koszul signs."""
    if a.ring != b.ring:
        raise RingMismatch("tensor over different rings")
    ring = a.ring
    if a.is_zero() or b.is_zero():
        return zero_complex(ring)
    check_generators(sum(m.rank for m in a.terms.values())
                     * sum(m.rank for m in b.terms.values()))
    degrees = sorted({i + j for i in a.terms for j in b.terms})
    # the basis of degree n as triples (left degree i, left gen, right gen)
    bases = {n: [(i, p, q) for i in sorted(a.terms) if n - i in b.terms
                 for p in range(a.term(i).rank) for q in range(b.term(n - i).rank)]
             for n in degrees}
    terms = {}
    for n in degrees:
        twists = tuple(a.term(i).twists[p] + b.term(n - i).twists[q]
                       for (i, p, q) in bases[n])
        if twists:
            terms[n] = GradedFreeModule(ring, twists)
    zero = ring.zero()
    diffs = {}
    for n in degrees:
        if n not in terms or (n + 1) not in terms:
            continue
        src, tgt = bases[n], bases[n + 1]
        index = {key: r for r, key in enumerate(tgt)}
        rows = [[zero] * len(src) for _ in tgt]
        for col, (i, p, q) in enumerate(src):
            j = n - i
            da = a.differentials.get(i)
            if da is not None:
                for pp in range(a.term(i + 1).rank):
                    entry = da.entries[pp][p]
                    if entry.is_zero():
                        continue
                    r = index.get((i + 1, pp, q))
                    if r is not None:
                        rows[r][col] = rows[r][col] + entry
            db = b.differentials.get(j)
            if db is not None:
                sign = 1 if i % 2 == 0 else -1
                for qq in range(b.term(j + 1).rank):
                    entry = db.entries[qq][q]
                    if entry.is_zero():
                        continue
                    r = index.get((i, p, qq))
                    if r is not None:
                        rows[r][col] = rows[r][col] + (entry if sign == 1 else -entry)
        diffs[n] = PolyMatrix(terms[n], terms[n + 1], rows)
    return Complex(ring, terms, diffs)


def dual(c: Complex) -> Complex:
    """Degreewise dual: term i is the dual of c^{-i} (negated twists), differentials transposed.

    Plain transposition (no alternating sign) keeps d o d = 0 and makes the
    dual a strict involution: dual(dual(c)) == c.
    """
    ring = c.ring
    terms = {-i: m.dual() for i, m in c.terms.items()}
    diffs = {}
    for i, d in c.differentials.items():
        # d: c^i -> c^{i+1} transposes to dual^{-i-1} -> dual^{-i}
        src = terms[-i - 1]
        tgt = terms[-i]
        rows = [[d.entries[col][row] for col in range(d.target.rank)]
                for row in range(d.source.rank)]
        diffs[-i - 1] = PolyMatrix(src, tgt, rows)
    return Complex(ring, terms, diffs)


def exterior_algebra(f_dual: GradedFreeModule, max_power: int) -> Complex:
    """(+)_n Lambda^n placed in degree -n with zero differential; twists are subset sums."""
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    ring = f_dual.ring
    top = min(max_power, f_dual.rank)
    check_generators(sum(comb(f_dual.rank, n) for n in range(top + 1)))
    terms = {}
    for n in range(top + 1):
        twists = tuple(sum(f_dual.twists[j] for j in sub)
                       for sub in itertools.combinations(range(f_dual.rank), n))
        if twists:
            terms[-n] = GradedFreeModule(ring, twists)
    return Complex(ring, terms, {})


def koszul_contractions(sub: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    """The contractions of the wedge e_sub by each of its factors.

    sub is an ascending tuple of generator indices.  One (k, sub without k,
    sign) per k in sub, the sign (-1)^(position of k in sub): the Koszul
    differential sends e_sub to the sum of sign * f_k * e_(sub without k).
    """
    return [(k, sub[:p] + sub[p + 1:], -1 if p % 2 else 1) for p, k in enumerate(sub)]


def sym_two_term(a: Complex, n: int) -> Complex:
    """n-th symmetric power (characteristic 0) of a two-term complex in degrees -1, 0.

    Requires the degree-0 part to have rank <= 1.  The degree -i term is
    Lambda^i(a^{-1}) (x) Sym^{n-i}(a^0); the differential contracts one
    exterior factor into the symmetric part.
    """
    if n < 0:
        raise ValueError("negative symmetric power")
    if any(i not in (-1, 0) for i in a.terms):
        raise ComplexInvariantError("sym_two_term needs support inside {-1, 0}")
    line = a.term(0)
    if line.rank > 1:
        raise ComplexInvariantError("sym_two_term needs degree-0 rank <= 1")
    ring = a.ring
    bundle = a.term(-1)
    r = bundle.rank
    has_line = line.rank == 1
    line_twist = line.twists[0] if has_line else 0
    d = a.differential(-1)
    section = [d.entries[0][j] for j in range(r)] if has_line else []
    check_generators(sum(comb(r, i) for i in range(min(n, r) + 1) if has_line or i == n))

    subsets = {}
    terms = {}
    for i in range(min(n, r) + 1):
        m = n - i
        if m > 0 and not has_line:
            continue
        subs = list(itertools.combinations(range(r), i))
        twists = tuple(sum(bundle.twists[j] for j in sub) + m * line_twist
                       for sub in subs)
        if twists:
            subsets[-i] = subs
            terms[-i] = GradedFreeModule(ring, twists)
    diffs = {}
    zero = ring.zero()
    for i in sorted(subsets):
        if (i + 1) not in subsets or not has_line:
            continue
        src, tgt = subsets[i], subsets[i + 1]
        index = {sub: rr for rr, sub in enumerate(tgt)}
        rows = [[zero] * len(src) for _ in tgt]
        for col, sub in enumerate(src):
            for j, reduced, sign in koszul_contractions(sub):
                entry = section[j]
                if entry.is_zero():
                    continue
                rr = index[reduced]
                rows[rr][col] = rows[rr][col] + (entry if sign == 1 else -entry)
        diffs[i] = PolyMatrix(terms[i], terms[i + 1], rows)
    return Complex(ring, terms, diffs)
