"""Exact computations with derived zero loci over graded polynomial rings.

The package is organised bottom-up:

* polyalg    - rational polynomials, twisted free modules, graded piece counts
* groebner   - Groebner bases and Hilbert series of homogeneous ideals
* complexes  - bounded cochain complexes and exterior algebras
* zerolocus  - presentations of zero loci and their Koszul terms
* homology   - exact Hilbert tables, Koszul tables from a Groebner basis
* gtheory    - K-polynomial classes, Euler classes and identity verifiers
* cli        - problem-file front end with text and JSON reports
* chains     - the chain-level layer: homogeneous matrices and their ranks;
               shift, cone, tensor, dual, Sym/Lambda; Koszul, sym-GA and
               cotangent complexes

`chains` loads on first use: a name in the `__all__` of the package or of a
layer module that the module does not define resolves to the object in
`chains` (PEP 562, `polyalg.forward_to_chains`), so importing the package
does not load it.
"""

__version__ = "0.1.0"

from .polyalg import GradedRing, Polynomial, GradedFreeModule, forward_to_chains, parse_poly
from .complexes import Complex, exterior_algebra
from .zerolocus import ZeroLocusPresentation, critical_locus
from .homology import (HilbertTable, homology_dimensions, is_regular_up_to, koszul_table,
                       same_homology_dims)
from .gtheory import (
    KClass,
    kclass_of_complex,
    lambda_minus_one,
    virtual_class,
    verify_quantum_lefschetz,
    verify_excess,
    verify_sym_ga,
    vpull,
    verify_strong_factorization,
)

__all__ = [
    "GradedRing", "Polynomial", "GradedFreeModule", "PolyMatrix", "parse_poly",
    "graded_piece_basis", "matrix_rank_in_degree",
    "Complex", "ChainMap", "shift", "cone", "tensor", "dual", "direct_sum",
    "exterior_algebra", "sym_two_term", "unit_complex",
    "ZeroLocusPresentation", "koszul_complex", "sym_cofib_invariants",
    "critical_locus", "cotangent_complex", "restrict",
    "HilbertTable", "homology_dimensions", "koszul_table", "same_homology_dims",
    "is_regular_up_to",
    "KClass", "kclass_of_complex", "lambda_minus_one", "virtual_class",
    "verify_quantum_lefschetz", "verify_excess", "verify_sym_ga", "vpull",
    "verify_strong_factorization",
]

__getattr__, __dir__ = forward_to_chains(globals())
del forward_to_chains
