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
               cotangent complexes; homology tables from rank cells

`chains` loads on first use: the package and the layer modules forward the
names defined there (PEP 562), so importing the package does not load it.
"""

__version__ = "0.1.0"

from .polyalg import GradedRing, Polynomial, GradedFreeModule, forward_to_chains, parse_poly
from .complexes import Complex, exterior_algebra
from .zerolocus import ZeroLocusPresentation, critical_locus
from .homology import HilbertTable, koszul_table, is_regular_up_to
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

# defined in the chain-level layer, which the first use of one of them loads
_CHAIN_NAMES = (
    "PolyMatrix", "graded_piece_basis", "matrix_rank_in_degree",
    "ChainMap", "shift", "cone", "tensor", "dual", "direct_sum", "sym_two_term", "unit_complex",
    "JacobianData", "koszul_complex", "sym_cofib_invariants", "cotangent_complex", "restrict",
    "homology_dimensions", "same_homology_dims",
)

__all__ = [
    "GradedRing", "Polynomial", "GradedFreeModule", "parse_poly",
    "Complex", "exterior_algebra",
    "ZeroLocusPresentation", "critical_locus",
    "HilbertTable", "koszul_table", "is_regular_up_to",
    "KClass", "kclass_of_complex", "lambda_minus_one", "virtual_class",
    "verify_quantum_lefschetz", "verify_excess", "verify_sym_ga", "vpull",
    "verify_strong_factorization",
    *_CHAIN_NAMES,
]

__getattr__, __dir__ = forward_to_chains(globals(), _CHAIN_NAMES)
del forward_to_chains
