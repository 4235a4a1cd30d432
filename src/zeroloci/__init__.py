"""Exact computations with derived zero loci over graded polynomial rings.

The package is organised bottom-up:

* polyalg    - rational polynomials, twisted free modules, degreewise ranks
* groebner   - Groebner bases and Hilbert series of homogeneous ideals
* complexes  - bounded cochain complexes: shift, cone, tensor, dual, Sym/Lambda
* zerolocus  - presentations of zero loci and their canonical complexes
* homology   - exact Hilbert tables and dimension-level comparisons
* gtheory    - K-polynomial classes, Euler classes and identity verifiers
* cli        - problem-file front end with text and JSON reports
"""

__version__ = "0.1.0"

from .polyalg import (
    GradedRing,
    Polynomial,
    GradedFreeModule,
    PolyMatrix,
    parse_poly,
    graded_piece_basis,
    matrix_rank_in_degree,
)
from .complexes import (
    Complex,
    ChainMap,
    shift,
    cone,
    tensor,
    dual,
    direct_sum,
    exterior_algebra,
    sym_two_term,
    unit_complex,
)
from .zerolocus import (
    ZeroLocusPresentation,
    JacobianData,
    koszul_complex,
    sym_cofib_invariants,
    critical_locus,
    cotangent_complex,
    restrict,
)
from .homology import (
    HilbertTable,
    homology_dimensions,
    koszul_table,
    same_homology_dims,
    is_regular_up_to,
)
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
