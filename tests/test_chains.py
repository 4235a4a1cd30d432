"""The chain-level layer loads on first use, and the names that moved there resolve.

`zeroloci.chains` holds the code that builds explicit differentials and takes
ranks.  The package and the layer modules forward its names (PEP 562), so
`from zeroloci.polyalg import PolyMatrix` and the like keep working and give
the very objects defined in `chains`.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import zeroloci
from zeroloci import chains, complexes, homology, polyalg, zerolocus
from zeroloci.polyalg import GradedFreeModule, GradedRing, parse_poly
from zeroloci.zerolocus import ZeroLocusPresentation

# every name the package exported before the chain-level layer moved out
PACKAGE_EXPORTS = (
    "GradedRing", "Polynomial", "GradedFreeModule", "PolyMatrix", "parse_poly",
    "graded_piece_basis", "matrix_rank_in_degree",
    "Complex", "ChainMap", "shift", "cone", "tensor", "dual", "direct_sum",
    "exterior_algebra", "sym_two_term", "unit_complex",
    "ZeroLocusPresentation", "JacobianData", "koszul_complex", "sym_cofib_invariants",
    "critical_locus", "cotangent_complex", "restrict",
    "HilbertTable", "homology_dimensions", "koszul_table", "same_homology_dims",
    "is_regular_up_to",
    "KClass", "kclass_of_complex", "lambda_minus_one", "virtual_class",
    "verify_quantum_lefschetz", "verify_excess", "verify_sym_ga", "vpull",
    "verify_strong_factorization",
)

# the names each layer module lost to `chains`
FORWARDED = {
    polyalg: ("PolyMatrix", "graded_piece_basis", "_basis_position", "rational_rank",
              "modular_rank", "matrix_rank_in_degree", "MODULUS"),
    complexes: ("ChainMap", "zero_complex", "module_complex", "unit_complex",
                "identity_chain_map", "module_map_chain", "twist_complex", "shift", "cone",
                "direct_sum", "tensor", "dual", "contraction_complex", "sym_two_term"),
    zerolocus: ("JacobianData", "SymInvariantsResult", "_koszul_layout", "koszul_complex",
                "sym_cofib_invariants", "jacobian_data", "cotangent_complex", "restrict"),
    homology: ("MODULAR_MIN_ENTRIES", "_check_cells", "_ranks", "homology_dimensions",
               "same_homology_dims", "euler_characteristics_match"),
}

RING_XY = GradedRing(("x", "y"), (1, 1))
ENV = {**os.environ, "PYTHONPATH": str(Path(zeroloci.__file__).parents[1])}


def test_package_exports_resolve_and_are_listed():
    listed = dir(zeroloci)
    for name in PACKAGE_EXPORTS:
        assert getattr(zeroloci, name) is not None, name
        assert name in listed and name in zeroloci.__all__, name
    namespace = {}
    exec("from zeroloci import *", namespace)
    assert set(PACKAGE_EXPORTS) <= set(namespace)


@pytest.mark.parametrize("module, name", [(module, name) for module, names in FORWARDED.items()
                                          for name in names])
def test_forwarded_name_is_the_chain_object(module, name):
    assert name not in vars(module)   # no copy that a patch of chains would miss
    assert getattr(module, name) is getattr(chains, name)
    assert name in dir(module)


def test_unknown_names_still_raise_attribute_error():
    for module in (zeroloci, polyalg, complexes, zerolocus, homology):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")


def test_module_basis_method_reads_the_chain_layer():
    module = GradedFreeModule(RING_XY, (0, 1))
    assert module.basis_in_degree(1) == chains.basis_in_degree(module, 1) == [
        (0, (1, 0)), (0, (0, 1)), (1, (0, 0))]


def test_matrix_and_complex_with_differentials_survive_pickle():
    p = ZeroLocusPresentation(RING_XY, (), ((parse_poly("x", RING_XY), 1),
                                            (parse_poly("x*y - y^2", RING_XY), 2)))
    kos = chains.koszul_complex(p)
    assert kos.differentials
    for obj in (kos.differential(-1), kos):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
    back = pickle.loads(pickle.dumps(kos))
    assert chains.homology_dimensions(back, 5) == chains.homology_dimensions(kos, 5)


def test_cli_import_loads_no_typing_hashlib_or_chain_layer():
    # -S: site imports nothing first (a .pth file may import typing), so every
    # module in the list that is loaded afterwards was loaded by the import
    script = ("import sys\n"
              "import zeroloci.cli\n"
              "names = ('typing', 'hashlib', '_hashlib', 'zeroloci.chains')\n"
              "print(sorted(name for name in names if name in sys.modules))\n")
    done = subprocess.run([sys.executable, "-S", "-c", script], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
