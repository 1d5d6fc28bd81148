"""Exact windowed cohomology of Z-graded Lie algebras.

Everything here computes over the rationals with exact arithmetic: sparse
linear algebra (rank / kernel / affine solve), graded Lie algebras given by
structure constants (Witt, Virasoro, custom), weight-homogeneous cochain
complexes on finite index windows, windowed H^q computations, a symbolic
replay of the diagonal-recurrence argument that kills H^2_0(W;W), and
order-by-order formal deformations over truncated polynomial bases.

Importing the package loads none of those layers.  Each public name below is
read from its home module on first use (PEP 562), and is not cached here, so
`wittcoh.X is wittcoh.<home>.X` always holds.
"""

from importlib import import_module

_HOMES = {
    "linalg": ("LinearSolution", "SparseMatrix", "rank", "solve"),
    "algebra": ("CENTRAL", "GradedLieAlgebra", "Window", "check_jacobi", "dump_algebra",
                "load_algebra", "make_virasoro", "make_witt"),
    "cochains": ("ADJOINT", "TRIVIAL", "Cochain", "MixedCochain", "differential",
                 "weight_components"),
    "cohomology": ("CohomologyReport", "central_extension_dim", "coboundary_primitive",
                   "cohomology_dim", "normalize_weight_zero", "reduce_to_weight_zero",
                   "stability_scan"),
    "replay": ("RelationSet", "run_replay"),
    "deformation": ("DefectReport", "DeformedBracket", "Equivalence", "conjugate",
                    "jacobi_defect", "parse_deformation",
                    "render_deformation", "trivialize"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
