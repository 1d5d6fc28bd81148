"""Exact windowed cohomology of Z-graded Lie algebras.

Everything here computes over the rationals with exact arithmetic: sparse
linear algebra (rank / kernel / affine solve), graded Lie algebras given by
structure constants (Witt, Virasoro, custom), weight-homogeneous cochain
complexes on finite index windows, windowed H^q computations, a symbolic
replay of the diagonal-recurrence argument that kills H^2_0(W;W), and
order-by-order formal deformations over truncated polynomial bases.
"""

from .linalg import LinearSolution, SparseMatrix, rank, solve
from .algebra import (
    CENTRAL,
    GradedLieAlgebra,
    Window,
    check_jacobi,
    dump_algebra,
    load_algebra,
    make_virasoro,
    make_witt,
)
from .cochains import (
    ADJOINT,
    TRIVIAL,
    Cochain,
    MixedCochain,
    differential,
    weight_components,
)
from .cohomology import (
    CohomologyReport,
    central_extension_dim,
    coboundary_primitive,
    cohomology_dim,
    normalize_weight_zero,
    reduce_to_weight_zero,
    stability_scan,
)
from .replay import RelationSet, run_replay
from .deformation import (
    DefectReport,
    DeformedBracket,
    Equivalence,
    conjugate,
    infinitesimal,
    jacobi_defect,
    parse_deformation,
    render_deformation,
    trivialize,
)

__version__ = "0.1.0"
