"""Independent rank oracle: sympy's DomainMatrix over QQ against linalg.solve.

sympy is a test-only dependency; the module is skipped where it is missing.
"""

import pytest

pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from wittcoh.algebra import Window, make_witt  # noqa: E402
from wittcoh.cochains import ADJOINT, TRIVIAL  # noqa: E402
from wittcoh.cohomology import cocycle_matrix  # noqa: E402
from wittcoh.linalg import solve  # noqa: E402

WITT = make_witt()


def sympy_rank_nullity(m):
    dok = {(r, c): QQ(v.numerator, v.denominator) for (r, c), v in m.entries.items()}
    dm = DomainMatrix.from_dok(dok, (m.n_rows, m.n_cols), QQ)
    return dm.rank(), dm.nullspace().shape[0]


@pytest.mark.parametrize("coeffs", [ADJOINT, TRIVIAL])
@pytest.mark.parametrize("h", [8, 10])
@pytest.mark.parametrize("q", [1, 2])
def test_cocycle_matrix_rank_matches_sympy(q, h, coeffs):
    for d in range(-3, 4):
        matrix, cols, _ = cocycle_matrix(WITT, q, d, Window(-h, h), coeffs)
        assert matrix.n_cols == len(cols)
        sol = solve(matrix)
        assert (sol.rank, len(sol.kernel_basis)) == sympy_rank_nullity(matrix), (q, d, coeffs)
