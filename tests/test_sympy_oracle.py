"""Independent rank oracle: sympy's DomainMatrix over QQ against linalg.solve.

sympy is a test-only dependency; the module is skipped where it is missing.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from wittcoh.algebra import Window, make_witt  # noqa: E402
from wittcoh.cochains import ADJOINT, TRIVIAL  # noqa: E402
from wittcoh.cohomology import cocycle_matrix  # noqa: E402
from wittcoh.linalg import solve  # noqa: E402

from helpers import matrix_from_rows  # noqa: E402

WITT = make_witt()


def sympy_matrix(m):
    dok = {(r, c): QQ(v.numerator, v.denominator)
           for r, row in enumerate(m) for c, v in row.items()}
    return DomainMatrix.from_dok(dok, (m.n_rows, m.n_cols), QQ)


def sympy_rank_nullity(m):
    dm = sympy_matrix(m)
    return dm.rank(), dm.nullspace().shape[0]


@pytest.mark.parametrize("coeffs", [ADJOINT, TRIVIAL])
@pytest.mark.parametrize("h", [8, 10])
@pytest.mark.parametrize("q", [1, 2])
def test_cocycle_matrix_rank_matches_sympy(q, h, coeffs):
    for d in range(-3, 4):
        matrix, cols, _, _ = cocycle_matrix(WITT, q, d, Window(-h, h), coeffs)
        assert matrix.n_cols == len(cols)
        sol = solve(matrix)
        assert (sol.rank, len(sol.kernel_basis)) == sympy_rank_nullity(matrix), (q, d, coeffs)


# p/q with q in 1..5: every row needs its denominators cleared before elimination
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def rational_systems(draw):
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    rhs = draw(st.lists(rationals, min_size=n_rows, max_size=n_rows))
    return matrix_from_rows(rows), rhs


@given(rational_systems())
@settings(max_examples=100, deadline=None)
def test_solve_on_rational_rows_matches_sympy(system):
    m, rhs = system
    sol = solve(m, rhs)
    rank_m, nullity = sympy_rank_nullity(m)
    augmented = matrix_from_rows(
        [[row.get(c, 0) for c in range(m.n_cols)] + [b] for row, b in zip(m, rhs)])
    feasible = sympy_matrix(augmented).rank() == rank_m
    got = (sol.rank, len(sol.kernel_basis), sol.particular is not None)
    assert got == (rank_m, nullity, feasible)
