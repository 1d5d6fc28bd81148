from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittcoh import linalg
from wittcoh.linalg import SparseMatrix, rank, solve


def mat(rows):
    return SparseMatrix.from_rows(rows)


def test_rank_identity():
    assert rank(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_zero_matrix():
    assert rank(SparseMatrix(4, 7)) == 0


def test_rank_proportional_rows():
    # 2x2 determinant 1*4 - 2*2 = 0, so rank must be 1
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_injective():
    assert solve(mat([[1, 0], [0, 1]])).kernel_basis == ()


def test_kernel_proportional_rows():
    (v,) = solve(mat([[1, 2], [2, 4]])).kernel_basis
    # solving x + 2y = 0 by hand gives (2, -1) up to scale
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert any(v)


def test_kernel_zero_map():
    vecs = solve(SparseMatrix(1, 3)).kernel_basis
    assert len(vecs) == 3
    assert rank(SparseMatrix.from_rows(vecs)) == 3


def test_solve_identity():
    assert solve(mat([[1, 0], [0, 1]]), [5, 7]).particular == (5, 7)


def test_solve_infeasible():
    # second row is twice the first but 3 != 2*1
    assert solve(mat([[1, 2], [2, 4]]), [1, 3]).particular is None


def test_solve_underdetermined():
    x = solve(mat([[1, 2], [2, 4]]), [1, 2]).particular
    assert x is not None
    assert x[0] + 2 * x[1] == 1


def test_solution_counts():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    sol = solve(m)
    assert sol.rank + len(sol.kernel_basis) == m.n_cols


def test_rational_rows_give_a_primitive_kernel():
    # 3x + 2y - z = 0 and y = z, given as rational rows; z - y = 2 with z = 0 gives x = 7/3
    m = mat([[Fraction(1, 2), Fraction(1, 3), Fraction(-1, 6)],
             [0, Fraction(-2, 5), Fraction(2, 5)]])
    sol = solve(m, [Fraction(1, 2), Fraction(4, 5)])
    assert sol.rank == 2
    assert sol.kernel_basis == ((Fraction(1), Fraction(-3), Fraction(-3)),)
    assert sol.particular == (Fraction(7, 3), Fraction(-2), Fraction(0))


def test_pivot_columns_are_the_columns_independent_of_earlier_ones():
    # column 0 is zero, 2 = 2 * column 1, 4 = column 1 + column 3
    m = mat([[0, 1, 2, 0, 1, 0],
             [0, 0, 0, 1, 1, 0],
             [0, 0, 0, 0, 0, 3]])
    sol = solve(m)
    assert sol.pivot_columns == (1, 3, 5)
    assert sol.rank == len(sol.pivot_columns)


def _perturb_first_pivot(monkeypatch, col):
    """Make _eliminate return its first pivot row with the entry at `col` raised by 1."""
    real = linalg._eliminate

    def perturbed(rows, n_cols):
        pivots, leftovers = real(rows, n_cols)
        pcol, row = pivots[0]
        pivots[0] = (pcol, {**row, col: row.get(col, 0) + 1})
        return pivots, leftovers

    monkeypatch.setattr(linalg, "_eliminate", perturbed)


def test_kernel_certificate_fires(monkeypatch):
    m = mat([[1, 2, 3], [0, 1, 1]])
    assert solve(m).kernel_basis == ((Fraction(1), Fraction(1), Fraction(-1)),)
    _perturb_first_pivot(monkeypatch, 2)  # column 2 is free
    with pytest.raises(AssertionError, match="kernel vector"):
        solve(m)


def test_particular_certificate_fires(monkeypatch):
    m = mat([[1, 0], [0, 1]])
    _perturb_first_pivot(monkeypatch, linalg._AUG)
    with pytest.raises(AssertionError, match="particular solution"):
        solve(m, [5, 7])


def test_rejects_out_of_bounds_entry():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): Fraction(1)})


@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=6), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    width = max(len(r) for r in rows)
    rows = [r + [0] * (width - len(r)) for r in rows]
    m = mat(rows)
    for v in solve(m).kernel_basis:
        assert all(x == 0 for x in m.apply(v))


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=5), min_size=2, max_size=5),
       st.lists(st.integers(-6, 6), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_affine_exact_or_none(rows, rhs):
    width = max(len(r) for r in rows)
    rows = [r + [0] * (width - len(r)) for r in rows]
    rhs = (rhs + [0] * len(rows))[: len(rows)]
    m = mat(rows)
    x = solve(m, rhs).particular
    if x is not None:
        assert list(m.apply(x)) == [Fraction(b) for b in rhs]
