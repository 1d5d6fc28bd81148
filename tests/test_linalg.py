from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittcoh.linalg import (
    SparseMatrix,
    kernel_basis,
    rank,
    solve,
    solve_affine,
)


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
    assert kernel_basis(mat([[1, 0], [0, 1]])) == []


def test_kernel_proportional_rows():
    (v,) = kernel_basis(mat([[1, 2], [2, 4]]))
    # solving x + 2y = 0 by hand gives (2, -1) up to scale
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert any(v)


def test_kernel_zero_map():
    vecs = kernel_basis(SparseMatrix(1, 3))
    assert len(vecs) == 3
    from wittcoh.linalg import row_span_rank

    assert row_span_rank(vecs, 3) == 3


def test_solve_identity():
    assert solve_affine(mat([[1, 0], [0, 1]]), [5, 7]) == (5, 7)


def test_solve_infeasible():
    # second row is twice the first but 3 != 2*1
    assert solve_affine(mat([[1, 2], [2, 4]]), [1, 3]) is None


def test_solve_underdetermined():
    x = solve_affine(mat([[1, 2], [2, 4]]), [1, 2])
    assert x is not None
    assert x[0] + 2 * x[1] == 1


def test_solution_counts():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    sol = solve(m)
    assert sol.rank + len(sol.kernel_basis) == m.n_cols


def test_rejects_out_of_bounds_entry():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, {(2, 0): Fraction(1)})


@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=6), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    width = max(len(r) for r in rows)
    rows = [r + [0] * (width - len(r)) for r in rows]
    m = mat(rows)
    for v in kernel_basis(m):
        assert all(x == 0 for x in m.apply(v))


@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=5), min_size=2, max_size=5),
       st.lists(st.integers(-6, 6), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_affine_exact_or_none(rows, rhs):
    width = max(len(r) for r in rows)
    rows = [r + [0] * (width - len(r)) for r in rows]
    rhs = (rhs + [0] * len(rows))[: len(rows)]
    m = mat(rows)
    x = solve_affine(m, rhs)
    if x is not None:
        assert list(m.apply(x)) == [Fraction(b) for b in rhs]
