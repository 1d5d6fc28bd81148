from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wittcoh import cohomology, linalg
from wittcoh.algebra import Window, make_witt
from wittcoh.cochains import delta_matrix
from wittcoh.cohomology import cocycle_matrix, comparison_tuples, leading_tuples
from wittcoh.linalg import LinearSolution, SparseMatrix, solve

from helpers import annihilates, matrix_from_rows as mat, reference_select, reference_solve

# rows in the redundant test systems: far more than their rank, so _select drops most
TALL = 80


def test_rank_identity():
    assert solve(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).rank == 3


def test_rank_zero_matrix():
    assert solve(SparseMatrix([{}] * 4, 7)).rank == 0


def test_rank_proportional_rows():
    # 2x2 determinant 1*4 - 2*2 = 0, so rank must be 1
    assert solve(mat([[1, 2], [2, 4]])).rank == 1


def test_kernel_injective():
    assert solve(mat([[1, 0], [0, 1]])).kernel_basis == ()


def test_kernel_proportional_rows():
    (v,) = solve(mat([[1, 2], [2, 4]])).kernel_basis
    # solving x + 2y = 0 by hand gives (2, -1) up to scale
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert any(v)


def test_kernel_zero_map():
    vecs = solve(SparseMatrix([{}], 3)).kernel_basis
    assert len(vecs) == 3
    assert solve(mat(vecs)).rank == 3


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


def _spy_select(monkeypatch):
    """Record the number of rows of every matrix that `linalg._select` sees."""
    seen = []
    real = linalg._select

    def spy(rows):
        seen.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_select", spy)
    return seen


def _perturb_first_pivot(monkeypatch, col):
    """Make _eliminate return its first pivot row with the entry at `col` raised by 1."""
    real = linalg._eliminate

    def perturbed(rows):
        pivots = real(rows)
        pcol, row = pivots[0]
        pivots[0] = (pcol, {**row, col: row.get(col, 0) + 1})
        return pivots

    monkeypatch.setattr(linalg, "_eliminate", perturbed)


def _spy_eliminations(monkeypatch):
    """Record the number of rows of every `linalg._eliminate` call: a matrix's kernel
    elimination on its selected rows and, where that fails, on all of them; the same
    for each right-hand side, on the rows of [m | -rhs]."""
    seen = []
    real = linalg._eliminate

    def spy(rows):
        seen.append(len(rows))
        return real(rows)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    return seen


def test_kernel_certificate_fires(monkeypatch):
    def systems():  # new matrices, whose selections are not yet made
        return [mat([[1, 2, 3], [0, 1, 1]] * copies) for copies in (1, TALL // 2)]

    for m in systems():
        assert solve(m).kernel_basis == ((Fraction(1), Fraction(1), Fraction(-1)),)
    seen, eliminated = _spy_select(monkeypatch), _spy_eliminations(monkeypatch)
    _perturb_first_pivot(monkeypatch, 2)  # column 2 is free
    for m in systems():
        with pytest.raises(AssertionError, match="kernel vector"):
            solve(m)
    assert seen == [2, TALL]
    assert eliminated == [2, 2, 2, TALL]  # each fails on its selected rows, then on all of them


def test_particular_certificate_fires(monkeypatch):
    seen = _spy_select(monkeypatch)
    _perturb_first_pivot(monkeypatch, 2)  # column 2 is the right-hand side's
    for copies in (1, TALL // 2):
        with pytest.raises(AssertionError, match="particular solution"):
            solve(mat([[1, 0], [0, 1]] * copies), [5, 7] * copies)
    assert seen == [2, TALL]


@st.composite
def certificate_cases(draw):
    """(rows, vectors) as {col: int} dicts, orthogonal or not, over columns -1..n-1.

    Each vector k owns a column n + k (entry 1 there) in which every row is
    set to cancel its dot product with that vector: then all products are 0
    ("zero"), or a nudge in one row's column n + k makes exactly the one pair
    (row, k) nonzero ("one pair"); "raw" leaves the drawn entries as they are.
    """
    n = draw(st.integers(1, 6))
    entries = st.dictionaries(st.integers(-1, n - 1), st.integers(-5, 5).filter(bool),
                              max_size=n + 1)
    vecs = draw(st.lists(entries, max_size=6))
    rows = draw(st.lists(entries, min_size=1, max_size=12))
    kind = draw(st.sampled_from(["zero", "one pair", "raw"]))
    if kind != "raw":
        for k, vec in enumerate(vecs):
            vec[n + k] = 1
            for row in rows:
                dot = sum(a * vec.get(c, 0) for c, a in row.items())
                if dot:
                    row[n + k] = -dot
        if kind == "one pair" and vecs:
            i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(vecs) - 1))
            rows[i][n + k] = rows[i].get(n + k, 0) + draw(st.sampled_from([1, -1, 7]))
    return rows, vecs


@given(certificate_cases())
@settings(max_examples=200, deadline=None)
def test_one_sweep_certificate_matches_the_per_vector_reference(case):
    rows, vecs = case
    assert linalg._annihilates(rows, vecs) == all(annihilates(rows, vec) for vec in vecs)


def test_only_the_last_row_fails_only_the_last_kernel_vector(monkeypatch):
    # row (1, 0, 0, P) is (1, 0, 0, 0) mod P, so _select keeps only the first two
    # rows; their kernel e_2, e_3 meets that last row only through e_3
    def system():  # a new matrix, whose selection is not yet made
        return mat([[1, 0, 0, 0], [0, 1, 0, 0]] * (TALL // 2) + [[1, 0, 0, linalg._P]])

    full = LinearSolution(rank=3, pivot_columns=(0, 1, 3), kernel_basis=((0, 0, 1, 0),))
    with mock.patch.object(linalg, "_select", lambda rows: list(range(len(rows)))):
        assert solve(system()) == full
    checks = []
    real = linalg._annihilates

    def spy(rows, vecs):
        checks.append({(i, k) for i, row in enumerate(rows) for k, vec in enumerate(vecs)
                       if not annihilates([row], vec)})
        return real(rows, vecs)

    seen = _spy_select(monkeypatch)
    monkeypatch.setattr(linalg, "_annihilates", spy)
    assert solve(system()) == full
    assert seen == [TALL + 1]
    assert checks == [{(TALL, 1)}, set()]  # selected rows fail; the full-row fallback holds


def _weight_zero_cocycle_matrix(h):
    return cocycle_matrix(make_witt(), 2, 0, Window(-h, h))[0]


@pytest.mark.parametrize("prime", [2, 3])
def test_unlucky_prime_falls_back_to_the_same_solution(monkeypatch, prime):
    expected = solve(_weight_zero_cocycle_matrix(8))
    monkeypatch.setattr(linalg, "_P", prime)
    m = _weight_zero_cocycle_matrix(8)  # selected under the patched prime
    assert len(m.independent_rows) < expected.rank  # so the certificate must fail
    eliminated = _spy_eliminations(monkeypatch)
    assert solve(m) == expected
    assert eliminated == [len(m.independent_rows), m.n_rows]  # the all-rows fallback ran
    assert solve(m).rank == expected.rank


def test_cocycle_matrices_take_the_selection_path(monkeypatch):
    # test_sympy_oracle's h = 8, 10 matrices must keep exercising the selected rows
    m = _weight_zero_cocycle_matrix(10)
    seen = _spy_select(monkeypatch)
    solve(m)
    assert seen == [m.n_rows]


def test_the_heap_selects_the_rows_of_the_min_scan_on_the_grid():
    # the rigidity grid's cocycle matrices (all rows and the count's leading rows) and
    # comparison matrices
    witt = make_witt()
    for h in (8, 10, 12):
        for d in range(-6, 7):
            window = Window(-h, h)
            m = cocycle_matrix(witt, 2, d, window)[0]
            lead = delta_matrix(witt, 2, d, window, rows=leading_tuples(2, d, window))[0]
            coboundary = comparison_tuples(witt, 2, d, window, 4)[1]
            for rows in (m.rows, lead.rows, coboundary.rows):
                rows = [linalg._primitive(r) for r in rows if r]
                assert linalg._select(rows) == reference_select(rows), (h, d)


@st.composite
def sparse_rows(draw):
    """Nonzero sparse integer rows, about half of the entries nonzero."""
    n_cols = draw(st.integers(1, 16))
    dense = draw(st.lists(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]),
                                   min_size=n_cols, max_size=n_cols), min_size=1, max_size=40))
    return [row for row in ({j: v for j, v in enumerate(r) if v} for r in dense) if row]


@given(sparse_rows())
@settings(max_examples=100, deadline=None)
def test_the_heap_selects_the_rows_of_the_min_scan(rows):
    assert linalg._select(rows) == reference_select(rows)


@st.composite
def low_rank_systems(draw):
    """Integer systems of low rank, mostly tall: combinations of a few generator rows.

    The right-hand side is absent, in the column span (consistent) or drawn
    at random (almost always inconsistent).
    """
    n_cols = draw(st.integers(1, 10))
    n_rows = draw(st.integers(1, TALL))
    gens = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=n_cols))
    coefs = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                   min_size=len(gens), max_size=len(gens)),
                          min_size=n_rows, max_size=n_rows))
    m = mat([[sum(a * g[j] for a, g in zip(cs, gens)) for j in range(n_cols)] for cs in coefs])
    kind = draw(st.sampled_from(["none", "consistent", "random"]))
    if kind == "none":
        return m, None
    if kind == "consistent":
        return m, list(m.apply(draw(st.lists(st.integers(-3, 3), min_size=n_cols,
                                              max_size=n_cols))))
    return m, draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows))


@given(low_rank_systems())
@settings(max_examples=60, deadline=None)
def test_selected_rows_give_the_full_elimination_answer(system):
    m, rhs = system
    selected = solve(m, rhs)
    # selecting every row is the full elimination; a new matrix is selected anew
    with mock.patch.object(linalg, "_select", lambda rows: list(range(len(rows)))):
        assert solve(SparseMatrix(m.rows, m.n_cols), rhs) == selected


@given(low_rank_systems(), st.lists(st.integers(1, 12), min_size=TALL, max_size=TALL),
       st.sampled_from([linalg._P, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_independent_rows_never_exceed_the_rank(system, denominators, prime):
    # rows independent mod p are independent over Q, for every prime; a Fraction
    # row reads as its primitive integer row
    m, _ = system
    rational = [{c: Fraction(v, k) for c, v in row.items()} for row, k in zip(m, denominators)]
    with mock.patch.object(linalg, "_P", prime):
        got = len(SparseMatrix(m.rows, m.n_cols).independent_rows)
        assert len(SparseMatrix(rational, m.n_cols).independent_rows) == got <= solve(m).rank


@given(low_rank_systems(), st.lists(st.sampled_from([None, {}, {0: Fraction(0)}]),
                                   min_size=TALL, max_size=TALL))
@settings(max_examples=60, deadline=None)
def test_independent_rows_index_the_rows_as_given(system, zeros):
    # zero rows put between the drawn rows are skipped, and the indices point into
    # the list as given, at rows independent over Q
    m, _ = system
    rows = []
    for row, zero in zip(m, zeros):
        rows += [row] if zero is None else [zero, row]
    got = SparseMatrix(rows, m.n_cols).independent_rows
    assert list(got) == sorted(set(got)) and all(any(rows[i].values()) for i in got)
    assert [rows[i] for i in got] == [m.rows[i] for i in m.independent_rows]
    assert len(got) == solve(m.take_rows(m.independent_rows)).rank


def test_rank_mod_p_reads_a_determinant_divisible_by_p_as_singular():
    m = mat([[1, 1], [1, 1 + linalg._P]])  # determinant _P
    assert (len(m.independent_rows), solve(m).rank) == (1, 2)


def test_rank_mod_p_ignores_zero_rows():
    m = SparseMatrix([{}, {0: 0}, {1: Fraction(0)}, {0: 2, 1: 0}, {0: -1}], 2)
    assert m.independent_rows == (3,)
    assert SparseMatrix([], 0).independent_rows == ()


@given(low_rank_systems(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_row_order_does_not_change_the_solution(system, rng):
    m, rhs = system
    order = list(range(m.n_rows))
    rng.shuffle(order)
    permuted = m.take_rows(order)
    permuted_rhs = None if rhs is None else [rhs[r] for r in order]
    assert solve(permuted, permuted_rhs) == solve(m, rhs)


# 30-40 bit entries: pivots that rarely divide a partial sum, so the back-solve scales
ENTRIES = {
    "small": st.integers(-4, 4),
    "fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    "big": st.one_of(st.just(0), st.integers(2**30, 2**40), st.integers(-2**40, -2**30)),
}


@st.composite
def reference_systems(draw):
    """Tall or wide systems of a drawn rank, entries of one kind; no, a consistent
    or a random (almost always inconsistent) right-hand side."""
    n_rows, n_cols = draw(st.sampled_from([(TALL // 4, 6), (3, 9), (6, 6)]))
    n_rows, n_cols = draw(st.integers(1, n_rows)), draw(st.integers(1, n_cols))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    gens = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                         min_size=1, max_size=min(n_rows, n_cols)))
    coefs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)),
                          min_size=n_rows, max_size=n_rows))
    m = mat([[sum(a * g[j] for a, g in zip(cs, gens)) for j in range(n_cols)] for cs in coefs])
    kind = draw(st.sampled_from(["none", "consistent", "random"]))
    if kind == "none":
        return m, None
    if kind == "consistent":
        return m, list(m.apply(draw(st.lists(entry, min_size=n_cols, max_size=n_cols))))
    return m, draw(st.lists(entry, min_size=n_rows, max_size=n_rows))


@given(reference_systems())
@settings(max_examples=150, deadline=None)
def test_solve_matches_the_reduced_echelon_reference(system):
    m, rhs = system
    assert solve(m, rhs) == reference_solve(m, rhs)
    # the back-solve for a free column f never reads a pivot row right of f
    pivots = linalg._eliminate([linalg._primitive(r) for r in m])
    for f in sorted(set(range(m.n_cols)).difference(c for c, _ in pivots)):
        blind = [(c, r if c < f else None) for c, r in pivots]
        assert linalg._back_solve(blind, f) == linalg._back_solve(pivots, f)


@given(reference_systems(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_matrix_answers_each_right_hand_side_in_turn(system, data):
    # the kernel is certified on the first call and read by every later one; each
    # particular solution is checked on its own
    m, _ = system
    entry = st.integers(-9, 9) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    kinds = st.sampled_from(["consistent", "random", "zero"])
    for kind in data.draw(st.lists(kinds, min_size=2, max_size=4)):
        if kind == "consistent":
            rhs = list(m.apply(data.draw(st.lists(entry, min_size=m.n_cols, max_size=m.n_cols))))
        elif kind == "random":  # almost always inconsistent
            rhs = data.draw(st.lists(entry, min_size=m.n_rows, max_size=m.n_rows))
        else:
            rhs = [0] * m.n_rows
        assert solve(m, rhs) == reference_solve(m, rhs)
    assert solve(m) == reference_solve(m)


def test_a_second_right_hand_side_reuses_the_selection_and_the_kernel(monkeypatch):
    m = mat([[1, 2, 3, 0], [0, 1, 1, 1]] * (TALL // 2))  # pivots 0, 1; free columns 2, 3
    seen, back_solved, certified = _spy_select(monkeypatch), [], []
    real_back, real_rows = linalg._back_solve, linalg._solve_rows
    monkeypatch.setattr(linalg, "_back_solve",
                        lambda pivots, f: back_solved.append(f) or real_back(pivots, f))
    monkeypatch.setattr(linalg, "_solve_rows",
                        lambda sub, *rest: certified.append(len(sub)) or real_rows(sub, *rest))
    first = [1, 2] * (TALL // 2)
    assert solve(m, first) == reference_solve(m, first)
    assert seen == [TALL] and back_solved == [4, 2, 3]  # 4: the right-hand side's column
    # consistent, zero, then inconsistent in the last row: no new selection, the
    # particular alone is back-solved, and no kernel is certified again; the
    # inconsistent one goes to all rows, whose echelon has a pivot at column 4
    for rhs in ([3, -1] * (TALL // 2), [0] * TALL, first[:-1] + [3]):
        del back_solved[:]
        assert solve(m, rhs) == reference_solve(m, rhs)
        assert seen == [TALL] and back_solved == [4] and certified == [2]
    inconsistent = solve(m, first[:-1] + [3])
    assert inconsistent.particular is None and inconsistent.kernel_basis == solve(m).kernel_basis


def test_a_short_selection_falls_back_or_meets_the_canonical_particular(monkeypatch):
    # the selection keeps rows 0 and 1; with row 1 dropped the particular of row 0
    # alone either fails its check (rhs 1, 2: every row of [m | -rhs] is eliminated)
    # or is the canonical one (rhs 1, 0); then the kernel's certificate fails on row 0
    # and holds on all rows
    real = linalg._select
    monkeypatch.setattr(linalg, "_select", lambda rows: real(rows)[:-1])
    eliminated = _spy_eliminations(monkeypatch)
    for rhs, expected in (([1, 2] * (TALL // 2), [1, TALL, 1, TALL]),
                          ([1, 0] * (TALL // 2), [1, 1, TALL])):
        m = mat([[1, 2, 3, 0], [0, 1, 1, 1]] * (TALL // 2))  # a new matrix, selected anew
        reference = reference_solve(m, rhs)
        del eliminated[:]
        assert solve(m, rhs) == reference
        assert eliminated == expected


def _counted_rank(m, seed, column):
    """(cohomology's q = 2 count of m's rank from `seed` against `column`, whether it
    fell back to `solve`)."""
    with mock.patch.object(cohomology, "solve", wraps=linalg.solve) as spy:
        return cohomology._rank_from_seed(m, seed, column), spy.called


@st.composite
def chained_systems(draw):
    """(m, x): every column j > 0 is fixed from column 0 by a row on j and an earlier
    column, x (no zero entry) is in m's kernel, so rank(m) = n - 1; extra rows are
    integer combinations of those, and the rows are shuffled."""
    n = draw(st.integers(2, 7))
    x = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=n, max_size=n))
    rows = []
    for j in range(1, n):
        i, a = draw(st.integers(0, j - 1)), draw(st.integers(1, 3))
        rows.append({i: a * x[j], j: -a * x[i]})
    for _ in range(draw(st.integers(0, 4))):
        coefs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        combo = {}
        for a, row in zip(coefs, rows[:n - 1]):
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + a * v
        rows.append(combo)
    return SparseMatrix(draw(st.permutations(rows)), n), x


@given(chained_systems(), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_rank_from_seed_counts_against_a_kernel_and_falls_back_when_short_or_wrong(system, k):
    m, x = system
    n = m.n_cols
    column = dict(enumerate(x))
    # a true kernel vector closes the count, scaled to Fractions too
    assert _counted_rank(m, 0, column) == (n - 1, False)
    assert _counted_rank(m, 0, {c: Fraction(v, k) for c, v in column.items()}) == (n - 1, False)
    # a vector off the kernel fails the exact check
    assert _counted_rank(m, 0, {**column, n - 1: x[-1] + k}) == (n - 1, True)
    # a seed no row reads: no row has a single entry, so the propagation stalls
    wide = SparseMatrix(m.rows, n + 1)
    assert _counted_rank(wide, n, column) == (n - 1, True)


@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool),
                                min_size=1, max_size=3), max_size=8),
       st.sets(st.integers(0, 5), max_size=3))
@settings(max_examples=300, deadline=None)
def test_a_propagation_that_fixes_every_read_column_bounds_the_rank(rows, seeds):
    # a kernel vector is determined by its values on the seeds and on the columns left
    # unfixed, so dim ker <= |S| + 6 - |F|; one seed that fixes every read column gives
    # dim ker <= 1 on the read columns
    fixed = cohomology._fixed_from(rows, *seeds)
    assert seeds <= fixed
    assert solve(SparseMatrix(rows, 6)).rank >= len(fixed) - len(seeds)


def test_rank_from_seed_falls_back_unless_its_column_is_a_kernel_vector_it_reads():
    m = mat([[1, 1], [1, 1 + linalg._P]])  # determinant _P: rank 2, kernel empty
    assert _counted_rank(m, 0, {}) == (2, True)
    # (1, -1) is in the kernel mod _P only; every column is fixed from column 0, so
    # unchecked, the count would close at 1
    assert _counted_rank(m, 0, {0: 1, 1: -1}) == (2, True)
    # the same with no prime: an unchecked count reads rank 1 where the rank is 2
    assert _counted_rank(SparseMatrix([{0: 1}, {0: 1, 1: 1}], 2), 0, {0: 1, 1: -1}) == (2, True)
    # a column that no read column carries passes the check vacuously: rank 1, not 0
    assert _counted_rank(SparseMatrix([{0: 1}], 2), 0, {1: 1}) == (1, True)
    assert _counted_rank(mat([[1, -1], [2, -2]]), 0, {0: 1, 1: 1}) == (1, False)


def test_a_count_that_falls_back_selects_the_rows_once(monkeypatch):
    # (1, 0, 0) is off the kernel, so the count fails its check and `solve` decides,
    # selecting the rows once; a count that closes selects none
    m = mat([[1, 1, 0], [0, 1, 1]] * (TALL // 2))
    seen = _spy_select(monkeypatch)
    assert _counted_rank(m, 0, {0: 1}) == (2, True)
    assert seen == [TALL]
    assert _counted_rank(mat([[1, 1, 0], [0, 1, 1]] * (TALL // 2)), 0, {0: 1, 1: -1, 2: 1}) == (
        2, False)
    assert seen == [TALL]


def test_back_solve_scales_when_the_pivot_does_not_divide():
    # f = 1: 2*v_0 + 3 = 0 has no integer root, so the vector is scaled by 2 first
    assert linalg._back_solve([(0, {0: 2, 1: 3, 2: 1})], 1) == {1: 2, 0: -3}
    assert solve(mat([[2, 3, 1]])).kernel_basis == ((3, -2, 0), (1, 0, -2))
    assert solve(mat([[2, 3, 1]]), [1]).particular == (Fraction(1, 2), 0, 0)


def test_rejects_out_of_bounds_entry():
    for col in (2, -1):
        with pytest.raises(ValueError, match="outside 0..1"):
            SparseMatrix([{0: 1}, {col: Fraction(1)}], 2)


def test_rejects_a_float_coefficient():
    # 1 / 3 is the binary fraction 6004799503160661/18014398509481984, not 1/3
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SparseMatrix([{1: 1 / 3}], 2)
    with pytest.raises(TypeError):
        solve(mat([[1, 2]]), [0.5])


def test_kernel_basis_entries_are_ints():
    witt_matrix, _, _ = cocycle_matrix(make_witt(), 2, 0, Window(-6, 6))
    rational = mat([[Fraction(1, 2), Fraction(-3, 4), 0, 5], [0, 1, Fraction(2, 3), 0]])
    for m in (witt_matrix, rational):
        kernel = solve(m).kernel_basis
        assert kernel
        assert all(type(x) is int for v in kernel for x in v)


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
