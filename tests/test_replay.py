from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from wittcoh.algebra import Window, make_witt
from wittcoh.cochains import basis_tuples, delta_matrix, differential
from wittcoh.errors import BoundaryError, ConfigError, ContradictionError
from wittcoh.linalg import SparseMatrix, solve
from wittcoh.replay import (
    RelationSet,
    SymbolicValue,
    TAGS,
    _eq4,
    _eq5,
    diagonal_relations,
    emit_table,
    fill_nonpositive_rows,
    fill_positive_rows,
    final_solve,
    init_table,
    k2_specializations,
    recurrence_value,
    run_replay,
)

from helpers import random_cochain, random_scalar, sequential_solve, solved_form, without_tag

SV = SymbolicValue


def a(k):
    return SV.unknown(k)


@pytest.fixture(scope="module")
def table12():
    t = init_table(12)
    fill_nonpositive_rows(t)
    fill_positive_rows(t)
    return t


# -- init ---------------------------------------------------------------------


def test_init_row_two_unknowns():
    t = init_table(12)
    assert t.value(2, -4) == a(-4)
    assert t.value(2, 5) == a(5)
    assert t.value(-4, 2) == -1 * a(-4)


def test_init_zeroed_seeds():
    t = init_table(12)
    assert t.value(2, -2).is_zero  # a_{-2} = 0 via the (-2,2) normalization
    assert t.value(3, 1).is_zero   # column 1 is normalized away
    assert t.value(2, 1).is_zero


def test_init_diagonal_not_stored():
    t = init_table(12)
    with pytest.raises(LookupError):
        t.cell(2, 2)
    assert not t.known(2, 2)


def test_init_requires_k_at_least_six():
    with pytest.raises(ConfigError, match=r"^table window must satisfy K >= 6, got 5$"):
        init_table(5)


def test_inconsistent_overwrite_is_a_contradiction():
    t = init_table(12)
    with pytest.raises(ContradictionError):
        t.set_cell(2, 5, SV.zero(), "Eq5")


def test_stages_refuse_to_run_out_of_order():
    t = init_table(12)
    with pytest.raises(ValueError, match=r"^fill_nonpositive_rows must run first$"):
        fill_positive_rows(t)
    with pytest.raises(ValueError, match=r"^fill_nonpositive_rows must run first$"):
        k2_specializations(t)
    with pytest.raises(ValueError, match=r"^fill_positive_rows must run first$"):
        recurrence_value(t, 3, 3)


# -- nonpositive fill -----------------------------------------------------------


def test_row_zero_ladder(table12):
    t = table12
    assert t.value(0, 2) == -1 * a(0)
    for j in range(3, 10):
        assert t.value(0, j) == -1 * a(0)
    for j in range(-9, 1):
        if j != 0:
            assert t.value(0, j).is_zero


def test_negative_row_ladders(table12):
    t = table12
    assert t.value(-1, 3) == -2 * a(0)
    assert t.value(-2, 4) == -3 * a(0)
    assert t.value(-3, 5) == -4 * a(0)
    for j in range(-9, 2):
        if j != -3:
            assert t.value(-3, j).is_zero


def test_gap_cells_forced_by_the_recurrence(table12):
    t = table12
    assert t.value(-2, 3) == -3 * a(-1)
    assert t.value(-3, 3) == 2 * a(-3)
    assert t.value(-3, 4) == SV.make({-3: -1, -1: -6})
    assert t.value(-4, 3) == SV.make({-4: 3, -3: -5})


# -- positive fill and closed forms ----------------------------------------------


def closed_form_3(j):
    return SV.make({j: j + 1, j + 1: -(j - 1)})


def closed_form_4(j):
    return SV.make({
        j: Fraction((j + 1) * (j + 2), 2),
        j + 1: -(j - 1) * (j + 2),
        j + 2: Fraction(j * (j - 1), 2),
    })


def closed_form_5(j):
    return SV.make({
        j: Fraction((j + 1) * (j + 2) * (j + 3), 6),
        j + 1: Fraction(-(j - 1) * (j + 2) * (j + 3), 2),
        j + 2: Fraction((j - 1) * j * (j + 3), 2),
        j + 3: Fraction(-(j - 1) * j * (j + 1), 6),
    })


def _with_seed_zeros(form):
    # the table seeds a_{-2} = a_1 = a_2 = 0, so drop them from the closed form
    return SV.make({k: v for k, v in form.coeffs if k not in (-2, 1, 2)}, form.const)


def test_closed_forms_match_recurrence_rows(table12):
    t = table12
    for j in range(-9, 10):
        assert recurrence_value(t, 3, j) == _with_seed_zeros(closed_form_3(j))
        if j <= 9:
            assert recurrence_value(t, 4, j) == _with_seed_zeros(closed_form_4(j))
        if j <= 8:
            assert recurrence_value(t, 5, j) == _with_seed_zeros(closed_form_5(j))


def test_row_three_coefficient_pattern(table12):
    # (j+1) on a_j and -(j-1) on a_{j+1}
    form = recurrence_value(table12, 3, 5)
    assert dict(form.coeffs)[5] == 6 and dict(form.coeffs)[6] == -4


def test_row_five_at_zero_matches_table_row(table12):
    assert recurrence_value(table12, 5, 0) == a(0)  # row i=5, j=0 cell of the table


def test_stored_upper_cells_agree_with_recurrence(table12):
    t = table12
    assert t.value(3, 4) == recurrence_value(t, 3, 4)
    assert t.value(4, 7) == recurrence_value(t, 4, 7)


def test_recurrence_boundary_error(table12):
    with pytest.raises(BoundaryError):
        recurrence_value(table12, 8, 8)  # needs row-2 column 14 > 12


# -- diagonal relations ------------------------------------------------------------


def test_diagonal_solved_forms(table12):
    solved = diagonal_relations(table12, 6).solve()
    assert solved[4] == 2 * a(3)
    assert solved[6] == SV.make({5: 3, 3: -5})
    assert solved[8] == SV.make({7: 4, 5: -14, 3: 28})
    assert solved[10] == SV.make({9: 5, 7: -30, 5: 126, 3: -255})


def test_diagonal_relations_against_brute_force_slice():
    """Independent oracle: solve the k = 1 slice of the six-term system as one
    linear system over the raw unknowns c_{i,j} and check which solved forms
    annihilate its kernel.  This pins the closing coefficient at 126 (the
    often-quoted 117 fails)."""
    K = 12
    idx = list(range(-K, K + 1))
    pairs = list(combinations(idx, 2))
    col = {p: n for n, p in enumerate(pairs)}

    def add(row, x, y, coeff):
        if x == y or coeff == 0:
            return
        key, sign = ((x, y), 1) if x < y else ((y, x), -1)
        row[col[key]] = row.get(col[key], 0) + sign * coeff

    rows = []
    for i, j in combinations(idx, 2):
        k = 1
        if 1 in (i, j) or any(abs(s) > K for s in (i + j, j + k, k + i)):
            continue
        row = {}
        add(row, i + j, k, j - i)
        add(row, j + k, i, k - j)
        add(row, k + i, j, i - k)
        add(row, k, j, j - i + k)
        add(row, k, i, j - i - k)
        add(row, i, j, -(i + j - k))
        if row:
            rows.append(row)
    for i in idx:
        if i != 1:
            row = {}
            add(row, i, 1, 1)
            rows.append(row)
    rows.append({col[(-2, 2)]: 1})

    m = SparseMatrix([{c: Fraction(v) for c, v in row.items()} for row in rows], len(pairs))
    kern = solve(m).kernel_basis
    assert kern  # the slice alone leaves many free directions

    def av(vec, k):
        key, sign = ((2, k), 1) if 2 < k else ((k, 2), -1)
        return sign * vec[col[key]]

    def holds(rel):
        return all(sum(c * av(v, k) for k, c in rel) == 0 for v in kern)

    assert holds([(4, 1), (3, -2)])                        # a_4 = 2a_3
    assert holds([(6, 1), (5, -3), (3, 5)])                # a_6 = 3a_5 - 5a_3
    assert holds([(8, 1), (7, -4), (5, 14), (3, -28)])     # a_8 = 4a_7 - 14a_5 + 28a_3
    assert holds([(10, 1), (9, -5), (7, 30), (5, -126), (3, 255)])
    assert not holds([(10, 1), (9, -5), (7, 30), (5, -117), (3, 255)])


def test_diagonal_boundary_error(table12):
    with pytest.raises(BoundaryError):
        diagonal_relations(table12, 8)


# -- k = 2 specializations ------------------------------------------------------------


def test_k2_chains(table12):
    rels = without_tag(k2_specializations(table12), "Sec9")
    assert all(r.tag == "Eq7" for r in rels.relations)
    solved = rels.solve()
    f = lambda k: solved_form(rels, k, solved)
    assert f(0).is_zero
    assert f(-6).is_zero and f(-8).is_zero
    chain = 3 * f(-1)
    assert not chain.is_zero
    assert f(-3) == chain
    assert -1 * f(-5) == chain
    assert -3 * f(-7) == chain
    # positive chains: evens vanish (a_2 is zero by seeding, before any relation),
    # odds are proportional with the true weights
    assert f(4).is_zero and f(6).is_zero and f(8).is_zero
    assert 7 * f(3) == 9 * f(5) == 11 * f(7)


def test_k2_j_minus_two_instance_relates_a0(table12):
    rels = without_tag(k2_specializations(table12), "Sec9")
    labels = {r.label: r.form for r in rels.relations}
    # the j = 0 instance reads 4a_0 = 2a_{-2} = 0
    assert labels["eq6[i=-2,j=0]"] == SV.make({0: 4})


# -- eq. (4) and eq. (5) as transcribed ------------------------------------------


def eq5_cells(i, j):
    """The cells of eq. (5) at (i, j) with their coefficients, from PAPER.md."""
    return {(i, j + 1): j - 1, (i + 1, j): i - 1, (i, j): -(i + j - 1)}


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=7)


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(0, 2),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_eq5_solved_for_a_cell_satisfies_eq5(i, j, which, values):
    cells = eq5_cells(i, j)
    cell = list(cells)[which]
    assume(cells[cell] != 0)
    # only cells with a nonzero coefficient, other than the unknown, may be read
    known = {ab: SV.constant(v) for (ab, coeff), v in zip(cells.items(), values)
             if coeff and ab != cell}
    solved = _eq5(lambda a, b: known[a, b], i, j, cell)
    assert not solved.coeffs
    full = {ab: v.const for ab, v in known.items()}
    full[cell] = solved.const
    assert sum(coeff * full.get(ab, 0) for ab, coeff in cells.items()) == 0


@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(0, 2), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_eq5_is_eq4_at_k_one_when_column_one_vanishes(i, j, which, seed):
    """The paper's "three of the six terms vanish": with c_{x,1} = 0, the value
    eq. (5) solves for makes eq. (4) at k = 1 vanish."""
    cell = list(eq5_cells(i, j))[which]
    assume(i != j and cell[0] != cell[1] and 1 not in cell and eq5_cells(i, j)[cell])
    rng, store = Random(seed), {}

    def c(a, b):  # an antisymmetric rational c with c_{x,1} = 0, drawn as read
        if a == b or 1 in (a, b):
            return SV.zero()
        key = (min(a, b), max(a, b))
        if key not in store:
            store[key] = random_scalar(rng)
        return SV.constant(store[key] if a < b else -store[key])

    solved = _eq5(c, i, j, cell).const
    store[min(cell), max(cell)] = solved if cell[0] < cell[1] else -solved
    assert _eq4(c, i, j, 1).is_zero


@pytest.mark.parametrize("seed", range(4))
def test_eq4_is_the_differential_at_interior_triples(seed):
    window = Window(-7, 7)
    c = random_cochain(Random(seed), 2, 0, window, fill=0.6)
    dc = differential(make_witt(), c)
    omitted = set(delta_matrix(make_witt(), 2, 0, window)[2])
    interior = [t for t in basis_tuples(3, 0, window) if t not in omitted]
    assert len(interior) > 50 and dc.entries
    for i, j, k in interior:
        for args in ((i, j, k), (j, k, i), (k, j, i)):
            assert _eq4(c.component, *args) == dc.component(*args)


# -- final solve -------------------------------------------------------------------


def test_final_solve_all_zero(table12):
    rels = diagonal_relations(table12, 6).merged(k2_specializations(table12))
    verdict = final_solve(table12, rels)
    assert verdict.dimension == 0
    assert verdict.all_zero
    assert all(v.is_zero for v in verdict.solved_targets.values())


@pytest.mark.parametrize("buffer", [-1, 13])
def test_final_solve_rejects_a_buffer_outside_the_table(table12, buffer):
    rels = diagonal_relations(table12, 6).merged(k2_specializations(table12))
    with pytest.raises(ConfigError, match=rf"0 <= buffer <= K = 12, got {buffer}$"):
        final_solve(table12, rels, buffer=buffer)
    assert final_solve(table12, rels, buffer=12).all_zero  # only a_0 is left to project on


def test_final_solve_without_endgame_family(table12):
    rels = diagonal_relations(table12, 6).merged(k2_specializations(table12))
    reduced = without_tag(rels, "Sec9")
    verdict = final_solve(table12, reduced)
    assert verdict.dimension == 2
    assert verdict.free_unknowns == (-11, -4)
    assert str(verdict) == ("verdict: solution space dimension 2 on |k| <= 9; "
                            "free directions touch a_{-11}, a_{-4}")
    solved = reduced.solve()
    f = lambda k: solved_form(reduced, k, solved)
    # a_{-4} is untouched, and the odd negative chain survives as one direction
    assert f(-4) == a(-4)
    assert not f(-3).is_zero
    assert all(f(k).is_zero for k in (0, 3, 4, 5, 6, 7, 8, 9, -6, -8))


def test_diag3_plus_chain_forces_a3(table12):
    rels = without_tag(k2_specializations(table12), "Sec9").merged(diagonal_relations(table12, 3))
    f = solved_form(rels, 3)
    assert f.is_zero


def test_injected_false_relation_contradicts(table12):
    rels = diagonal_relations(table12, 6).merged(k2_specializations(table12))
    rels.add("fake[a_3=1]", "Diag", SV.make({3: 1}, const=-1))
    with pytest.raises(ContradictionError):
        final_solve(table12, rels)


def test_symbolic_values_reject_a_float_coefficient():
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SV.make({3: 0.5})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        SV.make({3: 1}, const=-1 / 2)
    with pytest.raises(TypeError):
        0.5 * a(3)


def test_contradiction_is_reported_at_the_first_inconsistent_relation():
    rels = RelationSet()
    rels.add("r0", "Diag", a(3) - a(4))
    rels.add("r1", "Diag", a(3) + a(4) - SV.constant(1))  # a_3 = a_4 = 1/2
    rels.add("r2", "Eq7", a(5) + a(6))
    rels.add("r3", "Eq7", a(4) - SV.constant(2))  # 1/2 - 2 at every solution so far
    rels.add("r4", "Sec9", SV.constant(7))
    with pytest.raises(ContradictionError) as got:
        rels.solve()
    assert str(got.value) == "relation r3 [Eq7] reduces to -3/2 = 0"
    with pytest.raises(ContradictionError, match="r3"):
        sequential_solve(rels)


COEFFICIENT = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
FORMS = st.builds(SV.make, st.dictionaries(st.integers(-6, 6), COEFFICIENT, max_size=3),
                  st.one_of(st.just(0), COEFFICIENT))


@st.composite
def relation_sets(draw):
    """Up to 8 relations; some combine two earlier ones plus a constant, so
    dependent, inhomogeneous and inconsistent sets all occur."""
    rels = RelationSet()
    for n in range(draw(st.integers(0, 8))):
        form = draw(FORMS)
        if rels.relations and draw(st.booleans()):
            first, second = (draw(st.sampled_from(rels.relations)).form for _ in range(2))
            shift = draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
            form = draw(COEFFICIENT) * first + draw(COEFFICIENT) * second + SV.constant(shift)
        rels.add(f"r{n}", draw(st.sampled_from(TAGS)), form)
    return rels


@given(relation_sets())
@settings(max_examples=300, deadline=None)
def test_solve_matches_sequential_elimination(rels):
    try:
        expected = sequential_solve(rels)
    except ContradictionError as exc:
        with pytest.raises(ContradictionError) as got:
            rels.solve()
        assert str(got.value) == str(exc)
    else:
        assert rels.solve() == expected


def test_table_instantiates_to_zero_at_the_solution(table12):
    # every cell is a homogeneous form, so a_k = 0 for all k makes it vanish
    for form in table12.cells.values():
        assert form.const == 0


# -- rendering and the log -----------------------------------------------------------


PRINTED_TABLE_CELLS = {
    5: {-3: "4a_0", -2: "3a_0", -1: "2a_0", 0: "a_0", 1: "0", 2: "-a_5"},
    4: {-2: "3a_0", -1: "2a_0", 0: "a_0", 1: "0", 2: "-a_4"},
    3: {-1: "2a_0", 0: "a_0", 1: "0", 2: "-a_3"},
    2: {-4: "a_{-4}", -3: "a_{-3}", -2: "0", -1: "a_{-1}", 0: "a_0", 1: "0",
        3: "a_3", 4: "a_4", 5: "a_5"},
    1: {j: "0" for j in range(-4, 6) if j != 1},
    0: {**{j: "0" for j in range(-4, 2) if j != 0}, **{j: "-a_0" for j in range(2, 6)}},
    -1: {**{j: "0" for j in range(-4, 2) if j != -1}, 2: "-a_{-1}",
         **{j: "-2a_0" for j in range(3, 6)}},
    -2: {**{j: "0" for j in range(-4, 3) if j != -2}, 4: "-3a_0", 5: "-3a_0"},
    -3: {**{j: "0" for j in range(-4, 2) if j != -3}, 2: "-a_{-3}", 5: "-4a_0"},
    -4: {**{j: "0" for j in range(-4, 2) if j != -4}, 2: "-a_{-4}"},
}


def test_emit_table_matches_printed_cells(table12):
    text = emit_table(table12)
    lines = text.strip().splitlines()
    header = [h.strip() for h in lines[0].split("|")[2:-1]]
    cols = [int(h) for h in header]
    for line in lines[2:]:
        parts = [p.strip() for p in line.split("|")[1:-1]]
        i = int(parts[0])
        for j, cell in zip(cols, parts[1:]):
            if i == j:
                assert cell == "**0**"
                continue
            expected = PRINTED_TABLE_CELLS.get(i, {}).get(j)
            if expected is not None:
                assert cell == expected, f"cell ({i},{j}): {cell!r} != {expected!r}"


def test_emit_table_specific_cells(table12):
    text = emit_table(table12)
    row5 = next(l for l in text.splitlines() if l.startswith("| 5 |"))
    assert "4a_0" in row5
    rowm3 = next(l for l in text.splitlines() if l.startswith("| -3 |"))
    cells = [c.strip() for c in rowm3.split("|")[2:-1]]
    assert cells[4 + 1] == "0"       # j = 1
    assert cells[4 + 2] == "-a_{-3}"  # j = 2


def test_log_tags_are_from_the_fixed_set(table12):
    assert all(e.tag in TAGS for e in table12.log)


def test_log_replay_reconstructs_the_table():
    res = run_replay(K=12)
    rebuilt = init_table(12)
    for entry in res.table.log:
        if entry.kind == "cell":  # labelled c[i,j], valued as stored, i < j
            i, j = map(int, entry.label[2:-1].split(","))
            rebuilt.set_cell(i, j, entry.value, entry.tag)  # a known cell must agree
    assert rebuilt.cells == res.table.cells


def test_run_replay_verdict():
    res = run_replay(K=12)
    assert res.verdict.all_zero
    assert res.verdict.dimension == 0
    assert "| i\\j |" in res.section5_table


def test_replay_verdict_stable_across_table_sizes():
    for K in (12, 13, 14):
        res = run_replay(K=K)
        assert res.verdict.all_zero, K
        assert res.verdict.dimension == 0
