"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerances.

Each test prints a `criterion N: PASS` line on success (visible with -s, and
the -v test listing doubles as the per-criterion scoreboard).  The one
expected failure is the printed closing coefficient of the fourth diagonal
relation, asserted verbatim in a strict-xfail test: the independent kernel
oracle proves that coefficient arithmetically wrong (126 is forced), so the
verbatim assertion cannot pass without corrupting the derivation.
"""

from fractions import Fraction
from random import Random

import pytest

from wittcoh.algebra import Window, check_jacobi, make_virasoro, make_witt
from wittcoh.cochains import (
    ADJOINT,
    TRIVIAL,
    MixedCochain,
    differential,
    weight_components,
)
from wittcoh.cohomology import (
    central_extension_dim,
    cocycle_matrix,
    cohomology_dim,
    normalize_weight_zero,
    reduce_to_weight_zero,
)
from wittcoh.deformation import (
    DeformedBracket,
    Equivalence,
    conjugate,
    trivialize,
)
from wittcoh.errors import NotACocycleError
from wittcoh.linalg import SparseMatrix, solve
from wittcoh.replay import (
    SymbolicValue,
    diagonal_relations,
    emit_table,
    fill_nonpositive_rows,
    fill_positive_rows,
    final_solve,
    init_table,
    k2_specializations,
)
from wittcoh.cli import main as cli_main

from helpers import (
    never_leaves_window,
    random_cochain,
    random_mixed_cocycle,
    solved_form,
    truncated_coboundary,
    without_tag,
)

WITT = make_witt()
VIR = make_virasoro()


def ok(name):
    print(f"criterion {name}: PASS")


# -- 1. Jacobi certification ---------------------------------------------------


def test_criterion_01_jacobi_certification():
    window = Window(-15, 15)
    assert check_jacobi(WITT, window).is_clean
    assert check_jacobi(VIR, window).is_clean
    ok("1 (jacobi, witt and virasoro on [-15,15])")


# -- 2. delta-squared property suite ----------------------------------------------


def test_criterion_02_delta_squared_suite():
    window = Window(-10, 10)
    rng = Random(202)
    checked = 0
    cases = [(0, ADJOINT), (1, ADJOINT), (0, TRIVIAL), (1, TRIVIAL)]
    for degree, coeffs in cases:
        for _ in range(50):
            d = rng.choice([-4, -2, -1, 0, 0, 1, 2, 3])
            if coeffs == TRIVIAL and degree == 0:
                d = 0
            c = random_cochain(rng, degree, d, window, coeffs, fill=0.6)
            dd = differential(WITT, differential(WITT, c))
            for t, v in dd.entries.items():
                if never_leaves_window(t, d, window):
                    assert v == 0, (degree, coeffs, d, t)
            checked += 1
    assert checked == 200
    ok("2 (delta^2 = 0 for 200 random cochains, both coefficient types)")


# -- 3. weight reduction --------------------------------------------------------------


def test_criterion_03_weight_reduction():
    window = Window(-12, 12)
    rng = Random(303)
    weights = [1, -1, 3, -3, 6, -6]
    for n in range(50):
        d = weights[n % len(weights)]
        _, c = truncated_coboundary(rng, WITT, 1, d, window, fill=0.5)
        _, residual = reduce_to_weight_zero(WITT, c, window)
        assert sorted(weight_components(residual.restrict(window.core(abs(d) + 2)))) == []
    for weights_mix in ((0, 1), (0, -3, 2), (1, 6), (0, -1, -6)):
        mixed = random_mixed_cocycle(rng, WITT, 1, weights_mix, window)
        _, residual = reduce_to_weight_zero(WITT, mixed, window)
        assert set(weight_components(residual.restrict(window.core(8)))) <= {0}
    ok("3 (weight reduction: 50 pure coboundaries exact, mixed residuals pure weight 0)")


# -- 4. rigidity by direct computation --------------------------------------------------


def test_criterion_04_rigidity_scan():
    for d in range(-6, 7):
        dims = []
        for h in (8, 10, 12):
            r = cohomology_dim(WITT, 2, d, Window(-h, h), 4)
            dims.append(r.dim_stable)
        assert dims == [0, 0, 0], (d, dims)
    ok("4 (H^2_d stable dimension 0 for all |d| <= 6 across three windows)")


# -- 5. normalization uniqueness ----------------------------------------------------------


def test_criterion_05_normalization():
    window = Window(-10, 10)
    rng = Random(505)
    for _ in range(50):
        _, c = truncated_coboundary(rng, WITT, 1, 0, window, fill=0.5)
        b, c_norm = normalize_weight_zero(WITT, c, window)
        for i in range(window.lo, window.hi):
            if i != 1:
                assert c_norm.component(i, 1) == 0
        assert c_norm.component(-2, 2) == 0
        b2, c2 = normalize_weight_zero(WITT, c_norm, window)
        assert b2.is_zero
        assert c2 == c_norm
    ok("5 (50 normalizations exact; renormalization yields b = 0)")


# -- 6. proof replay golden results ------------------------------------------------------


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


@pytest.fixture(scope="module")
def replay12():
    t = init_table(12)
    fill_nonpositive_rows(t)
    section5 = emit_table(t)
    fill_positive_rows(t)
    return t, section5


def test_criterion_06a_table_cells(replay12):
    _, section5 = replay12
    lines = section5.strip().splitlines()
    cols = [int(h.strip()) for h in lines[0].split("|")[2:-1]]
    seen = 0
    for line in lines[2:]:
        parts = [p.strip() for p in line.split("|")[1:-1]]
        i = int(parts[0])
        for j, cell in zip(cols, parts[1:]):
            if i == j:
                assert cell == "**0**"
                continue
            expected = PRINTED_TABLE_CELLS.get(i, {}).get(j)
            if expected is not None:
                assert cell == expected, f"cell ({i},{j})"
                seen += 1
    assert seen == sum(len(r) for r in PRINTED_TABLE_CELLS.values())
    ok("6a (fact table matches the printed table cell for cell)")


def test_criterion_06b_diagonal_relations(replay12):
    t, _ = replay12
    solved = diagonal_relations(t, 6).solve()
    assert solved[4] == SymbolicValue.make({3: 2})
    assert solved[6] == SymbolicValue.make({5: 3, 3: -5})
    assert solved[8] == SymbolicValue.make({7: 4, 5: -14, 3: 28})
    # the closing relation as forced by the recurrence (and certified against
    # the independent kernel oracle in test_replay): coefficient 126 on a_5
    assert solved[10] == SymbolicValue.make({9: 5, 7: -30, 5: 126, 3: -255})
    ok("6b (diagonal relations a_4, a_6, a_8 as printed; closing relation with "
       "the oracle-certified coefficient 126)")


@pytest.mark.xfail(
    strict=True,
    reason="the printed closing coefficient 117 contradicts the generating "
    "recurrence; elimination and the independent kernel oracle both force 126",
)
def test_criterion_06b_printed_closing_coefficient(replay12):
    t, _ = replay12
    solved = diagonal_relations(t, 6).solve()
    assert solved[10] == SymbolicValue.make({9: 5, 7: -30, 5: 117, 3: -255})


def test_criterion_06c_chains_in_solved_form(replay12):
    t, _ = replay12
    rels = without_tag(k2_specializations(t), "Sec9")
    solved = rels.solve()
    f = lambda k: solved_form(rels, k, solved)
    assert f(0).is_zero
    assert f(-6).is_zero and f(-8).is_zero
    chain = 3 * f(-1)
    assert not chain.is_zero
    assert f(-3) == chain == -1 * f(-5) == -3 * f(-7)
    ok("6c (a_0 = 0, even chain vanishes, odd chain 3a_{-1} = a_{-3} = -a_{-5} = -3a_{-7})")


def test_criterion_06d_final_verdict(replay12):
    t, _ = replay12
    rels = diagonal_relations(t, 6).merged(k2_specializations(t))
    verdict = final_solve(t, rels, buffer=3)
    assert verdict.all_zero
    assert verdict.dimension == 0
    assert set(verdict.solved_targets) == {
        k for k in range(-9, 10) if k not in (-2, 1, 2)}
    ok("6d (final solve: all a_k = 0 for |k| <= 9 at K = 12)")


def test_criterion_06e_residual_unknowns_without_endgame(replay12):
    t, _ = replay12
    rels = diagonal_relations(t, 6).merged(k2_specializations(t))
    reduced = without_tag(rels, "Sec9")
    verdict = final_solve(t, reduced, buffer=3)
    assert verdict.dimension == 2
    solved = reduced.solve()
    f = lambda k: solved_form(reduced, k, solved)
    assert f(-4) == SymbolicValue.unknown(-4)        # a_{-4} survives untouched
    odd_support = set()
    for k in range(-9, 10):
        if k in (-2, 1, 2):
            continue
        form = f(k)
        if k == -4:
            continue
        for u, _ in form.coeffs:
            odd_support.add(u)
    assert odd_support and all(u < 0 and u % 2 != 0 for u in odd_support)
    ok("6e (dropping the endgame family leaves exactly a_{-4} and one odd-negative direction)")


# -- 7. oracle cross-check ------------------------------------------------------------------


def test_criterion_07_brute_force_normalized_cocycles():
    window = Window(-12, 12)
    margin = 4
    matrix, cols, _, _ = cocycle_matrix(WITT, 2, 0, window, ADJOINT)
    col = {t: i for i, t in enumerate(cols)}
    rows = list(matrix)
    for t in cols:  # normalization: the (i,1) column and (-2,2) vanish
        if 1 in t or t == (-2, 2):
            rows.append({col[t]: Fraction(1)})
    full = SparseMatrix(rows, len(cols))
    kern = solve(full).kernel_basis
    core = window.core(margin)
    for vec in kern:
        for i, t in enumerate(cols):
            if vec[i] and all(a in core for a in t) and sum(t) in core:
                raise AssertionError(f"normalized cocycle survives at {t}")
    ok("7 (brute-force normalized weight-0 cocycles vanish on the core, matching the replay)")


# -- 8. central extension ----------------------------------------------------------------------


def test_criterion_08_central_extension():
    report = central_extension_dim(Window(-10, 10), 3)
    assert report.dim_stable == 1
    rep = report.representatives[0]
    assert rep.component(-1, 1) == 0
    lam = 12 * rep.component(-2, 2) / Fraction(6)
    assert lam != 0
    for n in range(2, 8):
        assert 12 * rep.component(-n, n) == lam * (n**3 - n)
    assert cohomology_dim(WITT, 2, 1, Window(-10, 10), 3, coeffs=TRIVIAL).dim_stable == 0
    # the 1/12-normalized central term is a Lie bracket (criterion 1 re-check)
    assert check_jacobi(VIR, Window(-15, 15)).is_clean
    ok("8 (central extension dimension 1, representative proportional to n^3 - n)")


# -- 9. deformation rigidity -----------------------------------------------------------------


def test_criterion_09_deformation_rigidity():
    window = Window(-12, 12)
    rng = Random(909)
    for trial in range(20):
        layers = []
        for _ in range(3):
            ws = rng.sample([-1, 0, 1], k=2)
            parts = [random_cochain(rng, 1, d, window, fill=0.2) for d in ws]
            layers.append(MixedCochain.from_components(1, window, parts))
        e = Equivalence(3, window, tuple(layers))
        d = conjugate(DeformedBracket.trivial(WITT, window, 3), e)
        result = trivialize(d, window, margin=4)
        assert result.trivialized, trial
        core = result.verification_core
        assert all(l.restrict(core).is_zero for l in result.conjugated.layers)
    bad = DeformedBracket(1, WITT, window,
                          (MixedCochain(2, window, {(1, 2): {3: 1}}),))
    with pytest.raises(NotACocycleError):
        trivialize(bad, window, margin=4)
    ok("9 (20 unipotent conjugates trivialized exactly on the core; non-cocycle rejected)")


# -- 10. end-to-end CLI ---------------------------------------------------------------------------


def test_criterion_10_cli_expectations(capsys):
    invocations = [
        ["cohomology", "--algebra", "witt", "--degree", "2", "--weight", "0",
         "--window=-12:12", "--margin", "4", "--expect", "0"],
        ["cohomology", "--algebra", "witt", "--degree", "2", "--weight", "3",
         "--window=-12:12", "--margin", "4", "--expect", "0"],
        ["central-extension", "--window=-10:10", "--expect", "1"],
        ["replay", "--K", "12", "--expect", "0"],
    ]
    for argv in invocations:
        assert cli_main(list(argv)) == 0, argv
        capsys.readouterr()
    mutated = [
        argv[:-1] + [str(int(argv[-1]) + 1)] for argv in invocations
    ]
    for argv in mutated:
        assert cli_main(list(argv)) == 1, argv
        capsys.readouterr()
    ok("10 (all four --expect invocations exit 0; mutated expectations exit 1)")
