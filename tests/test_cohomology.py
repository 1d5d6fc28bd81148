from fractions import Fraction
from random import Random
from unittest import mock

import pytest

from wittcoh import cochains, cohomology
from wittcoh.algebra import GradedLieAlgebra, Window, make_virasoro, make_witt
from wittcoh.cochains import (ADJOINT, CENTRAL_TARGET, TRIVIAL, Cochain, MixedCochain, basis_tuples,
                              delta_matrix, differential, omitted_count, weight_components)
from wittcoh.cohomology import (
    central_extension_dim,
    coboundary_primitive,
    cocycle_matrix,
    cohomology_by_elimination,
    cohomology_dim,
    comparison_tuples,
    leading_tuples,
    normalize_weight_zero,
    reduce_to_weight_zero,
    stability_scan,
)
from wittcoh.errors import ConfigError, NotACocycleError
from wittcoh import linalg
from wittcoh.linalg import SparseMatrix, solve

from helpers import random_mixed_cocycle, truncated_coboundary
from test_cochains import ABELIAN, RATIONAL, UNGRADED

WITT = make_witt()
W12 = Window(-12, 12)
W10 = Window(-10, 10)


def _leading(q, d, window, coeffs=ADJOINT):
    """The leading rows of delta_q, as the weight-0 count builds them."""
    return delta_matrix(WITT, q, d, window, coeffs, rows=leading_tuples(q, d, window, coeffs))[0]


def test_h2_weight0_vanishes():
    r = cohomology_dim(WITT, 2, 0, W12, 4)
    assert r.dim_stable == 0
    assert r.dim_coboundaries <= r.dim_cocycles


def test_cocycle_matrix_rows_are_generator_first():
    window = Window(-8, 8)
    matrix, _, _ = cocycle_matrix(WITT, 2, 0, window)
    spanning = _leading(2, 0, window).n_rows
    basis_order, rows, _ = delta_matrix(WITT, 2, 0, window)
    row_of = dict(zip(rows, basis_order))
    # the rows through e_1, and through e_2 with one of e_-2, e_-3, first (the prefix),
    # then sorted absolute indices, lexicographically; the sort is stable, so ties keep
    # basis order
    def leads(t):
        return 1 in t or 2 in t and bool({-2, -3} & set(t))

    order = sorted(rows, key=lambda t: (not leads(t), sorted(abs(a) for a in t)))
    assert order[:5] == [(-1, 0, 1), (-2, 0, 1), (0, 1, 2), (-3, 0, 1), (0, 1, 3)]
    assert spanning == sum(map(leads, rows)) == 96
    assert order[spanning - 1:spanning + 1] == [(-3, 2, 6), (-2, -1, 0)]
    assert list(matrix) == [row_of[t] for t in order]


@pytest.mark.parametrize("coeffs", [ADJOINT, TRIVIAL])
@pytest.mark.parametrize("q", [1, 2])
def test_generator_first_rows_keep_the_basis_order_solution(q, coeffs):
    for d in (-3, 0, 2):
        matrix, _, _ = cocycle_matrix(WITT, q, d, W10, coeffs)
        assert solve(matrix) == solve(delta_matrix(WITT, q, d, W10, coeffs)[0]), d


def test_h2_weight3_vanishes():
    r = cohomology_dim(WITT, 2, 3, W12, 4)
    assert r.dim_stable == 0


def test_h0_trivial_center():
    r = cohomology_dim(WITT, 0, 0, W10, 3)
    assert r.dim_stable == 0
    assert r.dim_cocycles == 0  # [x, e_n] = 0 for all n forces x = 0


def test_h1_weight0():
    # ker delta^1 in weight 0 is spanned by b_i = i, which is delta(e_0)
    r = cohomology_dim(WITT, 1, 0, W10, 3)
    assert r.dim_stable == 0


def test_window_too_small_for_margin():
    with pytest.raises(ConfigError):
        cohomology_dim(WITT, 2, 0, Window(-3, 3), 4)


def test_margin_must_be_at_least_two():
    with pytest.raises(ConfigError):
        cohomology_dim(WITT, 2, 0, W10, 1)


def test_a_margin_with_no_core_is_a_config_error():
    w8 = Window(-8, 8)
    c = Cochain(2, 0, w8, ADJOINT, {(1, 2): 1})
    with pytest.raises(ConfigError, match=r"^margin -1 leaves no core of the window \[-8,8\]"):
        coboundary_primitive(WITT, c, margin=-1)
    with pytest.raises(ConfigError, match=r"need 0 <= margin <= 8$"):
        comparison_tuples(WITT, 2, 0, w8, 9)


def test_stability_scan_series():
    r = stability_scan(WITT, 2, 0, [Window(-8, 8), W10, W12], 4)
    assert [n for _, n in r.stabilization] == [0, 0, 0]
    assert len(r.stabilization) == 3


# -- weight reduction ----------------------------------------------------------


def test_reduce_pure_weight_coboundary_to_zero():
    rng = Random(1)
    for d in (1, -1, 3, -3, 6, -6):
        for _ in range(3):
            b0, c = truncated_coboundary(rng, WITT, 1, d, W12, fill=0.6)
            b, residual = reduce_to_weight_zero(WITT, c, W12)
            assert sorted(weight_components(residual.restrict(W12.core(abs(d) + 2)))) == []


def test_reduce_recovers_primitive_inside():
    # with b0(e_0) = 0 the reconstruction b_i = c(e_i, e_0)/d is exact inside
    rng = Random(2)
    d = 2
    b0, c = truncated_coboundary(rng, WITT, 1, d, W12, fill=0.8)
    b, _ = reduce_to_weight_zero(WITT, c, W12)
    core = W12.core(d + 2)
    for i in core.indices():
        if i == 0 or i + d not in core:
            continue
        assert b.entries.get((i,), {}).get(i + d, 0) == b0.component(i)


def test_reduce_pure_weight_zero_is_identity():
    rng = Random(3)
    _, c = truncated_coboundary(rng, WITT, 1, 0, W12, fill=0.5)
    b, residual = reduce_to_weight_zero(WITT, c, W12)
    assert b.is_zero
    assert residual == MixedCochain.from_cochain(c)


def test_reduce_mixed_cocycle_to_pure_weight_zero():
    rng = Random(4)
    for weights in ((0, 1), (0, 1, -3), (2, -2)):
        mixed = random_mixed_cocycle(rng, WITT, 1, weights, W12)
        b, residual = reduce_to_weight_zero(WITT, mixed, W12)
        assert set(weight_components(residual.restrict(W12.core(6)))) <= {0}


def test_reduce_rejects_non_cocycle():
    bad = Cochain(2, 2, W12, ADJOINT, {(1, 2): 1})
    with pytest.raises(NotACocycleError):
        reduce_to_weight_zero(WITT, bad, W12)


# -- normalization ---------------------------------------------------------------


def test_normalize_kills_pure_coboundary():
    # c = delta(diagonal b0 with b0_1 = 0) must normalize to zero with b = b0
    rng = Random(5)
    b0_vals = {i: Fraction(rng.randint(-6, 6)) for i in W10.indices()}
    b0_vals[1] = Fraction(0)
    b0 = Cochain(1, 0, W10, ADJOINT, {(i,): v for i, v in b0_vals.items() if v})
    c = differential(WITT, b0)
    b, c_norm = normalize_weight_zero(WITT, c, W10)
    assert c_norm.is_zero
    assert all(b.component(i) == b0_vals[i] for i in W10.indices())


def test_normalize_fixed_point():
    entries = {(-4, 2): Fraction(3), (-3, 3): Fraction(1)}
    c = Cochain(2, 0, W10, ADJOINT, entries)
    # not a cocycle in general, so build a cocycle already satisfying the
    # normalization instead: normalize a random cocycle, then re-normalize
    rng = Random(6)
    _, raw = truncated_coboundary(rng, WITT, 1, 0, W10, fill=0.6)
    _, c_norm = normalize_weight_zero(WITT, raw, W10)
    b2, c2 = normalize_weight_zero(WITT, c_norm, W10)
    assert b2.is_zero
    assert c2 == c_norm


def test_normalize_random_cocycles_satisfy_column_conditions():
    rng = Random(7)
    for _ in range(5):
        _, c = truncated_coboundary(rng, WITT, 1, 0, W10, fill=0.5)
        _, c_norm = normalize_weight_zero(WITT, c, W10)
        for i in range(W10.lo, W10.hi):
            if i != 1:
                assert c_norm.component(i, 1) == 0
        assert c_norm.component(-2, 2) == 0


def test_normalize_rejects_non_cocycle():
    bad = Cochain(2, 0, W10, ADJOINT, {(1, 2): 1})
    with pytest.raises(NotACocycleError):
        normalize_weight_zero(WITT, bad, W10)


# -- constructive soundness -------------------------------------------------------


def test_interior_cocycle_has_core_matching_primitive():
    rng = Random(8)
    for d in (0, 2):
        _, c = truncated_coboundary(rng, WITT, 1, d, W12, fill=0.5)
        b = coboundary_primitive(WITT, c, margin=4)
        assert b is not None
        db = differential(WITT, b)
        comp, _ = comparison_tuples(WITT, 2, d, W12, 4)
        for t in comp:
            assert db.entries.get(t, Fraction(0)) == c.entries.get(t, Fraction(0))


def test_virasoro_adjoint_cohomology_is_refused():
    # H^0_0(Vir; Vir) is the center; adjoint cochains can neither take nor give c
    vir = make_virasoro()
    for q in (0, 1, 2):
        with pytest.raises(ConfigError) as err:
            cohomology_dim(vir, q, 0, Window(-8, 8), 2)
        assert str(err.value) == ("differential needs bracket values inside the indexed "
                                  "span; central targets are not supported as cochain arguments")
    assert cohomology_dim(vir, 0, 0, Window(-8, 8), 2, coeffs=TRIVIAL).dim_stable == 1


# -- central extension -------------------------------------------------------------


def test_central_extension_dimension_one():
    r = central_extension_dim(W10, 3)
    assert r.dim_stable == 1
    assert len(r.representatives) == 1


def test_central_extension_weight_one_vanishes():
    r = cohomology_dim(WITT, 2, 1, W10, 3, coeffs=TRIVIAL)
    assert r.dim_stable == 0


def test_central_representative_is_cubic():
    # with no renormalization: (-1,1) is a free column of the cocycle matrix, and
    # the representative, the kernel vector of the free column (-2,2), is zero there
    for h in range(6, 15):
        for margin in range(2, 6):
            reps = central_extension_dim(Window(-h, h), margin).representatives
            # a core [-1,1] compares the single tuple (-1,1), where no class shows
            assert len(reps) == (h - margin >= 2)
            for rep in reps:
                # rep(e_{-n}, e_n) = lambda (n^3 - n) for one scalar across the window
                lam = rep.component(-2, 2) / Fraction(2**3 - 2)
                assert lam != 0
                assert all(rep.component(-n, n) == lam * (n**3 - n) for n in range(1, h + 1))


def test_central_extension_stable_across_windows():
    for h, m in ((8, 3), (10, 3), (12, 3)):
        assert central_extension_dim(Window(-h, h), m).dim_stable == 1


@pytest.mark.xfail(
    strict=True,
    reason="_check_window accepts the core [-1,1], whose one comparison tuple (-1,1) "
    "cannot tell the Gelfand-Fuks class from the coboundary of e_0 -> 1, so it reads 0",
)
def test_a_core_too_small_to_show_the_central_class_is_refused():
    # margins 2..4 on [-6,6] report the class; margin 5 must refuse or report it too
    try:
        r = central_extension_dim(Window(-6, 6), 5)
    except ConfigError:
        return
    assert r.dim_stable == 1


def test_central_extension_unique_across_weights():
    # weight 0 carries the single class; every other weight carries none
    for window in (W10, W12):
        for d in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6):
            r = cohomology_dim(WITT, 2, d, window, 3, coeffs=TRIVIAL)
            assert r.dim_stable == 0, (window, d)


def test_the_homotopy_decides_every_nonzero_weight_as_the_elimination_does(monkeypatch):
    # the rigidity grid's nonzero verdicts, the small benchmark windows, and every
    # nonzero weight of [-10,10] at q = 0, 1, 2, both coefficients, margins 2 and 4
    cases = [(2, d, Window(-h, h), 4, ADJOINT) for d in range(-6, 7) if d for h in (8, 10, 12)]
    cases += [(2, d, Window(-h, h), 4, ADJOINT) for d in (-1, 1) for h in (5, 6)]
    cases += [(q, d, W10, m, coeffs) for q in (0, 1, 2) for coeffs in (ADJOINT, TRIVIAL)
              for m in (2, 4) for d in range(-20, 21) if d]
    expected = [cohomology_by_elimination(WITT, *case).to_json_dict() for case in cases]

    def refuse(*args):
        raise AssertionError("a Witt report at d != 0 fell back to the elimination")

    monkeypatch.setattr(cohomology, "cohomology_by_elimination", refuse)
    assert [cohomology_dim(WITT, *case).to_json_dict() for case in cases] == expected


def test_an_abelian_bracket_falls_back_to_the_elimination():
    # e_0 acts by 0, not by the weight, so the homotopy identity fails on every row
    window = Window(-6, 6)
    for d, stable in ((1, 28), (-2, 26)):
        r = cohomology_dim(ABELIAN, 2, d, window, 2).to_json_dict()
        assert r == cohomology_by_elimination(ABELIAN, 2, d, window, 2).to_json_dict()
        assert r["dim_stable"] == stable


def _spy_elimination(monkeypatch):
    """The argument tuples of every `cohomology_by_elimination` call `cohomology_dim` makes."""
    calls = []
    real = cohomology.cohomology_by_elimination
    monkeypatch.setattr(cohomology, "cohomology_by_elimination",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_the_count_decides_weight_zero_as_the_elimination_does(monkeypatch):
    # q = 0 has no count, and it closes everywhere else but at the Gelfand-Fuks class
    windows = [Window(-h, h) for h in range(8, 13)] + [Window(-9, 12), Window(-12, 7)]
    cases = [(q, 0, w, m, coeffs) for w in windows for q in (0, 1, 2)
             for coeffs in (ADJOINT, TRIVIAL) for m in (2, 4)]
    expected = [cohomology_by_elimination(WITT, *case).to_json_dict() for case in cases]
    calls = _spy_elimination(monkeypatch)
    assert [cohomology_dim(WITT, *case).to_json_dict() for case in cases] == expected
    assert calls == [(WITT, *case) for case in cases
                     if case[0] == 0 or (case[0], case[4]) == (2, TRIVIAL)]
    # H^0(W; C) = C and the Gelfand-Fuks class; nothing else
    assert all(r["dim_stable"] == (r["degree"] != 1 and r["coefficients"] == TRIVIAL)
               for r in expected)


def test_the_weight_zero_survey_on_small_windows_equals_the_elimination(monkeypatch):
    # every window inside [-7,7] that accepts the margin, both coefficient types,
    # q = 1, 2: the report is the elimination's where the count closes and where it
    # falls back (the Gelfand-Fuks class, and adjoint q = 2 on windows like [-6,4])
    cases = [(q, 0, Window(lo, hi), m, coeffs) for q in (1, 2) for coeffs in (ADJOINT, TRIVIAL)
             for lo in range(-7, -1) for hi in range(2, 8) for m in (2, 3) if 2 * m < hi - lo]
    expected = [cohomology_by_elimination(WITT, *case).to_json_dict() for case in cases]
    calls = _spy_elimination(monkeypatch)
    assert [cohomology_dim(WITT, *case).to_json_dict() for case in cases] == expected
    # q = 1 always closes; every trivial q = 2 case falls back, and 41 adjoint ones
    fallbacks = [(args[1], args[5]) for args in calls]
    assert (len(cases), len(fallbacks), fallbacks.count((2, TRIVIAL)),
            fallbacks.count((2, ADJOINT))) == (260, 106, 65, 41)


def _fixed(p, d, window, coeffs=ADJOINT, rows=leading_tuples):
    """|F_p| - |S_p|: the columns beyond S_p, the columns of the paper's normalization
    (through 1, and (-2,2)), that the propagation from S_p fixes over the rows of delta_p
    that `rows` lists (the leading rows by default)."""
    seeds = [j for j, t in enumerate(basis_tuples(p, d, window, coeffs)) if 1 in t or t == (-2, 2)]
    matrix = delta_matrix(WITT, p, d, window, coeffs, rows=rows(p, d, window, coeffs))[0]
    return len(cohomology._fixed_from(matrix.rows, *seeds)) - len(seeds)


def _count(q, window, coeffs=ADJOINT, rows=leading_tuples):
    """(the sum of `_fixed` over p = q, q - 1 at weight 0, n), n the column count of delta_q."""
    total = sum(_fixed(p, 0, window, coeffs, rows) for p in (q, q - 1))
    return total, len(basis_tuples(q, 0, window, coeffs))


def test_the_leading_rows_close_the_count_where_the_rows_through_one_or_two_do():
    # eq. (5) and the k = 2 rows read fewer rows than every row through e_1 or e_2, and the
    # propagation fixes as many columns over them as over those rows, or over every row,
    # for delta_q and for delta_{q-1} alike: the count closes on the same 219 of these
    # 324 cases
    def through(p, d, window, coeffs):
        return [t for t in basis_tuples(p + 1, d, window, coeffs) if 1 in t or 2 in t]

    def every(p, d, window, coeffs):
        return basis_tuples(p + 1, d, window, coeffs)

    closed = []
    for q in (1, 2):
        for coeffs in (ADJOINT, TRIVIAL):
            for lo in range(-10, -1):
                for hi in range(2, 11):
                    window = Window(lo, hi)
                    assert not omitted_count(WITT, q - 1, 0, window, coeffs)
                    assert len(leading_tuples(q, 0, window, coeffs)) <= len(through(q, 0, window, coeffs))
                    counts = [tuple(_fixed(p, 0, window, coeffs, rows) for p in (q, q - 1))
                              for rows in (leading_tuples, through, every)]
                    assert counts[0] == counts[1] == counts[2], (q, coeffs, window)
                    closed.append(sum(counts[0]) == len(basis_tuples(q, 0, window, coeffs)))
    assert (sum(closed), len(closed)) == (219, 324)


def test_leading_tuples_are_the_basis_tuples_through_one_or_through_two_and_a_low_index():
    # listed from the rest of each tuple, they are exactly the filter over every basis
    # tuple, in the same (basis) order
    for q in (1, 2):
        for coeffs in (ADJOINT, TRIVIAL):
            for lo in range(-10, -1):
                for hi in range(2, 11):
                    window = Window(lo, hi)
                    old = [t for t in basis_tuples(q + 1, 0, window, coeffs)
                           if 1 in t or 2 in t and bool({-2, -3} & set(t))]
                    assert leading_tuples(q, 0, window, coeffs) == old, (q, coeffs, window)


@pytest.mark.parametrize("q", [1, 2])
def test_weight_zero_raises_the_central_bracket_before_building_a_leading_row(monkeypatch, q):
    # [e_n, e_-n] of the Virasoro algebra is central: omitted_count meets it by a full
    # build of delta_q, which raises, and the count builds none of its rows first
    builds = []
    for module in (cochains, cohomology):
        monkeypatch.setattr(module, "delta_matrix", lambda *args, real=module.delta_matrix, **kwargs:
                            builds.append("rows" in kwargs) or real(*args, **kwargs))
    with pytest.raises(ConfigError) as raised:
        cohomology_dim(make_virasoro(), q, 0, Window(-8, 8), 3, TRIVIAL)
    assert str(raised.value) == CENTRAL_TARGET
    assert builds == [False]


@pytest.mark.parametrize("h, report", [(24, (40, 40, 0, 4756)), (32, (56, 56, 0, 11184)),
                                       (48, (88, 88, 0, 37448))])
def test_large_weight_zero_windows_close_the_count(monkeypatch, h, report):
    calls = _spy_elimination(monkeypatch)
    r = cohomology_dim(WITT, 2, 0, Window(-h, h), 4)
    assert (r.dim_cocycles, r.dim_coboundaries, r.dim_stable, r.omitted_triples) == report
    assert calls == []


def test_the_leading_rows_of_delta_q_minus_one_carry_its_rank_mod_p():
    # cocycle_matrix puts the leading rows of B = delta_{q-1}, the rows of B the weight-0
    # count builds, first; they lose no rank mod p on these 324 windows
    for q in (1, 2):
        for coeffs in (ADJOINT, TRIVIAL):
            for lo in range(-10, -1):
                for hi in range(2, 11):
                    window = Window(lo, hi)
                    bound, _, lost = cocycle_matrix(WITT, q - 1, 0, window, coeffs)
                    lead = _leading(q - 1, 0, window, coeffs)
                    if not lost:  # the same rows, in cocycle_matrix's order
                        assert sorted(sorted(r.items()) for r in bound.rows[:len(lead)]) == sorted(
                            sorted(r.items()) for r in lead)
                    assert len(lead.independent_rows) == len(bound.independent_rows), (
                        q, coeffs, window)


# (dim_cocycles, omitted_triples) of H^2_d on [-h,h], margin 4, for d = -6..6;
# dim_stable is 0 throughout (the benchmark's rigidity grid)
RIGIDITY = {
    8: [(9, 316), (10, 310), (11, 300), (11, 278), (10, 253), (9, 220), (8, 188),
        (9, 220), (10, 253), (11, 278), (11, 300), (10, 310), (9, 316)],
    10: [(14, 596), (15, 574), (16, 546), (15, 505), (14, 462), (13, 410), (12, 360),
         (13, 410), (14, 462), (15, 505), (16, 546), (15, 574), (14, 596)],
    12: [(18, 985), (19, 940), (20, 890), (19, 826), (18, 761), (17, 686), (16, 614),
         (17, 686), (18, 761), (19, 826), (20, 890), (19, 940), (18, 985)],
}


def test_the_rigidity_grid_counts_every_nonzero_weight_without_a_solve(monkeypatch):
    # at d != 0 the comparison rank is fixed from e_0's column, and at d = 0 the count is
    # a propagation from the paper's normalization and the rank is fixed from b_1's
    # column: no weight of the grid selects rows mod p or solves
    solves, selections = [], []
    real, real_select = linalg.solve, linalg._select
    spy = lambda *args: solves.append(args) or real(*args)  # noqa: E731
    for module in (linalg, cohomology):
        monkeypatch.setattr(module, "solve", spy)
    monkeypatch.setattr(linalg, "_select", lambda rows: selections.append(rows) or real_select(rows))
    for h, answers in RIGIDITY.items():
        for d, (cocycles, omitted) in zip(range(-6, 7), answers):
            r = cohomology_dim(WITT, 2, d, Window(-h, h), 4)
            assert (r.dim_cocycles, r.dim_stable, r.omitted_triples) == (cocycles, 0, omitted)
            assert (solves, selections) == ([], []), (d, h)


def test_a_core_without_zero_stalls_the_propagation_and_solve_decides(monkeypatch):
    # [-10,2] at margin 3 has core [-7,-1]: no comparison row reads b_0, the propagation
    # stalls, and the comparison rank comes from `solve`
    window = Window(-10, 2)
    expected = cohomology_by_elimination(WITT, 2, -2, window, 3).to_json_dict()
    calls = _spy_elimination(monkeypatch)
    with mock.patch.object(cohomology, "solve", wraps=solve) as spy:
        got = cohomology_dim(WITT, 2, -2, window, 3).to_json_dict()
    assert (got, calls, spy.call_count) == (expected, [], 1)
    assert got["dim_cocycles"] == 4


def test_windows_inside_minus_four_four_fall_back_at_weight_zero(monkeypatch):
    # the count falls back on the windows inside [-4,4], and on 15 more where the leading
    # rows leave a column unfixed: lo in -7..-5 with hi <= 5, and hi = 5 with lo >= -4;
    # [-2,2] accepts no margin, so it is counted directly.  Each report is the elimination's
    total, n = _count(2, Window(-2, 2))
    assert total == n - 1
    calls = _spy_elimination(monkeypatch)
    small = []
    for lo in range(-10, -1):
        for hi in range(2, 11):
            if (lo, hi) != (-2, 2):
                calls.clear()
                got = cohomology_dim(WITT, 2, 0, Window(lo, hi), 2).to_json_dict()
                if calls:
                    small.append((lo, hi))
                    assert got == cohomology_by_elimination(WITT, 2, 0, Window(lo, hi), 2).to_json_dict()
    inside = [(lo, hi) for lo in (-4, -3, -2) for hi in (2, 3, 4) if (lo, hi) != (-2, 2)]
    more = [(lo, hi) for lo in (-7, -6, -5) for hi in (2, 3, 4, 5)] + [(-4, 5), (-3, 5), (-2, 5)]
    assert sorted(small) == sorted(inside + more)


def test_a_coboundary_matrix_short_of_one_column_does_not_close_the_count(monkeypatch):
    # the propagation over the leading rows of delta_q and of delta_{q-1} fixes exactly
    # n columns more than its seeds; with the column of e_0 -> e_0 (q = 1) or of b_0
    # (q = 2) dropped from the leading rows of delta_{q-1} it fixes fewer, and the report
    # comes from the elimination
    for q, dropped in ((1, ()), (2, (0,))):
        total, n = _count(q, W12)
        assert total == n
        real = cohomology.delta_matrix
        short_builds = []

        def short(alg, degree, *args, q=q, dropped=dropped, **kwargs):
            matrix, rows, lost = real(alg, degree, *args, **kwargs)
            if degree == q - 1 and kwargs.get("rows") == leading_tuples(degree, 0, W12):
                short_builds.append(degree)
                j = cohomology.basis_tuples(degree, 0, W12).index(dropped)
                matrix = SparseMatrix([{c: v for c, v in row.items() if c != j}
                                      for row in matrix], matrix.n_cols)
            return matrix, rows, lost

        monkeypatch.setattr(cohomology, "delta_matrix", short)
        calls = _spy_elimination(monkeypatch)
        cohomology_dim(WITT, q, 0, W12, 4)
        assert (short_builds, calls) == ([q - 1], [(WITT, q, 0, W12, 4, ADJOINT)])
        monkeypatch.undo()


def test_a_count_past_n_or_a_lost_row_of_b_does_not_close(monkeypatch):
    # for a Lie bracket the sum of |F_p| - |S_p| is at most rank(delta_q) + rank(B) <= n,
    # so a count past n breaks the lemma's premises, as does a row of B omitted: both
    # fall back to the elimination
    real_fixed, real_omitted = cohomology._fixed_from, cohomology.omitted_count
    for q in (1, 2):
        for name, patched in (
                ("_fixed_from", lambda rows, *seeds: real_fixed(rows, *seeds) | {-1}),
                ("omitted_count", lambda alg, degree, *args, q=q:
                 real_omitted(alg, degree, *args) + (degree == q - 1))):
            monkeypatch.setattr(cohomology, name, patched)
            calls = _spy_elimination(monkeypatch)
            cohomology_dim(WITT, q, 0, W12, 4)
            assert calls == [(WITT, q, 0, W12, 4, ADJOINT)], (name, q)
            monkeypatch.undo()


def _outcome(compute, *args):
    """A report as its JSON dict, or the (type, message) of the error it raised."""
    try:
        return compute(*args).to_json_dict()
    except (ConfigError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("alg", [WITT, make_virasoro(), ABELIAN, RATIONAL, UNGRADED],
                         ids=["witt", "virasoro", "abelian", "rational", "ungraded"])
def test_nonzero_weights_refuse_what_the_elimination_refuses(alg):
    # the homotopy path counts omissions without building delta_q, yet must still
    # meet every bracket value the elimination meets: a central one on Virasoro,
    # one off the grading on UNGRADED
    refused = 0
    for window in (Window(-8, 8), Window(-9, 5)):
        for q in (0, 1, 2):
            for coeffs in (ADJOINT, TRIVIAL):
                for d in range(-6, 7):
                    if not d:
                        continue
                    got = _outcome(cohomology_dim, alg, q, d, window, 3, coeffs)
                    if coeffs == ADJOINT and alg.has_central:  # refused up front, at every q
                        assert got == (ConfigError, CENTRAL_TARGET)
                    else:
                        assert got == _outcome(cohomology_by_elimination, alg, q, d, window, 3,
                                               coeffs), (window, q, coeffs, d)
                    refused += isinstance(got, tuple)
    assert bool(refused) == (alg.name in ("virasoro", "ungraded"))


@pytest.mark.parametrize("q, d", [(1, 0), (2, 0), (2, 3)])
def test_unknown_coefficients_are_refused_before_any_report(q, d):
    # a misspelt "adjoint" is neither adjoint nor trivial: no report, matrix or cochain
    for compute, args in ((cohomology_dim, (WITT, q, d, W10, 3)),
                          (cohomology_by_elimination, (WITT, q, d, W10, 3)),
                          (delta_matrix, (WITT, q, d, W10)), (omitted_count, (WITT, q, d, W10)),
                          (Cochain, (q, d, W10))):
        with pytest.raises(ValueError, match="unknown coefficients 'Adjoint'"):
            compute(*args, "Adjoint")


@pytest.mark.parametrize("d", [0, 3])
def test_a_float_bracket_coefficient_is_refused_before_any_work(d):
    # the bracket table checks each value once per window, so no matrix needs a check
    halved = GradedLieAlgebra("halved", lambda a, b: {a + b: (b - a) / 2} if a != b else {})
    for compute, args in ((delta_matrix, (halved, 2, d, W10)), (omitted_count, (halved, 2, d, W10)),
                          (cohomology_dim, (halved, 2, d, W10, 3))):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            compute(*args)


def test_the_elimination_selects_from_every_row(monkeypatch):
    # at d = 3 on [-8,8] the propagation over the 59 leading rows fixes 1 of the 100
    # columns beyond its 13 seeds, where the cocycle matrix has rank 75: the weight-0
    # count is for d = 0 only
    m = cocycle_matrix(WITT, 2, 3, Window(-8, 8))[0]
    spanning = _leading(2, 3, Window(-8, 8)).n_rows
    assert (spanning, _fixed(2, 3, Window(-8, 8)), m.n_cols, solve(m).rank) == (59, 1, 100, 75)
    seen = []
    real = linalg._select
    monkeypatch.setattr(linalg, "_select", lambda rows: seen.append(len(rows)) or real(rows))
    r = cohomology_by_elimination(WITT, 2, 3, Window(-8, 8), 4)
    assert seen[0] == m.n_rows
    assert r.to_json_dict() == {
        "algebra": "witt", "degree": 2, "weight": 3, "window": "-8:8", "margin": 4,
        "coefficients": "adjoint", "dim_cocycles": 11, "dim_coboundaries": 11, "dim_stable": 0,
        "representatives": [], "stabilization": [["-8:8", 0]], "omitted_triples": 278}
    # a weight-0 fallback too: the Gelfand-Fuks class, whose 10 leading rows the count
    # reads, is selected from all 50 rows
    m = cocycle_matrix(WITT, 2, 0, W10, TRIVIAL)[0]
    spanning = _leading(2, 0, W10, TRIVIAL).n_rows
    seen.clear()
    cohomology_by_elimination(WITT, 2, 0, W10, 3, TRIVIAL)
    assert (seen[0], m.n_rows, spanning) == (50, 50, 10)


def test_h1_vanishes_across_weights():
    # all windowed derivations are inner: the weight-d cocycle line on the
    # core is exactly the coboundary of the 0-cochain e_d
    for d in (-3, -1, 1, 2, 4):
        r = cohomology_dim(WITT, 1, d, W10, 3)
        assert r.dim_stable == 0
        assert r.dim_cocycles == r.dim_coboundaries == 1
