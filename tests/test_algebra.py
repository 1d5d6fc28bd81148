from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittcoh.algebra import (
    CENTRAL,
    GradedLieAlgebra,
    Window,
    check_jacobi,
    dump_algebra,
    load_algebra,
    make_virasoro,
    make_witt,
)
from wittcoh.errors import ConfigError, FormatError

WITT = make_witt()
VIR = make_virasoro()

idx = st.integers(-20, 20)


@pytest.mark.parametrize("margin", [-1, 9])
def test_window_core_refuses_a_margin_that_leaves_nothing(margin):
    assert Window(-8, 8).core(8) == Window(0, 0)
    with pytest.raises(ConfigError, match=rf"^margin {margin} leaves no core of the window "
                                          r"\[-8,8\]: need 0 <= margin <= 8$"):
        Window(-8, 8).core(margin)


def test_witt_bracket_basic():
    assert WITT.bracket_rule(2, 3) == {5: 1}


def test_witt_bracket_diagonal():
    assert WITT.bracket_rule(4, 4) == {}


def test_witt_bracket_with_e0():
    assert WITT.bracket_rule(5, 0) == {5: -5}


def test_virasoro_no_central_term_at_one():
    # (1/12)((-1)^3 - (-1)) = 0, so only the witt part survives
    assert VIR.bracket_rule(1, -1) == {0: -2}


def test_virasoro_central_term_at_two():
    assert VIR.bracket_rule(2, -2) == {0: -4, CENTRAL: Fraction(-1, 2)}


def test_virasoro_central_is_central():
    assert VIR.bracket_rule(3, CENTRAL) == {}
    assert VIR.bracket_rule(CENTRAL, 7) == {}


@given(idx, idx)
def test_antisymmetry(n, m):
    for alg in (WITT, VIR):
        assert alg.bracket_rule(n, m) == {k: -v for k, v in alg.bracket_rule(m, n).items()}


@given(idx, idx)
def test_grading(n, m):
    for alg in (WITT, VIR):
        for key, v in alg.bracket_rule(n, m).items():
            assert v != 0
            if key == CENTRAL:
                assert n + m == 0
            else:
                assert key == n + m


def test_jacobi_witt_window_10():
    assert check_jacobi(WITT, Window(-10, 10)).is_clean


def test_jacobi_virasoro_window_10():
    assert check_jacobi(VIR, Window(-10, 10)).is_clean


def test_jacobi_refuses_a_float_bracket():
    # 0.1 is a binary fraction, not 1/10: summed, it would report rounding residue as defects
    g = GradedLieAlgebra("g", lambda a, b: {a + b: 0.1 * (b - a)} if a != b else {})
    with pytest.raises(TypeError, match="coefficient 0.1 is not an int or a Fraction"):
        check_jacobi(g, Window(-6, 6))


def test_jacobi_detects_corruption():
    def bad_rule(a, b):
        if (a, b) == (1, 2):
            return {3: 2}  # should be 1*e_3
        return WITT.bracket_rule(a, b)

    from wittcoh.algebra import GradedLieAlgebra

    bad = GradedLieAlgebra("corrupted", bad_rule, has_central=False, graded=True)
    report = check_jacobi(bad, Window(-4, 4))
    assert not report.is_clean
    assert any(1 in t and 2 in t for t, _ in report.defects)


TWO_DIM = """\
name: smallest-nonabelian
graded: no
central: no
0 1 -> 1:1
"""


def test_load_two_dimensional_algebra():
    alg = load_algebra(TWO_DIM)
    assert alg.bracket_rule(0, 1) == {1: 1}
    assert alg.bracket_rule(1, 0) == {1: -1}
    assert alg.bracket_rule(0, 0) == {}
    assert check_jacobi(alg, Window(0, 1)).is_clean


def test_load_rejects_duplicate_pair():
    doc = TWO_DIM + "0 1 -> 1:2\n"
    with pytest.raises(FormatError):
        load_algebra(doc)


def test_load_rejects_garbage():
    with pytest.raises(FormatError):
        load_algebra(TWO_DIM + "this is not a record\n")


def test_load_rejects_bad_coefficient():
    with pytest.raises(FormatError):
        load_algebra("name: x\ngraded: no\ncentral: no\n0 1 -> 1:zzz\n")


def test_load_rejects_grading_violation():
    with pytest.raises(FormatError):
        load_algebra("name: x\ngraded: yes\ncentral: no\n0 1 -> 2:1\n")


def test_load_rejects_unordered_pair():
    with pytest.raises(FormatError):
        load_algebra("name: x\ngraded: no\ncentral: no\n1 0 -> 1:1\n")


def test_witt_round_trips_through_document():
    win = Window(-3, 3)
    reloaded = load_algebra(dump_algebra(WITT, win))
    for i in win.indices():
        for j in win.indices():
            assert reloaded.bracket_rule(i, j) == WITT.bracket_rule(i, j)


def test_virasoro_round_trips_through_document():
    win = Window(-3, 3)
    reloaded = load_algebra(dump_algebra(VIR, win))
    for i in win.indices():
        for j in win.indices():
            assert reloaded.bracket_rule(i, j) == VIR.bracket_rule(i, j)


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 15))
def test_jacobi_small_windows(h):
    assert check_jacobi(WITT, Window(-h, h)).is_clean


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-4, 3), st.integers(-3, 4),
              st.integers(-4, 4), st.fractions(min_value=-5, max_value=5, max_denominator=6)),
    max_size=8))
def test_dump_load_round_trip_random_tables(records):
    # arbitrary antisymmetric tables (not necessarily Lie brackets) survive
    # serialization; the loader does not silently alter any bracket value
    table = {}
    for i, j, k, v in records:
        if i >= j or v == 0 or not (-4 <= k <= 4):
            continue
        table.setdefault((i, j), {})[k] = v
    from wittcoh.algebra import GradedLieAlgebra

    def rule(a, b):
        if a == b:
            return {}
        if a < b:
            return table.get((a, b), {})
        return {k: -v for k, v in table.get((b, a), {}).items()}

    alg = GradedLieAlgebra("scratch", rule, has_central=False, graded=False)
    win = Window(-4, 4)
    again = load_algebra(dump_algebra(alg, win))
    for i in win.indices():
        for j in win.indices():
            assert again.bracket_rule(i, j) == alg.bracket_rule(i, j)


def test_load_zero_coefficient_brackets_to_nothing():
    alg = load_algebra("name: x\ngraded: no\ncentral: no\n0 1 -> 1:0\n0 2 -> 2:1\n")
    assert alg.bracket_rule(0, 1) == {}
    assert alg.bracket_rule(1, 0) == {}
    assert dump_algebra(alg, Window(0, 2)) == "name: x\ngraded: no\ncentral: no\n0 2 -> 2:1\n"


def test_load_central_header_after_records():
    alg = load_algebra("name: x\ngraded: yes\n-1 1 -> 0:2, c:1\ncentral: yes\n")
    assert alg.bracket_rule(-1, 1) == {0: 2, CENTRAL: 1}
    with pytest.raises(FormatError, match="declaring central: no"):
        load_algebra("name: x\ngraded: yes\n-1 1 -> 0:2, c:1\ncentral: no\n")


def test_jacobi_report_text_mixes_indexed_and_central_terms():
    doc = dump_algebra(VIR, Window(-6, 6))
    corrupted = doc.replace("-2 2 -> 0:4, c:1/2", "-2 2 -> 0:5, c:1/3")
    assert corrupted != doc
    assert str(check_jacobi(load_algebra(corrupted), Window(-3, 3))) == (
        "jacobi[virasoro on [-3,3]]: 6 defect(s)\n"
        "  (-3, -2, 2): -3*e_-3\n"
        "  (-3, 1, 2): 4*e_0 + -2/3*c\n"
        "  (-2, -1, 2): 1*e_-1\n"
        "  (-2, -1, 3): -4*e_0 + 2/3*c\n"
        "  (-2, 1, 2): -1*e_1\n"
        "  (-2, 2, 3): 3*e_3"
    )
