from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from wittcoh import cochains
from wittcoh.algebra import Window, dump_algebra, load_algebra, make_virasoro, make_witt
from wittcoh.cochains import (
    ADJOINT,
    CENTRAL_TARGET,
    TRIVIAL,
    Cochain,
    MixedCochain,
    basis_tuples,
    bracket_raises,
    cocycle_violation,
    delta_matrix,
    differential,
    omitted_count,
    weight_components,
)
from wittcoh.errors import ConfigError, OutOfWindowError

from helpers import (
    _delta_terms,
    _LeftWindow,
    cochain_from_function,
    never_leaves_window,
    random_cochain,
    random_mixed_cocycle,
    random_scalar,
    reference_delta_matrix,
    truncated_coboundary,
)

WITT = make_witt()
W8 = Window(-8, 8)
W10 = Window(-10, 10)


def diagonal(b_values, window=W8):
    """Weight-0 1-cochain b(e_i) = b_i e_i."""
    return Cochain(1, 0, window, ADJOINT, {(i,): v for i, v in b_values.items() if v})


# -- evaluation --------------------------------------------------------------


def test_evaluate_antisymmetry():
    c = Cochain(2, 1, W8, ADJOINT, {(2, 3): 5})
    assert c.component(3, 2) == -5
    assert c.component(2, 3) == 5


def test_cochains_reject_a_float_coefficient():
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Cochain(1, 0, W8, ADJOINT, {(3,): 0.5})
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        MixedCochain(1, W8, {(3,): {4: 2 / 3}})


def test_evaluate_repeated_arguments():
    c = Cochain(2, 0, W8, ADJOINT, {(2, 3): 5})
    assert c.component(2, 2) == 0


def test_evaluate_diagonal_one_cochain():
    b = diagonal({i: Fraction(i) for i in W8.indices()})
    assert b.component(4) == 4


def test_evaluate_out_of_window():
    c = Cochain(2, 0, W8, ADJOINT, {(2, 3): 5})
    with pytest.raises(OutOfWindowError):
        c.component(9, 2)


def test_basis_is_lexicographic():
    tuples = basis_tuples(2, 0, Window(-2, 2))
    assert tuples == sorted(tuples)


# -- the differential against hand-expanded formulas -------------------------


def test_delta_diagonal_matches_closed_form():
    rng = Random(7)
    b_vals = {i: Fraction(rng.randint(-5, 5)) for i in W8.indices()}
    b = diagonal(b_vals)
    db = differential(WITT, b)
    # delta b(e_i, e_j) = (j - i)(b_{i+j} - b_i - b_j) e_{i+j}
    for (i, j) in [(-2, 2), (0, 1), (-1, 1), (-2, 1), (2, 1), (3, 1), (4, 1)]:
        expect = (j - i) * (b_vals[i + j] - b_vals[i] - b_vals[j])
        assert db.component(i, j) == expect


def test_delta_at_minus2_2_is_the_4b_formula():
    b = diagonal({-2: Fraction(3), 0: Fraction(5), 2: Fraction(-1)})
    db = differential(WITT, b)
    assert db.component(-2, 2) == 4 * (5 - (-1) - 3)


def test_delta_of_degree_zero_is_ad():
    x = Cochain(0, 0, W8, ADJOINT, {(): 1})  # the 0-cochain e_0
    dx = differential(WITT, x)
    for i in W8.indices():
        assert dx.component(i) == i


def test_six_term_equation_is_verbatim():
    rng = Random(23)
    c = random_cochain(rng, 2, 0, W10, fill=0.7)

    def cc(a, b):
        return c.component(a, b)

    dc = differential(WITT, c)
    checked = 0
    for (i, j, k) in [(-3, 1, 2), (-5, 2, 3), (-1, 3, 4), (-6, -2, 7), (1, 2, 3)]:
        lhs = dc.component(i, j, k)
        rhs = (
            (j - i) * cc(i + j, k)
            + (k - j) * cc(j + k, i)
            + (i - k) * cc(k + i, j)
            + (j - i + k) * cc(k, j)
            + (j - i - k) * cc(k, i)
            - (i + j - k) * cc(i, j)
        )
        assert lhs == rhs
        checked += 1
    assert checked == 5


def test_delta_squared_zero_weight_zero():
    rng = Random(11)
    for _ in range(50):
        b = random_cochain(rng, 1, 0, W8, fill=0.5)
        dd = differential(WITT, differential(WITT, b))
        for t, v in dd.entries.items():
            if never_leaves_window(t, 0, W8):
                assert v == 0
        assert all(v == 0 for t, v in dd.entries.items() if never_leaves_window(t, 0, W8))


def test_delta_squared_zero_nonzero_weights():
    rng = Random(13)
    for d in (-3, -1, 1, 2, 4):
        for _ in range(10):
            x = random_cochain(rng, 0, d, W10, fill=1.0)
            ddx = differential(WITT, differential(WITT, x))
            assert all(v == 0 for t, v in ddx.entries.items() if never_leaves_window(t, d, W10))
            b = random_cochain(rng, 1, d, W10, fill=0.5)
            dd = differential(WITT, differential(WITT, b))
            assert all(v == 0 for t, v in dd.entries.items() if never_leaves_window(t, d, W10))


def test_differential_rejects_degree_three():
    c = Cochain(3, 0, W8, ADJOINT, {(0, 1, 2): 1})
    with pytest.raises(ValueError):
        differential(WITT, c)


def test_differential_preserves_weight_and_reports_omissions():
    rng = Random(5)
    c = random_cochain(rng, 1, 3, W8, fill=0.8)
    dc = differential(WITT, c)
    assert dc.weight == 3 and dc.degree == 2
    # near the upper edge some pairs must have been dropped, and they are listed
    omitted = delta_matrix(WITT, 1, 3, W8)[2]
    assert omitted and all(isinstance(t, tuple) and len(t) == 2 for t in omitted)


def test_mixed_cochain_checks_the_tuple_length():
    with pytest.raises(ValueError, match=r"tuple \(3,\) has 1 arguments, expected 2"):
        MixedCochain(2, W8, {(3,): {4: 1}})
    with pytest.raises(ValueError, match="not strictly increasing"):
        MixedCochain(2, W8, {(3, 1): {4: 1}})
    with pytest.raises(OutOfWindowError):
        MixedCochain(2, W8, {(3, 9): {4: 1}})
    with pytest.raises(OutOfWindowError, match="not admissible"):
        Cochain(2, 0, W8, ADJOINT, {(3,): 1})


# -- weight decomposition -----------------------------------------------------


def test_weight_components_pure_input():
    rng = Random(3)
    c = random_cochain(rng, 2, 0, W8, fill=0.5)
    mixed = MixedCochain.from_cochain(c)
    parts = weight_components(mixed)
    assert list(parts) == [0]
    assert parts[0] == c


def test_weight_components_two_weights():
    a = Cochain(2, 0, W8, ADJOINT, {(1, 2): 1})
    b = Cochain(2, 3, W8, ADJOINT, {(1, 2): 2})
    mixed = MixedCochain.from_components(2, W8, [a, b])
    parts = weight_components(mixed)
    assert sorted(parts) == [0, 3]
    assert parts[0] == a and parts[3] == b
    assert MixedCochain.from_components(2, W8, parts.values()) == mixed


def test_delta_commutes_with_weight_decomposition():
    rng = Random(17)
    win = Window(-6, 6)
    for _ in range(5):
        comps = {d: random_cochain(rng, 1, d, win, fill=0.5) for d in (-2, 0, 1)}
        mixed = MixedCochain.from_components(1, win, comps.values())
        split = weight_components(mixed)
        for d, part in split.items():
            assert differential(WITT, part) == differential(WITT, comps[d])


# -- trivial coefficients ------------------------------------------------------


def central_candidate(window):
    def fn(n, m):
        return Fraction(m**3 - m) if n == -m else Fraction(0)

    return cochain_from_function(fn, 2, 0, window, TRIVIAL)


def test_central_extension_shape_is_a_cocycle():
    omega = central_candidate(W10)
    d_omega = differential(WITT, omega)
    assert d_omega.is_zero
    # every summing-to-zero triple stays interior
    assert not delta_matrix(WITT, 2, 0, W10, TRIVIAL)[2]


def test_coboundary_direction_is_a_cocycle_and_a_coboundary():
    def fn(n, m):
        return Fraction(m - n) if n == -m else Fraction(0)

    omega = cochain_from_function(fn, 2, 0, W10, TRIVIAL)
    assert differential(WITT, omega).is_zero
    phi = Cochain(1, 0, W10, TRIVIAL, {(0,): 1})
    assert differential(WITT, phi) == omega


def test_non_antisymmetric_shape_rejected():
    def fn(n, m):
        return Fraction(m * m) if n == -m else Fraction(0)

    with pytest.raises(ValueError):
        cochain_from_function(fn, 2, 0, W10, TRIVIAL)


def test_antisymmetry_checked_on_every_tuple():
    def fn(i, j):
        return Fraction(abs(j - i)) if (i, j) == (7, 5) else Fraction(j - i)

    assert len(basis_tuples(2, 0, Window(-12, 12))) == 228
    with pytest.raises(ValueError, match=r"not antisymmetric at \(7, 5\)"):
        cochain_from_function(fn, 2, 0, Window(-12, 12))


def test_delta_squared_zero_trivial_coefficients():
    rng = Random(29)
    for d in (0, 1, -2):
        for _ in range(10):
            x = random_cochain(rng, 0, d, W10, TRIVIAL, fill=1.0)
            ddx = differential(WITT, differential(WITT, x))
            assert all(v == 0 for t, v in ddx.entries.items() if never_leaves_window(t, d, W10))
            b = random_cochain(rng, 1, d, W10, TRIVIAL, fill=0.9)
            dd = differential(WITT, differential(WITT, b))
            assert all(v == 0 for t, v in dd.entries.items() if never_leaves_window(t, d, W10))


def test_mixed_cocycle_generator_is_honest():
    rng = Random(37)
    mixed = random_mixed_cocycle(rng, WITT, 1, (0, 1, 3), W10)
    assert mixed.degree == 2
    assert set(weight_components(mixed)) <= {0, 1, 3}


def test_adjoint_differential_rejects_central_targets():
    vir = make_virasoro()
    c = Cochain(1, 0, W8, ADJOINT, {(2,): 1, (-2,): 1})
    with pytest.raises(ConfigError, match="central targets"):
        differential(vir, c)


# -- the builder against its term-by-term reference ------------------------------


def _algebra_document(name, coefficient, span=12, graded="yes"):
    """A structure-constants document with [e_i, e_j] = coefficient(i, j) on [-span, span]."""
    lines = [f"name: {name}", f"graded: {graded}", "central: no"]
    for i in range(-span, span + 1):
        for j in range(i + 1, span + 1):
            terms = ", ".join(f"{k}:{v}" for k, v in coefficient(i, j).items())
            lines.append(f"{i} {j} -> {terms}")
    return load_algebra("\n".join(lines) + "\n")


# rational, antisymmetric, never zero; not a Lie algebra, which delta_matrix never asks for
RATIONAL = _algebra_document("rational", lambda i, j: {i + j: Fraction((j - i) * (i * i + j * j + 1), 3)})
# targets off the grading, which delta_matrix must refuse
UNGRADED = _algebra_document("ungraded", lambda i, j: {i + j + 1: j - i}, graded="no")


def _build(builder, *args):
    """Everything a delta_matrix build gives, in order, or the error it raises."""
    try:
        matrix, rows, omitted = builder(*args)
    except (ConfigError, ValueError, KeyError) as exc:  # compared by type and message
        return type(exc), str(exc)
    return matrix.n_cols, [list(row.items()) for row in matrix], rows, omitted


@pytest.mark.parametrize("alg", [WITT, RATIONAL], ids=["witt", "rational"])
@pytest.mark.parametrize("coeffs", [ADJOINT, TRIVIAL])
@pytest.mark.parametrize("h", [8, 9])
def test_delta_matrix_matches_the_term_by_term_reference(alg, coeffs, h):
    window = Window(-h, h)
    omitted = 0
    for q in (0, 1, 2):
        for d in range(-3, 4):
            got = _build(delta_matrix, alg, q, d, window, coeffs)
            assert got == _build(reference_delta_matrix, alg, q, d, window, coeffs), (q, d)
            omitted += len(got[-1])
    assert omitted  # the window edge is exercised


@pytest.mark.parametrize("alg", [make_virasoro(), UNGRADED], ids=["virasoro", "ungraded"])
def test_delta_matrix_refuses_like_the_reference(alg):
    errors = set()
    for coeffs in (ADJOINT, TRIVIAL):
        for q in (0, 1, 2):
            for d in (-1, 0, 2):
                got = _build(delta_matrix, alg, q, d, W8, coeffs)
                assert got == _build(reference_delta_matrix, alg, q, d, W8, coeffs)
                if isinstance(got[0], type):
                    errors.add(got)
    expected = {"virasoro": (ConfigError, "differential needs bracket values inside the "
                             "indexed span; central targets are not supported as cochain arguments"),
                "ungraded": (ValueError, "bracket is not graded")}[alg.name]
    assert errors and all(t is expected[0] and msg.startswith(expected[1]) for t, msg in errors)


ABELIAN = load_algebra("name: abelian\ngraded: yes\ncentral: no\n")


def _count(builder, *args):
    """The number of omitted tuples a build or count gives, or the error it raises."""
    try:
        got = builder(*args)
    except (ConfigError, ValueError) as exc:  # compared by type and message
        return type(exc), str(exc)
    return got if isinstance(got, int) else len(got[2])


@pytest.mark.parametrize("alg", [WITT, RATIONAL, ABELIAN, make_virasoro(), UNGRADED],
                         ids=["witt", "rational", "abelian", "virasoro", "ungraded"])
def test_omitted_count_is_the_builders_count_and_raises_its_errors(alg):
    outcomes = set()
    for window in (W8, Window(-9, 5), Window(-12, 12)):
        for q in (0, 1, 2):
            for coeffs in (ADJOINT, TRIVIAL):
                for d in range(-6, 7):
                    got = _count(omitted_count, alg, q, d, window, coeffs)
                    assert got == _count(delta_matrix, alg, q, d, window, coeffs), (window, q, d)
                    outcomes.add(got if isinstance(got, int) else got[0])
    # every algebra reaches the window edge; only the last two refuse, and their
    # windows are the ones where a bracket raises
    assert any(isinstance(n, int) and n > 0 for n in outcomes)
    assert (alg.name in ("virasoro", "ungraded")) == bool(outcomes & {ConfigError, ValueError})
    assert {bracket_raises(alg, w) for w in (W8, Window(-9, 5), Window(-12, 12))} == {
        alg.name in ("virasoro", "ungraded")}


def test_a_central_value_read_after_the_window_edge_is_not_an_error():
    # only [e_-8, e_8] holds c; the one trivial 3-tuple of weight 3 that reads it,
    # (-8, -3, 8), first reads [e_-8, e_-3] = 5 e_-11, outside [-8,8], so it is omitted;
    # at weight -3, (-8, 3, 8) reads [e_-8, e_3] = 11 e_-5 first and raises
    text = dump_algebra(WITT, W8).replace("central: no", "central: yes")
    alg = load_algebra(text.replace("\n-8 8 -> 0:16\n", "\n-8 8 -> 0:16, c:42\n"))
    for d in (3, -3):
        assert _count(omitted_count, alg, 2, d, W8, TRIVIAL) == _count(delta_matrix, alg, 2, d, W8,
                                                                        TRIVIAL)
    assert isinstance(_count(omitted_count, alg, 2, 3, W8, TRIVIAL), int)
    assert _count(omitted_count, alg, 2, -3, W8, TRIVIAL)[0] is ConfigError


def test_omitted_count_builds_no_row_where_no_bracket_raises(monkeypatch):
    cases = [(alg, q, d, window, coeffs) for alg in (WITT, ABELIAN)
             for window in (W8, Window(-12, 12)) for q in (0, 1, 2)
             for coeffs in (ADJOINT, TRIVIAL) for d in range(-6, 7)]
    expected = [len(delta_matrix(*case)[2]) for case in cases]
    assert any(expected)

    def build(*args, **kwargs):
        raise AssertionError("omitted_count built rows")

    monkeypatch.setattr(cochains, "delta_matrix", build)
    assert [omitted_count(*case) for case in cases] == expected
    # central brackets on a Virasoro trivial window: the build counts it
    built = []
    monkeypatch.setattr(cochains, "delta_matrix",
                        lambda *args: built.append(args) or delta_matrix(*args))
    case = (make_virasoro(), 1, 5, Window(-12, 12), TRIVIAL)
    assert omitted_count(*case) == len(delta_matrix(*case)[2])
    assert built == [case]


def test_two_algebras_on_one_window_read_their_own_bracket_tables():
    # one name and one window, two brackets: the tables are kept per algebra object
    text = dump_algebra(WITT, W8)
    plain = load_algebra(text)
    perturbed = load_algebra(text.replace("\n1 2 -> 3:1\n", "\n1 2 -> 3:2\n"))
    assert plain.name == perturbed.name
    builds = []
    for alg in (plain, perturbed, plain, perturbed):
        for q in (1, 2):
            got = _build(delta_matrix, alg, q, 0, W8, ADJOINT)
            assert got == _build(reference_delta_matrix, alg, q, 0, W8, ADJOINT), (alg, q)
            builds.append(got)
    assert builds[:2] != builds[2:4] and builds[:4] == builds[4:]


@pytest.mark.parametrize("alg, expected", [
    (make_virasoro(), (ConfigError, CENTRAL_TARGET)),
    (UNGRADED, (ValueError, "bracket is not graded: [e_-8, e_0] hit e_-7"))],
    ids=["virasoro", "ungraded"])
def test_an_error_read_twice_is_raised_twice_with_one_message(alg, expected):
    raised = []
    for builder in (delta_matrix, omitted_count, delta_matrix):
        with pytest.raises(expected[0]) as info:
            builder(alg, 1, 0, W8, ADJOINT)
        raised.append(info.value)
    assert [str(exc) for exc in raised] == [expected[1]] * 3
    assert len({id(exc) for exc in raised}) == 3  # a fresh exception each time
    assert all(exc.__context__ is None for exc in raised)


# -- the first failure of the cocycle condition -----------------------------------

W6 = Window(-6, 6)


def reference_violation(parts):
    """Per weight in increasing order, the first interior tuple in basis order
    where delta of the part, expanded term by term, is nonzero; `parts` maps
    weights to single-weight cochains."""
    for d in sorted(parts):
        part = parts[d]
        for xs in basis_tuples(part.degree + 1, d, part.window, part.coeffs):
            try:
                reads = _delta_terms(WITT, part.degree, d, part.window, part.coeffs, xs)
            except _LeftWindow:
                continue
            if sum(v * part.entries.get(ref, 0) for ref, v in reads):
                return d, xs
    return None


@st.composite
def violation_cases(draw):
    """(cochain, weight -> single-weight parts, is a cocycle) on [-6,6]."""
    rng = Random(draw(st.integers(0, 2**32)))
    q = draw(st.sampled_from([1, 2]))
    mixed = draw(st.booleans())
    coeffs = ADJOINT if mixed else draw(st.sampled_from([ADJOINT, TRIVIAL]))
    weights = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3 if mixed else 1,
                            unique=True))
    parts = {d: truncated_coboundary(rng, WITT, q - 1, d, W6, coeffs)[1] for d in weights}
    perturbed = draw(st.booleans())
    if perturbed:
        for d in weights:
            tuples = basis_tuples(q, d, W6, coeffs)
            extra = {t: random_scalar(rng) for t in rng.sample(tuples, min(2, len(tuples)))}
            parts[d] = parts[d] + Cochain(q, d, W6, coeffs, extra)
    if mixed:
        c = MixedCochain.from_components(q, W6, parts.values())
        parts = weight_components(c)
    else:
        c = parts[weights[0]]
    return c, parts, not perturbed


@given(violation_cases())
@settings(max_examples=80, deadline=None)
def test_cocycle_violation_matches_the_differential(case):
    c, parts, cocycle = case
    got = cocycle_violation(WITT, c)
    assert got == reference_violation(parts)
    if cocycle:
        assert got is None
