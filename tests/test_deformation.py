from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial, gcd
from random import Random

import pytest

from wittcoh import cochains, linalg
from wittcoh.algebra import (CENTRAL, GradedLieAlgebra, Window, load_algebra, make_virasoro,
                             make_witt)
from wittcoh.cochains import (ADJOINT, LOST, TRIVIAL, Cochain, MixedCochain, basis_tuples,
                              delta_matrix, differential, omitted_count, weight_components,
                              window_context)
from wittcoh.cohomology import coboundary_primitive, cohomology_dim, comparison_tuples
from wittcoh.deformation import (
    DeformedBracket,
    Equivalence,
    conjugate,
    jacobi_defect,
    parse_deformation,
    render_deformation,
    trivialize,
)
from wittcoh.errors import BoundaryError, ConfigError, FormatError, NotACocycleError

from helpers import (
    _evaluate_order,
    compose,
    fraction_conjugate,
    fraction_jacobi_defect,
    invert,
    random_cochain,
    random_equivalence,
    random_mixed_layer,
    reference_primitive,
    single_stage,
)

WITT = make_witt()
W12 = Window(-12, 12)
W8 = Window(-8, 8)
W9 = Window(-9, 9)


def mixed_coboundary(rng, window, weights, order_fill=0.35):
    parts = [random_cochain(rng, 1, d, window, fill=order_fill) for d in weights]
    phi = MixedCochain.from_components(1, window, parts)
    return phi


@pytest.fixture
def fresh_systems():
    """Empty the window contexts, which hold `coboundary_primitive`'s comparison sets
    and systems, before and after the test, so that a count sees every build and no
    matrix selected under a patched `_select` outlives the test."""
    window_context.cache_clear()
    yield
    window_context.cache_clear()


def random_unipotent(rng, window, order, weight_pool=(-1, 0, 1)):
    layers = []
    for _ in range(order):
        ws = rng.sample(weight_pool, k=2)
        layers.append(mixed_coboundary(rng, window, ws))
    return Equivalence(order, window, tuple(layers))


# -- jacobi defects ---------------------------------------------------------------


def test_coboundary_layer_is_clean_at_order_one():
    rng = Random(1)
    b = random_cochain(rng, 1, 0, W12, fill=0.4)
    mu1 = MixedCochain.from_cochain(differential(WITT, b))
    d = DeformedBracket(1, WITT, W12, (mu1,))
    assert jacobi_defect(d, W8).clean


def test_non_cocycle_layer_defect_equals_delta():
    mu1 = MixedCochain(2, W12, {(1, 2): {3: 1}, (1, 3): {4: 2}})
    d = DeformedBracket(1, WITT, W12, (mu1,))
    report = jacobi_defect(d, W8)
    assert not report.clean
    bad = report.first_unclean()
    assert bad.order == 1
    # the reported defect is exactly delta(mu_1) at that triple
    from wittcoh.cochains import weight_components

    total = {}
    for wt, comp in weight_components(mu1).items():
        dc = differential(WITT, comp)
        v = dc.entries.get(bad.triple)
        if v:
            total[sum(bad.triple) + wt] = v
    assert bad.defect == total


def test_virasoro_trivial_base_is_clean():
    vir = make_virasoro()
    d = DeformedBracket.trivial(vir, Window(-6, 6), 0)
    report = jacobi_defect(d, Window(-6, 6))
    assert report.clean
    assert report.orders[0].order == 0


# -- conjugation --------------------------------------------------------------------


def test_conjugate_by_identity_is_identity():
    rng = Random(3)
    mu1 = MixedCochain.from_cochain(differential(WITT, random_cochain(rng, 1, 0, W12, fill=0.3)))
    d = DeformedBracket(2, WITT, W12, (mu1, MixedCochain(2, W12)))
    same = conjugate(d, Equivalence.identity(W12, 2))
    assert same.layers[0] == d.layers[0]
    assert same.layers[1] == d.layers[1]
    assert not same.omitted_pairs


def test_conjugate_trivial_gives_minus_delta_at_order_one():
    # under this differential convention, phi = id + t b transports the trivial
    # bracket to one with first-order layer -delta(b)
    rng = Random(4)
    b = random_cochain(rng, 1, 0, W12, fill=0.4)
    conj = conjugate(DeformedBracket.trivial(WITT, W12, 1),
                     single_stage(W12, 1, 1, MixedCochain.from_cochain(b)))
    db = differential(WITT, b)
    for t, v in db.entries.items():
        if t in conj.omitted_pairs:
            continue
        assert conj.layers[0].entries.get(t, {}).get(sum(t), Fraction(0)) == -v


def test_conjugate_then_inverse_restores_on_core():
    rng = Random(5)
    e = random_unipotent(rng, W12, 2)
    d = DeformedBracket.trivial(WITT, W12, 2)
    there = conjugate(d, e)
    back = conjugate(there, invert(e))
    core = W12.core(6)
    for s in range(2):
        assert back.layers[s].restrict(core).is_zero


def test_conjugation_is_a_group_action_on_the_core():
    rng = Random(6)
    e1 = random_unipotent(rng, W12, 2)
    e2 = random_unipotent(rng, W12, 2)
    d = DeformedBracket.trivial(WITT, W12, 2)
    two_step = conjugate(conjugate(d, e1), e2)
    one_step = conjugate(d, compose(e1, e2))
    core = W12.core(6)
    for s in range(2):
        lhs = two_step.layers[s].restrict(core)
        rhs = one_step.layers[s].restrict(core)
        for t in set(lhs.entries) | set(rhs.entries):
            if t in two_step.omitted_pairs or t in one_step.omitted_pairs:
                continue
            assert lhs.entries.get(t, {}) == rhs.entries.get(t, {}), (s, t)


def test_conjugate_rejects_central_targets():
    # phi = id + t b with b(e_2) = e_2, b(e_-2) = e_-2 sends [e_-2, e_2] to a
    # first-order layer with a nonzero central coefficient
    w6 = Window(-6, 6)
    b = MixedCochain(1, w6, {(2,): {2: 1}, (-2,): {-2: 1}})
    with pytest.raises(ConfigError, match="central targets"):
        conjugate(DeformedBracket.trivial(make_virasoro(), w6, 1), single_stage(w6, 1, 1, b))


# -- the integer tables against the Fraction references ----------------------------------


W7 = Window(-7, 7)


def random_bracket(rng, alg, window, order, weights=(-1, 0, 1), fill=0.15):
    return DeformedBracket(order, alg, window, tuple(
        random_mixed_layer(rng, 2, window, weights, fill) for _ in range(order)))


def assert_matches_references(d, e, check_windows):
    """jacobi_defect and conjugate equal their Fraction references on d (and d by e)."""
    for window in check_windows:
        got, want = jacobi_defect(d, window), fraction_jacobi_defect(d, window)
        assert [(o.order, o.clean, o.triple, o.defect, o.skipped) for o in got.orders] == \
            [(o.order, o.clean, o.triple, o.defect, o.skipped) for o in want.orders]
        assert got == want
    try:
        want = fraction_conjugate(d, e)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=str(exc)):
            conjugate(d, e)
        return
    got = conjugate(d, e)
    assert got.layers == want.layers
    assert got.omitted_pairs == want.omitted_pairs


@pytest.mark.parametrize("seed", range(3))
def test_mixed_denominator_layers_match_references(seed):
    rng = Random(100 + seed)
    order = 2 + seed
    d = random_bracket(rng, WITT, W7, order)
    assert any(v.denominator == 7 for layer in d.layers
               for outs in layer.entries.values() for v in outs.values())
    assert_matches_references(d, random_equivalence(rng, W7, order), (W7, W7.core(2)))


def test_jacobi_defective_layers_match_references():
    rng = Random(110)
    for order in (1, 3):
        d = random_bracket(rng, WITT, W8, order, weights=(-2, 2), fill=0.1)
        assert not jacobi_defect(d, W8).clean
        assert_matches_references(d, random_equivalence(rng, W8, order), (W8,))


def test_virasoro_central_term_matches_references():
    vir = make_virasoro()
    w6 = Window(-6, 6)
    rng = Random(120)
    d = random_bracket(rng, vir, w6, 2, weights=(-2, 0, 2), fill=0.3)
    # the truncated automorphism e_i -> exp(t i) e_i keeps every central target
    # at order 0; a random equivalence deforms one (ConfigError on both sides)
    auto = Equivalence(2, w6, tuple(
        MixedCochain(1, w6, {(i,): {i: Fraction(i ** v, 1 + v // 2)} for i in w6.indices()})
        for v in (1, 2)))
    assert_matches_references(d, auto, (w6, w6.core(1)))
    assert_matches_references(d, random_equivalence(rng, w6, 2), ())
    # [mu_1(e_1, e_2), e_-3] = 1/7 [e_3, e_-3] has the central term -2/7 c
    one = DeformedBracket(1, vir, w6, (MixedCochain(2, w6, {(1, 2): {3: Fraction(1, 7)}}),))
    bad = jacobi_defect(one, Window(-3, 3)).first_unclean()
    assert bad.triple == (-3, 1, 2) and bad.defect[CENTRAL] == Fraction(-2, 7)
    assert_matches_references(one, Equivalence(1, w6, auto.layers[:1]), (Window(-3, 3),))


def test_a_pair_lost_below_its_central_order_is_omitted():
    # phi_1 sends e_1 -> e_3 and e_2 -> e_-3: mu_0(phi_1 e_1, phi_1 e_2) is central at
    # order 2, and [e_-3, phi_1 e_1], [phi_1 e_2, e_3] at order 1; those pairs are lost
    # at order 1 already, so they are omitted rather than refused
    vir = make_virasoro()
    w6 = Window(-6, 6)
    lost = frozenset({(-3, 1), (1, 2), (2, 3)})
    d = DeformedBracket(2, vir, w6, DeformedBracket.trivial(vir, w6, 2).layers, lost)
    e = single_stage(w6, 2, 1, MixedCochain(1, w6, {(1,): {3: 1}, (2,): {-3: 1}}))
    assert lost <= fraction_conjugate(d, e).omitted_pairs
    assert_matches_references(d, e, ())


def test_brackets_with_omitted_pairs_match_references():
    rng = Random(130)
    once = conjugate(DeformedBracket.trivial(WITT, W7, 3), random_equivalence(rng, W7, 3))
    assert once.omitted_pairs
    assert_matches_references(once, random_equivalence(rng, W7, 3), (W7, W7.core(1)))
    d = random_bracket(rng, WITT, W7, 2)
    marked = DeformedBracket(2, WITT, W7, d.layers, frozenset({(-3, 1), (0, 2), (2, 5)}))
    assert_matches_references(marked, random_equivalence(rng, W7, 2), (W7,))


@pytest.mark.parametrize("s", [2, 3])
def test_single_stage_conjugates_match_references(s):
    # a trivialize stage id + t^s phi_s keeps the layers below s, minus the pairs it
    # newly omits, on a bracket that carries omitted pairs already
    rng = Random(150 + s)
    d = conjugate(DeformedBracket.trivial(WITT, W7, 3), random_equivalence(rng, W7, 3))
    e = single_stage(W7, 3, s, random_mixed_layer(rng, 1, W7, (-2, 2), 0.3))
    assert_matches_references(d, e, (Window(-6, 4),))
    got = conjugate(d, e)
    assert d.omitted_pairs and got.omitted_pairs > d.omitted_pairs
    for layer, before in zip(got.layers[:s - 1], d.layers):
        assert layer.entries == {t: o for t, o in before.entries.items()
                                 if t not in got.omitted_pairs}


def assert_defining_identity(d, e):
    """phi(mu'(x, y)) = mu(phi x, phi y) order by order on every pair that
    conjugate(d, e) keeps, with no inverse series: for s = 0..N,
    sum_u phi_u(mu'_{s-u}(e_i, e_j)) = sum_{r+v+w=s} mu_r(phi_v e_i, phi_w e_j)."""
    conj = conjugate(d, e)
    N = d.order
    images = {i: [e.apply_order(v, {i: 1}) for v in range(N + 1)] for i in d.window.indices()}

    def summed(parts):
        total = {}
        for part in parts:
            for k, c in part.items():
                total[k] = total.get(k, 0) + c
        return {k: c for k, c in total.items() if c}

    kept = 0
    for i in d.window.indices():
        for j in range(i + 1, d.window.hi + 1):
            if (i, j) in conj.omitted_pairs:
                continue
            kept += 1
            new = [_evaluate_order(conj, s, {i: 1}, {j: 1}) for s in range(N + 1)]
            for s in range(N + 1):
                lhs = summed(e.apply_order(u, new[s - u]) for u in range(s + 1))
                rhs = summed(_evaluate_order(d, r, images[i][v], images[j][s - r - v])
                             for r in range(s + 1) for v in range(s - r + 1))
                assert lhs == rhs, (i, j, s)
    assert kept


def test_conjugate_solves_the_defining_identity():
    rng = Random(170)
    for order in range(1, 5):
        start = DeformedBracket.trivial(WITT, W9, order)
        once = conjugate(start, random_equivalence(rng, W9, order))
        assert once.omitted_pairs
        assert_defining_identity(start, random_equivalence(rng, W9, order))
        assert_defining_identity(once, random_equivalence(rng, W9, order))
    # e_i -> exp(t i) e_i: the order-0 terms mu_0(e_i, e_-i) are central, and phi moves
    # no central term
    vir = make_virasoro()
    w6 = Window(-6, 6)
    d = DeformedBracket(2, vir, w6, tuple(
        random_mixed_layer(rng, 2, w6, (0, 2), 0.3) for _ in range(2)))
    auto = Equivalence(2, w6, tuple(
        MixedCochain(1, w6, {(i,): {i: Fraction(i ** v, factorial(v))} for i in w6.indices()})
        for v in (1, 2)))
    assert_defining_identity(d, auto)


def test_skipped_count_stops_at_the_first_defective_row():
    # e_-3 ^ e_1 -> e_-2 is no cocycle, and its first order-1 defect lies in row -8;
    # the triples of the later rows that order 0 loses are not counted there
    d = DeformedBracket(1, WITT, W8, (MixedCochain(2, W8, {(-3, 1): {-2: 1}}),))
    report = jacobi_defect(d, W8)
    assert report.orders[1].triple[0] == -8
    assert report.orders[1].skipped < report.orders[0].skipped
    assert_matches_references(d, random_equivalence(Random(160), W8, 1), (W8, Window(-8, 6)))


def test_custom_rational_algebra_matches_references():
    # a graded algebra with random rational constants (not a Lie algebra, so
    # order 0 has its own defect) whose brackets leave [-4,4] at the edges
    rng = Random(140)
    lines = ["name: rational", "graded: yes", "central: no"]
    for i in range(-5, 6):
        for j in range(i + 1, 6):
            if rng.random() < 0.6:
                lines.append(f"{i} {j} -> {i + j}:{rng.randint(1, 9)}/{rng.choice((1, 2, 5, 7))}")
    alg = load_algebra("\n".join(lines) + "\n")
    w4 = Window(-4, 4)
    d = random_bracket(rng, alg, w4, 2, fill=0.3)
    assert not jacobi_defect(d, w4).orders[0].clean
    assert_matches_references(d, random_equivalence(rng, w4, 2), (w4, w4.core(1)))


# -- the series group laws ------------------------------------------------------------


def test_invert_single_layer_is_the_geometric_series():
    # phi = id + t b with b(e_i) = beta_i e_{i+1} has inverse layers psi_s = (-b)^s,
    # which send e_i to (-1)^s beta_i beta_{i+1} ... beta_{i+s-1} e_{i+s}
    b = random_cochain(Random(10), 1, 1, W12, fill=0.8)
    psi = invert(single_stage(W12, 6, 1, MixedCochain.from_cochain(b)))
    for s in range(1, 7):
        want = {}
        for i in W12.indices():
            coeff = Fraction((-1) ** s)
            for k in range(i, i + s):
                coeff *= b.entries.get((k,), 0)
            if coeff:
                want[(i,)] = {i + s: coeff}
        assert psi.layers[s - 1].entries == want, s
    assert not psi.layers[5].is_zero


def test_compose_with_inverse_is_identity():
    e = random_unipotent(Random(11), W12, 4)
    for series in (compose(e, invert(e)), compose(invert(e), e)):
        assert all(layer.is_zero for layer in series.layers)


# -- trivialization ------------------------------------------------------------------


def test_single_step_trivialization():
    rng = Random(7)
    b0 = random_cochain(rng, 1, 0, W12, fill=0.4)
    mu1 = MixedCochain.from_cochain(differential(WITT, b0))
    d = DeformedBracket(1, WITT, W12, (mu1,))
    res = trivialize(d, W12, margin=4)
    assert res.trivialized
    assert res.conjugated.layers[0].restrict(res.verification_core).is_zero
    # the recovered phi_1 agrees with b0 up to a cocycle (b_i = alpha*i) inside
    phi1 = res.equivalence.layers[0]
    core = W12.core(6)
    diffs = {}
    for i in core.indices():
        got = phi1.entries.get((i,), {}).get(i, 0)
        want = b0.component(i)
        diffs[i] = got - want
    slopes = {i: v / i for i, v in diffs.items() if i != 0}
    assert len(set(slopes.values())) == 1


def test_roundtrip_trivialization_order_three():
    rng = Random(8)
    for _ in range(3):
        e = random_unipotent(rng, W12, 3)
        d = conjugate(DeformedBracket.trivial(WITT, W12, 3), e)
        res = trivialize(d, W12, margin=4)
        assert res.trivialized
        assert res.verification_core == Window(-8, 8)


def test_trivialize_builds_each_weight_comparison_once(monkeypatch, fresh_systems):
    import wittcoh.cohomology as cohomology
    import wittcoh.deformation as deformation

    built, solved = [], []
    real_build, real_solve = cohomology.comparison_tuples, deformation.coboundary_primitive

    def build(alg, q, d, *args):
        built.append(d)
        return real_build(alg, q, d, *args)

    def solve(alg, c, *args, **kwargs):
        solved.append(c.weight)
        return real_solve(alg, c, *args, **kwargs)

    monkeypatch.setattr(cohomology, "comparison_tuples", build)
    monkeypatch.setattr(deformation, "coboundary_primitive", solve)
    e = random_unipotent(Random(8), W12, 3)
    res = trivialize(conjugate(DeformedBracket.trivial(WITT, W12, 3), e), W12, margin=4)
    assert res.trivialized
    assert sorted(built) == sorted(set(solved)) and len(solved) > len(built)


def test_trivialize_rejects_jacobi_unclean():
    mu1 = MixedCochain(2, W12, {(1, 2): {3: 1}})
    d = DeformedBracket(1, WITT, W12, (mu1,))
    with pytest.raises(NotACocycleError):
        trivialize(d, W12, margin=4)


def test_a_float_bracket_coefficient_is_refused_by_the_order_zero_table():
    # 0.5 is a binary fraction, not the rational 1/2: refused as cohomology_dim refuses it
    halved = GradedLieAlgebra("halved", lambda a, b: {a + b: 0.5 * (b - a)} if a != b else {})
    d = DeformedBracket.trivial(halved, W8, 1)
    for compute in (lambda: jacobi_defect(d, W8), lambda: trivialize(d, W8, margin=2)):
        with pytest.raises(TypeError, match="coefficient 0.5 is not an int or a Fraction"):
            compute()


def test_trivialize_rejects_weight_above_margin():
    # the comparison set is the whole core only for weights |w| <= margin; peeling
    # this trivial deformation with margin 2 used to leave a nonzero layer on the core
    w7 = Window(-7, 7)
    for wt in (3, -3):  # a negative weight prints as "weight -3", not "weight--3"
        b = MixedCochain.from_cochain(Cochain(1, wt, w7, ADJOINT, {(wt + 1,): 1}))
        d = conjugate(DeformedBracket.trivial(WITT, w7, 1), single_stage(w7, 1, 1, b))
        assert set(weight_components(d.layers[0])) == {wt}
        with pytest.raises(BoundaryError, match=f"^order 1 has a weight {wt} component.*>= 3"):
            trivialize(d, w7, margin=2)


ABELIAN2 = "name: abelian-plane\ngraded: yes\ncentral: no\n"


def test_obstruction_reported_for_nontrivial_class():
    alg = load_algebra(ABELIAN2)
    w01 = Window(0, 1)
    mu1 = MixedCochain(2, w01, {(0, 1): {1: 1}})
    d = DeformedBracket(1, alg, w01, (mu1,))
    assert jacobi_defect(d, w01).clean
    res = trivialize(d, w01, margin=0)
    assert not res.trivialized
    assert res.obstruction_order == 1
    assert res.obstruction is not None and not res.obstruction.is_zero
    assert str(res) == "obstructed at order 1: no primitive for the weight 0 component"
    lower = replace(res, obstruction=Cochain(2, -1, w01, ADJOINT, {(0, 1): 1}))
    assert str(lower) == "obstructed at order 1: no primitive for the weight -1 component"


# -- documents -------------------------------------------------------------------------


def test_deformation_document_round_trip():
    rng = Random(9)
    mu1 = MixedCochain.from_cochain(differential(WITT, random_cochain(rng, 1, 1, W8, fill=0.4)))
    mu2 = MixedCochain.from_cochain(differential(WITT, random_cochain(rng, 1, 0, W8, fill=0.4)))
    brackets = [DeformedBracket(2, WITT, W8, (mu1, mu2))]
    for alg in (WITT, make_virasoro()) * 3:  # random layers, not necessarily Jacobi-clean
        order = rng.randint(0, 3)
        brackets.append(DeformedBracket(order, alg, W8, tuple(
            random_mixed_layer(rng, 2, W8, rng.sample(range(-2, 3), 2), 0.2) for _ in range(order))))
    for d in brackets:
        again = parse_deformation(render_deformation(d))
        assert (again.order, again.window, again.algebra.name, again.layers, again.omitted_pairs) == (
            d.order, d.window, d.algebra.name, d.layers, frozenset())


def test_deformation_document_refuses_omitted_pairs():
    # conjugating by b(e_2) = 1/2 e_3, b(e_-3) = 3 e_-2 loses pairs at the window
    # edge; read back from a document they would count as zero brackets
    b = MixedCochain(1, W8, {(2,): {3: Fraction(1, 2)}, (-3,): {-2: 3}})
    d = conjugate(DeformedBracket.trivial(WITT, W8, 3), single_stage(W8, 3, 1, b))
    assert len(d.omitted_pairs) == 33 and jacobi_defect(d, W8).clean
    with pytest.raises(ConfigError, match=r"^cannot render a deformation with 33 omitted "
                                          r"pairs \(first \(-8, -7\)\)"):
        render_deformation(d)


def test_deformation_document_rejects_a_short_tuple():
    with pytest.raises(FormatError, match=r"^line 5: tuple \(3,\) has 1 arguments, expected 2$"):
        parse_deformation("algebra: witt\norder: 1\nwindow: -8:8\nlayer: 1\n(3) -> 4:1\n")


def test_deformation_document_names_the_line_of_a_pair_off_the_rule():
    head = "algebra: witt\norder: 1\nwindow: -8:8\nlayer: 1\n"
    with pytest.raises(FormatError, match=r"^line 5: tuple \(4, 3\) is not strictly increasing$"):
        parse_deformation(head + "(4,3) -> 7:1\n")
    with pytest.raises(FormatError, match=r"^line 5: tuple \(3, 9\) outside window \[-8,8\]$"):
        parse_deformation(head + "(3,9) -> 8:1\n")


def test_deformation_document_rejects_garbage():
    with pytest.raises(FormatError):
        parse_deformation("algebra: witt\norder: 1\nwindow: -4:4\nnot a line\n")
    with pytest.raises(FormatError):
        parse_deformation("algebra: witt\norder: 1\nwindow: -4:4\nlayer: 2\n(0,1) -> 1:1\n")
    with pytest.raises(FormatError):
        parse_deformation("algebra: nope\norder: 1\nwindow: -4:4\n")


def test_deformation_document_rejects_a_pair_repeated_in_one_layer():
    head = "algebra: witt\norder: 2\nwindow: -4:4\nlayer: 1\n(0,1) -> 1:2\n"
    with pytest.raises(FormatError, match=r"^line 6: duplicate pair \(0,1\) in layer 1$"):
        parse_deformation(head + "(0,1) -> 2:5\n")
    # the same pair in another layer is a different entry
    d = parse_deformation(head + "layer: 2\n(0,1) -> 2:5\n")
    assert [mu.entries for mu in d.layers] == [{(0, 1): {1: 2}}, {(0, 1): {2: 5}}]


def test_deformation_document_rejects_a_negative_order():
    with pytest.raises(FormatError, match="^order must be non-negative, got -1$"):
        parse_deformation("algebra: witt\norder: -1\nwindow: -4:4\n")
    assert parse_deformation("algebra: witt\norder: 0\nwindow: -4:4\n").layers == ()


def test_trivialize_rejects_a_margin_with_no_core_before_any_work(monkeypatch):
    import wittcoh.deformation as deformation

    d = DeformedBracket.trivial(WITT, W8, 1)
    # the widest margin leaves the one-index core [0,0]
    assert trivialize(d, W8, margin=8).verification_core == Window(0, 0)
    calls = []  # the table build is trivialize's first work, before the Jacobi check
    monkeypatch.setattr(deformation, "_layer_tables", lambda *a: calls.append(a))
    with pytest.raises(ConfigError, match=r"^margin 9 leaves no core of the window \[-8,8\]"):
        trivialize(d, W8, margin=9)
    with pytest.raises(ConfigError, match=r"^margin -1 leaves no core"):
        trivialize(d, W8, margin=-1)
    assert calls == []


def test_trivialize_carries_its_jacobi_report():
    rng = Random(5)
    mu1 = MixedCochain.from_cochain(differential(WITT, random_cochain(rng, 1, 0, W8, fill=0.4)))
    d = DeformedBracket(1, WITT, W8, (mu1,))
    assert trivialize(d, W8, margin=3).report == jacobi_defect(d, W8)
    bad = DeformedBracket(1, WITT, W8, (MixedCochain(2, W8, {(1, 2): {3: 1}}),))
    with pytest.raises(NotACocycleError) as caught:
        trivialize(bad, W8, margin=3)
    assert caught.value.report == jacobi_defect(bad, W8)
    assert not caught.value.report.clean


@pytest.mark.parametrize("order", [2, 3, 4])
def test_composed_equivalence_trivializes_in_one_step(order):
    # conjugating the original bracket by the single composed equivalence gives the
    # stage-by-stage chain's layers, so it too vanishes on the core; from order 3 on
    # this needs the stages composed as total o e_s, since
    # conjugate(conjugate(d, e1), e2) = conjugate(d, e1 o e2)
    rng = Random(21)
    phis = []
    for _ in range(order):
        ws = rng.sample([-1, 0, 1], k=2)
        phis.append(mixed_coboundary(rng, W12, ws, order_fill=0.25))
    d = conjugate(DeformedBracket.trivial(WITT, W12, order),
                  Equivalence(order, W12, tuple(phis)))
    res = trivialize(d, W12, margin=4)
    redone = conjugate(d, res.equivalence)
    # one step loses no pair the chain keeps and agrees with the chain on every
    # pair the chain keeps; each stage's primitive skips the pairs the chain has
    # lost, so only on those may the one-step conjugate differ
    chain = res.conjugated
    assert redone.omitted_pairs <= chain.omitted_pairs
    for mine, theirs in zip(redone.layers, chain.layers):
        assert {t: o for t, o in mine.entries.items() if t not in chain.omitted_pairs} == \
            theirs.entries
        assert set(mine.restrict(res.verification_core).entries) <= chain.omitted_pairs


# -- primitives on the selected rows ----------------------------------------------------


def spy_eliminations(monkeypatch):
    """Record the row count of every elimination (`linalg._eliminate`): a system's
    selected rows for its kernel (once per matrix) and for each right-hand side, then
    all of its rows where a check fails."""
    solves = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows: solves.append(len(rows)) or real(rows))
    return solves


def spy_primitives(monkeypatch):
    """Record each primitive solve of trivialize as (c, margin, exclude, result,
    solves), where solves lists the row count of every elimination the call made."""
    import wittcoh.deformation as deformation

    calls, solves = [], spy_eliminations(monkeypatch)
    real_primitive = deformation.coboundary_primitive

    def primitive(alg, c, margin, exclude=frozenset()):
        first = len(solves)
        got = real_primitive(alg, c, margin, exclude)
        calls.append((c, margin, frozenset(exclude), got, solves[first:]))
        return got

    monkeypatch.setattr(deformation, "coboundary_primitive", primitive)
    return calls


def benchmark_trials(seed):
    """(order, bracket) shaped like the `deform` benchmark's trials: the Witt bracket
    on [-12,12] conjugated at orders 3, 4 and 5 by id + t phi_1 + ..., each phi_s
    random 1-cochains of two weights at fill 0.2."""
    rng = Random(seed)
    trials = []
    for order in (3, 4, 5):
        layers = tuple(mixed_coboundary(rng, W12, ((-1, 0), (0, 1), (-1, 1))[(s - 1) % 3], 0.2)
                       for s in range(1, order + 1))
        e = Equivalence(order, W12, layers)
        trials.append((order, conjugate(DeformedBracket.trivial(WITT, W12, order), e)))
    return trials


def spy_systems(monkeypatch):
    """Record the (key, kept rows) of every comparison system a primitive reads from a
    window context, the key being (context, q, d, margin, coeffs)."""
    systems, real = [], cochains._Context.derive

    def derive(context, key, build):
        if key[0] == "system":
            systems.append(((context, *key[1:-1]), key[-1]))
        return real(context, key, build)

    monkeypatch.setattr(cochains._Context, "derive", derive)
    return systems


def comparison_set(key):
    """The comparison tuples that the context of a `spy_systems` key holds."""
    context, *shape = key
    return context.derived["comparisons", *shape][0]


@pytest.mark.parametrize("seed", [909, 5])
def test_primitives_on_the_selected_rows_equal_the_all_rows_solve(monkeypatch, fresh_systems,
                                                                   seed):
    systems, calls = spy_systems(monkeypatch), spy_primitives(monkeypatch)
    for order, d in benchmark_trials(seed):
        assert trivialize(d, W12, margin=max(4, order)).trivialized
    assert len(calls) > 20 and any(exclude for _, _, exclude, _, _ in calls)
    for c, margin, exclude, got, solves in calls:
        assert got == reference_primitive(WITT, c, margin, exclude)
        # the selected rows alone: for the right-hand side, and for the kernel on
        # the system's first call; no all-rows fallback
        assert len(solves) in (1, 2) and len(set(solves)) == 1
    assert sum(len(solves) for *_, solves in calls) == len(calls) + len(set(systems))
    assert len(set(systems)) < len(calls)


def test_a_selection_that_misses_the_row_space_falls_back(monkeypatch, fresh_systems):
    # as under an unlucky prime, the selected rows miss part of the row space over Q
    # (here the last one is dropped); the kernel's certificate sends each system to all
    # rows, and a particular solution that fails its check does too
    calls = spy_primitives(monkeypatch)
    real_select = linalg._select
    monkeypatch.setattr(linalg, "_select", lambda rows: real_select(rows)[:-1])
    e = random_unipotent(Random(12), W9, 2)
    assert trivialize(conjugate(DeformedBracket.trivial(WITT, W9, 2), e), W9, margin=4).trivialized
    assert any(len(set(solves)) == 2 for *_, solves in calls)  # selected rows, then all
    for c, margin, exclude, got, solves in calls:
        assert got == reference_primitive(WITT, c, margin, exclude)
        # at most the kernel's and the right-hand side's, each on the selected rows and all
        assert len(solves) <= 4


def test_an_excluded_selected_row_and_an_inconsistent_right_hand_side(monkeypatch,
                                                                     fresh_systems):
    import wittcoh.cohomology as cohomology

    c = differential(WITT, random_cochain(Random(13), 1, 0, W8, fill=0.5))
    bad = Cochain(2, 0, W8, ADJOINT, {(1, 2): 1})
    comp, matrix = cohomology.comparison_tuples(WITT, 2, 0, W8, 2)
    exclude = {comp[matrix.independent_rows[0]]}
    expected = [reference_primitive(WITT, c, 2), reference_primitive(WITT, c, 2, exclude)]
    assert None not in expected and reference_primitive(WITT, bad, 2) is None
    selections = []
    real_select = linalg._select
    monkeypatch.setattr(linalg, "_select",
                        lambda rows: selections.append(real_select(rows)) or selections[-1])
    solves = spy_eliminations(monkeypatch)
    assert cohomology.coboundary_primitive(WITT, c, 2) == expected[0]
    # the selected rows, for the kernel and then for the right-hand side
    assert selections == [list(matrix.independent_rows)] and solves == [len(selections[0])] * 2
    # dropping a selected row leaves a new comparison system, selected anew
    assert cohomology.coboundary_primitive(WITT, c, 2, exclude) == expected[1]
    assert len(selections) == 2 and solves[2:] == [len(selections[1])] * 2
    # (1,2) -> e_3 alone is no coboundary on the core: the selected rows are always
    # solvable, the particular fails its check, and the all-rows elimination finds the
    # system inconsistent, with no new selection
    del solves[:]
    assert cohomology.coboundary_primitive(WITT, bad, 2) is None
    assert len(selections) == 2 and solves == [len(selections[0]), matrix.n_rows]


def test_trivialize_selects_each_comparison_system_once(monkeypatch, fresh_systems):
    # every primitive of one trivialize run reads the selection of its comparison
    # system (a weight's comparison rows less those of omitted pairs), made once
    selections = []
    real_select = linalg._select
    monkeypatch.setattr(linalg, "_select",
                        lambda rows: selections.append(len(rows)) or real_select(rows))
    systems = spy_systems(monkeypatch)
    d = conjugate(DeformedBracket.trivial(WITT, W9, 3), random_unipotent(Random(14), W9, 3))
    assert trivialize(d, W9, margin=4).trivialized and d.omitted_pairs
    assert len(selections) == len(set(systems)) < len(systems)
    assert any(len(keep) < len(comparison_set(key)) for key, keep in systems)


def test_repeated_obstructions_certify_their_system_once(monkeypatch, fresh_systems):
    # (0,1) -> e_1 deforms the abelian plane with no primitive at order 1: its comparison
    # system is inconsistent, and each repeat reads that system's certified kernel,
    # computed once, instead of certifying a kernel of its own
    plane, w01 = load_algebra("name: abelian-plane\ngraded: yes\ncentral: no\n"), Window(0, 1)
    mu1 = MixedCochain(2, w01, {(0, 1): {1: 1}})
    d = replace(DeformedBracket.trivial(plane, w01, 1), layers=(mu1,))
    certified, systems = [], spy_systems(monkeypatch)
    real = linalg._solve_rows
    monkeypatch.setattr(linalg, "_solve_rows",
                        lambda sub, *rest: certified.append(len(sub)) or real(sub, *rest))
    for _ in range(3):
        r = trivialize(d, w01, margin=0)
        assert (r.trivialized, r.obstruction_order) == (False, 1)
    assert len(set(systems)) == len(certified) == 1


def test_two_trivialize_calls_on_one_window_build_each_system_once(monkeypatch,
                                                                   fresh_systems):
    # the comparison sets and systems outlive a call: a second deformation on the same
    # window and margin reads those the first one built
    import wittcoh.cohomology as cohomology

    built, selections = [], []
    real_build, real_select = cohomology.comparison_tuples, linalg._select
    monkeypatch.setattr(cohomology, "comparison_tuples",
                        lambda alg, q, d, *args: built.append(d) or real_build(alg, q, d, *args))
    monkeypatch.setattr(linalg, "_select",
                        lambda rows: selections.append(len(rows)) or real_select(rows))
    systems = spy_systems(monkeypatch)
    runs = []
    for seed in (14, 15):
        first = len(systems)
        e = random_unipotent(Random(seed), W9, 3)
        assert trivialize(conjugate(DeformedBracket.trivial(WITT, W9, 3), e), W9, 4).trivialized
        runs.append(set(systems[first:]))
    assert runs[0] & runs[1]  # the second run reads systems of the first
    assert len(built) == len(set(built)) and len(selections) == len(runs[0] | runs[1])


def counting(alg):
    """(a copy of alg whose rule counts its reads, the Counter of (a, b) reads)."""
    reads = Counter()

    def rule(a, b):
        reads[a, b] += 1
        return alg.bracket_rule(a, b)

    return replace(alg, bracket_rule=rule), reads


def test_every_layer_reads_each_bracket_of_a_window_once():
    # the conjugate, the Jacobi check, the primitives of trivialize and the report
    # read one context per algebra and window, which reads the rule once per pair
    alg, reads = counting(WITT)
    d = conjugate(DeformedBracket.trivial(alg, W9, 3), random_unipotent(Random(14), W9, 3))
    assert jacobi_defect(d, W8).clean and trivialize(d, W9, margin=4).trivialized
    assert cohomology_dim(alg, 2, 0, W9, 4).dim_stable == 0
    assert cohomology_dim(alg, 1, 3, W9, 4).dim_stable == 0
    assert omitted_count(alg, 2, 2, W9) == len(delta_matrix(alg, 2, 2, W9)[2]) > 0
    assert reads == {(a, b): 1 for a in W9.indices() for b in W9.indices()}
    # with a central element: every pair of generator keys, the center's too
    vir, reads = counting(make_virasoro())
    keys = vir.generator_keys(W8)
    assert jacobi_defect(DeformedBracket.trivial(vir, W8, 1), W8).clean
    assert cohomology_dim(vir, 1, 5, W8, 2, TRIVIAL).dim_stable == 0
    assert reads == {(a, b): 1 for a in keys for b in keys}


def test_many_excluded_sets_on_one_window_keep_its_context_bounded(fresh_systems):
    # each exclude set is a new comparison system; the context keeps the 64 values
    # read last, so the first systems are dropped and the last ones kept
    c = differential(WITT, random_cochain(Random(13), 1, 0, W12, fill=0.5))
    comp = comparison_tuples(WITT, 2, 0, W12, 4)[0]
    assert len(comp) > 80
    excludes = [frozenset(comp[:k]) for k in range(80)]
    for exclude in excludes:
        got = coboundary_primitive(WITT, c, 4, exclude)
    assert got == reference_primitive(WITT, c, 4, excludes[-1])
    derived = window_context(WITT, W12).derived
    systems = [key[-1] for key in derived if key[0] == "system"]
    assert len(derived) == 64 and len(systems) == 63
    assert systems == [tuple(r for r, t in enumerate(comp) if t not in exclude)
                       for exclude in excludes[-63:]]


def test_trivialize_conjugates_as_the_chain_of_public_conjugates(monkeypatch):
    # the table chain equals one public conjugate per stage by the recorded primitive,
    # omitted pairs included
    calls = iter(spy_primitives(monkeypatch))
    d = conjugate(DeformedBracket.trivial(WITT, W9, 3), random_unipotent(Random(14), W9, 3))
    res = trivialize(d, W9, margin=4)
    assert res.trivialized and d.omitted_pairs
    current = d
    for s in range(1, 4):
        comps = weight_components(current.layers[s - 1])
        parts = []
        for wt in sorted(comps):
            c, _, exclude, got, _ = next(calls)
            assert c == comps[wt] and exclude == current.omitted_pairs
            parts.append(got)
        if parts:
            b_s = MixedCochain.from_components(1, W9, parts)
            current = conjugate(current, single_stage(W9, 3, s, b_s))
    assert next(calls, None) is None
    assert current.omitted_pairs > d.omitted_pairs
    assert (current.layers, current.omitted_pairs) == (res.conjugated.layers,
                                                       res.conjugated.omitted_pairs)


def benchmark_trial_order5b():
    """The `deform` benchmark's trial_order5b input at seed 909: the sixth unipotent
    equivalence its generator draws, after two each at orders 3 and 4.  Layer s has
    the weights ((-1, 0), (0, 1), (-1, 1))[(s - 1) % 3], each on a fifth of the tuples,
    with values p/q, 0 < |p| <= 9 and q in {1, 1, 2, 3}."""
    rng = Random(909)
    numerators = [p for p in range(-9, 10) if p]
    for order in (3, 3, 4, 4, 5, 5):
        layers = []
        for s in range(1, order + 1):
            parts = []
            for wt in ((-1, 0), (0, 1), (-1, 1))[(s - 1) % 3]:
                tuples = basis_tuples(1, wt, W12, ADJOINT)
                support = rng.sample(tuples, k=round(0.2 * len(tuples)))
                parts.append(Cochain(1, wt, W12, ADJOINT, {
                    t: Fraction(rng.choice(numerators), rng.choice([1, 1, 2, 3])) for t in support}))
            layers.append(MixedCochain.from_components(1, W12, parts))
    return Equivalence(5, W12, tuple(layers))


def test_a_conjugated_order_keeps_a_scale_above_its_lcm(monkeypatch):
    # the first stage of this trial writes orders 1..5 at scales W_m that are 2, 2, 4,
    # 4 and 8 times the lcm of their denominators; no pass divides that out, and every
    # entry and omitted pair still equals the Fraction reference, stage by stage
    import wittcoh.deformation as deformation

    start, e = DeformedBracket.trivial(WITT, W12, 5), benchmark_trial_order5b()
    d, want = conjugate(start, e), fraction_conjugate(start, e)
    assert d.omitted_pairs
    assert (d.layers, d.omitted_pairs) == (want.layers, want.omitted_pairs)
    stages, real = [], deformation._conjugate_tables

    def core(tables, scales, omitted, window, phi):
        real(tables, scales, omitted, window, phi)
        (s, b_s), = phi.items()
        gcds = [gcd(scale, *(c for row in table.values() for outs in row.values()
                             if outs is not LOST for _, c in outs))
                for table, scale in zip(tables[s:], scales[s:])]
        stages.append((s, b_s, deformation._bracket(d, tables, scales, omitted), gcds))

    monkeypatch.setattr(deformation, "_conjugate_tables", core)
    res = trivialize(d, W12, 5)
    assert res.trivialized and stages[0][0] == 1 and stages[0][3] == [2, 2, 4, 4, 8]
    current = d
    for s, b_s, got, _ in stages:
        current = fraction_conjugate(current, single_stage(W12, 5, s, b_s))
        assert (got.layers, got.omitted_pairs) == (current.layers, current.omitted_pairs)
    assert (res.conjugated.layers, res.conjugated.omitted_pairs) == (current.layers,
                                                                     current.omitted_pairs)
