"""Shared generators and builders for the test suite.

Random cocycles are produced as restrictions of true coboundaries: the
primitive lives on an enlarged window, the differential is taken there, and
the result is cut back to the target window.  Every interior equation on the
target window then references true values, so the restriction really is a
cocycle for the interior-only differential.

The builders (`matrix_from_rows`, `cochain_from_function`, `without_tag`,
`solved_form`) and `sequential_solve`, the reference elimination that
`RelationSet.solve` is checked against, are used by the tests only, as are
`fraction_jacobi_defect` and `fraction_conjugate`, the Fraction references
for the integer-table `jacobi_defect` and `conjugate` (the latter through the
inverse series `invert`, while `conjugate` solves phi(mu') = mu(phi, phi)
order by order), `compose`, the product of two equivalences, `single_stage`,
the equivalence id + t^s phi_s of one trivialize stage, `annihilates`,
the per-vector reference for the one-sweep certificate of `linalg.solve`,
`reference_solve`, the reduced-echelon-form reference for `linalg.solve`,
`reference_select`, the min-scan reference for the heap in `linalg._select`,
`reference_primitive`, the all-rows `reference_solve` that
`coboundary_primitive` must reproduce, and `reference_delta_matrix`, the
term-by-term reference for `delta_matrix`.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from random import Random

from wittcoh import linalg
from wittcoh.algebra import CENTRAL, Window
from wittcoh.cochains import ADJOINT, Cochain, MixedCochain, basis_tuples, delta_matrix, differential
from wittcoh.cohomology import comparison_tuples
from wittcoh.deformation import DefectReport, DeformedBracket, Equivalence, OrderDefect
from wittcoh.errors import BoundaryError, ConfigError, ContradictionError, OutOfWindowError
from wittcoh.linalg import LinearSolution, SparseMatrix
from wittcoh.replay import RelationSet, SymbolicValue


def matrix_from_rows(rows) -> SparseMatrix:
    """The SparseMatrix of a list of equal-length dense rows."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged rows")
    return SparseMatrix([{j: v for j, v in enumerate(row) if v} for row in rows], n_cols)


def annihilates(rows, vec) -> bool:
    """Whether the integer vector {col: int} has dot product 0 with every {col: int}
    row, one separate dot product per row."""
    return not any(sum(a * vec.get(c, 0) for c, a in row.items()) for row in rows)


def reduced_null_vector(pivots, f):
    """The primitive integer vector, positive at column f and zero off f and the pivot
    columns, that the reduced pivot rows (c, r) annihilate: v_f = L = lcm(r[c]) over the
    rows with r[f] != 0, and v_c = -r[f] * (L // r[c]) on them."""
    hits = [(c, r) for c, r in pivots if r.get(f)]
    scale = lcm(*(r[c] for c, r in hits))
    return linalg._primitive({f: scale, **{c: -r[f] * (scale // r[c]) for c, r in hits}})


def reference_solve(m: SparseMatrix, rhs=None) -> LinearSolution:
    """Reference for `linalg.solve`: every row eliminated, the reduced echelon form
    built by back-substitution, and each kernel vector and the particular solution
    read off its rows; no row selection and no certificate."""
    aug = linalg._AUG
    rows = [dict(row) for row in m]
    for row, b in zip(rows, rhs or ()):
        if b:
            row[aug] = -b
    pivots, leftovers = linalg._eliminate([linalg._primitive(r) for r in rows])
    # back-substitute: clear each pivot column from the earlier pivot rows
    for k in range(len(pivots) - 1, -1, -1):
        col, piv = pivots[k]
        for j in range(k):
            cj, rj = pivots[j]
            if rj.get(col):
                pivots[j] = (cj, linalg._combine(rj, piv, col))
    kernel = []
    for f in sorted(set(range(m.n_cols)).difference(c for c, _ in pivots)):
        vec = reduced_null_vector(pivots, f)
        sign = 1 if vec[min(vec)] > 0 else -1
        kernel.append(tuple(sign * vec.get(j, 0) for j in range(m.n_cols)))
    particular = None
    if rhs is not None and not leftovers:
        x = reduced_null_vector(pivots, aug)
        particular = tuple(Fraction(x[j], x[aug]) if j in x else 0 for j in range(m.n_cols))
    return LinearSolution(rank=len(pivots), pivot_columns=tuple(c for c, _ in pivots),
                          kernel_basis=tuple(kernel), particular=particular)


def reference_primitive(alg, c: Cochain, margin: int, exclude=frozenset()):
    """Reference for `cohomology.coboundary_primitive`: the particular solution of
    delta(b) = c on every comparison row whose tuple is not excluded, or None."""
    comp, matrix = comparison_tuples(alg, c.degree, c.weight, c.window, margin, c.coeffs)
    keep = [r for r, t in enumerate(comp) if t not in exclude]
    rhs = [c.entries.get(comp[r], 0) for r in keep]
    x = reference_solve(matrix.take_rows(keep), rhs).particular
    if x is None:
        return None
    cols = basis_tuples(c.degree - 1, c.weight, c.window, c.coeffs)
    return Cochain(c.degree - 1, c.weight, c.window, c.coeffs,
                   {t: v for t, v in zip(cols, x) if v})


def reference_select(rows):
    """Reference for `linalg._select`: the same Markowitz elimination mod P, with each
    step's pivot column found by a `min` over every remaining column."""
    p = linalg._P
    active, by_col = {}, {}
    for i, row in enumerate(rows):
        r = {c: v % p for c, v in row.items() if v % p}
        if r:
            active[i] = r
            for c in r:
                by_col.setdefault(c, set()).add(i)
    chosen = []
    while by_col:
        col = min(by_col, key=lambda c: (len(by_col[c]), c))
        idx = min(by_col[col], key=lambda i: (len(active[i]), i))
        piv = active.pop(idx)
        for c in piv:
            by_col[c].discard(idx)
        inv = pow(piv[col], -1, p)
        for i in list(by_col[col]):
            r = active[i]
            f = r[col] * inv % p
            for c, v in piv.items():
                w = (r.get(c, 0) - f * v) % p
                if w:
                    if c not in r:
                        by_col[c].add(i)
                    r[c] = w
                elif c in r:
                    del r[c]
                    by_col[c].discard(i)
            if not r:
                del active[i]
        for c in piv:
            if not by_col[c]:
                del by_col[c]
        chosen.append(idx)
    return sorted(chosen)


def permutation_sign(args) -> int:
    """Sign of the permutation sorting distinct arguments."""
    return -1 if sum(a > b for a, b in combinations(args, 2)) % 2 else 1


class _LeftWindow(Exception):
    pass


def _delta_terms(alg, q, d, window, coeffs, xs):
    """delta(c)(xs) as (referenced tuple, coefficient) pairs, expanded term by term
    from the module formula; raises _LeftWindow when a term leaves the window."""
    terms = []

    def emit(sign, coeff, args):
        if len(set(args)) == len(args):
            terms.append((tuple(sorted(args)), sign * permutation_sign(args) * coeff))

    def bracket(a, b):
        out = alg.bracket_rule(a, b)
        if CENTRAL in out:
            raise ConfigError(
                "differential needs bracket values inside the indexed span; "
                "central targets are not supported as cochain arguments")
        return out

    for s in range(q + 1):
        for t in range(s + 1, q + 1):
            rest = [xs[u] for u in range(q + 1) if u not in (s, t)]
            for key, coeff in bracket(xs[s], xs[t]).items():
                if key != xs[s] + xs[t]:
                    raise ValueError(f"bracket is not graded: [e_{xs[s]}, e_{xs[t]}] hit e_{key}")
                if key not in window:
                    raise _LeftWindow
                emit((-1) ** (s + t + 1), coeff, [key] + rest)  # (-1)^{s+t-1}, 1-indexed
    if coeffs == ADJOINT:
        for s in range(q + 1):
            rest = [xs[u] for u in range(q + 1) if u != s]
            inner = sum(rest) + d
            if inner not in window:
                raise _LeftWindow
            for key, coeff in bracket(xs[s], inner).items():
                if key != sum(xs) + d:
                    raise ValueError(f"bracket is not graded: [e_{xs[s]}, e_{inner}] hit e_{key}")
                emit((-1) ** (s + 1), coeff, rest)
    merged = {}
    for t, v in terms:
        merged[t] = merged.get(t, 0) + v
    return [(t, v) for t, v in merged.items() if v != 0]


def reference_delta_matrix(alg, q, d, window, coeffs=ADJOINT):
    """Reference for delta_matrix: (matrix, row tuples, omitted tuples), one
    term list per (q+1)-tuple, in basis order."""
    col = {t: i for i, t in enumerate(basis_tuples(q, d, window, coeffs))}
    matrix_rows, rows, omitted = [], [], []
    for xs in basis_tuples(q + 1, d, window, coeffs):
        try:
            terms = _delta_terms(alg, q, d, window, coeffs, xs)
        except _LeftWindow:
            omitted.append(xs)
            continue
        matrix_rows.append({col[ref]: coeff for ref, coeff in terms})
        rows.append(xs)
    return SparseMatrix(matrix_rows, len(col)), rows, omitted


def cochain_from_function(fn, degree, weight, window, coeffs=ADJOINT) -> Cochain:
    """Canonicalize a tuple function into a cochain; every tuple must alternate."""
    entries = {t: fn(*t) for t in basis_tuples(degree, weight, window, coeffs)}
    for t, base in entries.items():
        for perm in permutations(t):
            if fn(*perm) != permutation_sign(perm) * base:
                raise ValueError(f"function is not antisymmetric at {perm}")
        if degree >= 2:
            rep = (t[0],) * degree
            if fn(*rep) != 0:
                raise ValueError(f"function does not vanish on repeated arguments {rep}")
    return Cochain(degree, weight, window, coeffs, entries)


def without_tag(rels: RelationSet, tag: str) -> RelationSet:
    return RelationSet([r for r in rels.relations if r.tag != tag])


def solved_form(rels: RelationSet, k: int, solved=None) -> SymbolicValue:
    """a_k as solved from the relations; a free unknown stands for itself."""
    solved = rels.solve() if solved is None else solved
    return solved.get(k, SymbolicValue.unknown(k))


def _substitute(form: SymbolicValue, solved: dict) -> SymbolicValue:
    out = SymbolicValue.constant(form.const)
    for k, v in form.coeffs:
        out = out + v * solved.get(k, SymbolicValue.unknown(k))
    return out


def sequential_solve(rels: RelationSet) -> dict:
    """Reference for RelationSet.solve: substitute relation by relation.

    Each relation is reduced by the forms solved so far and solved for the
    largest unknown it still holds, and that form is substituted into the
    earlier ones; a relation that reduces to a nonzero constant raises.
    """
    solved = {}
    for rel in rels.relations:
        f = _substitute(rel.form, solved)
        if f.is_zero:
            continue
        if not f.coeffs:
            raise ContradictionError(
                f"relation {rel.label} [{rel.tag}] reduces to {f.const} = 0")
        pivot, c = f.coeffs[-1]
        expr = (Fraction(-1) / c) * SymbolicValue.make(dict(f.coeffs[:-1]), f.const)
        solved = {k: _substitute(v, {pivot: expr}) for k, v in solved.items()}
        solved[pivot] = expr
    return solved


def _pair(d: DeformedBracket, s: int, i, j) -> dict:
    """mu_s(e_i, e_j) as {output: coefficient}; raises OutOfWindowError on leaks."""
    if s == 0:
        out = d.algebra.bracket_rule(i, j)
        for key in out:
            if key != CENTRAL and key not in d.window:
                raise OutOfWindowError(f"bracket target {key} outside {d.window}")
        return out
    if CENTRAL in (i, j) or i == j:
        return {}
    if (min(i, j), max(i, j)) in d.omitted_pairs:
        raise OutOfWindowError(f"layer value at ({i},{j}) was lost to the window edge")
    if i < j:
        return d.layers[s - 1].entries.get((i, j), {})
    return {k: -v for k, v in d.layers[s - 1].entries.get((j, i), {}).items()}


def _evaluate_order(d: DeformedBracket, s: int, x: dict, y: dict) -> dict:
    """Bilinear extension of `_pair` to {index: coefficient} dicts."""
    out = {}
    for kx, vx in x.items():
        for ky, vy in y.items():
            for k, v in _pair(d, s, kx, ky).items():
                out[k] = out.get(k, 0) + vx * vy * v
    return out


def fraction_jacobi_defect(d: DeformedBracket, window: Window) -> DefectReport:
    """Reference for jacobi_defect: the order-s Jacobi sum in Fraction arithmetic,
    pair by pair, skipping (and counting) every triple that meets a leak."""
    if window.lo < d.window.lo or window.hi > d.window.hi:
        raise BoundaryError(f"check window {window} exceeds bracket window {d.window}")
    orders = []
    idx = list(window.indices())
    for s in range(0, d.order + 1):
        found = None
        skipped = 0
        for ai, x in enumerate(idx):
            for bi in range(ai + 1, len(idx)):
                y = idx[bi]
                for z in idx[bi + 1:]:
                    total = {}
                    try:
                        for p in range(s + 1):
                            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                                for k, v in _pair(d, s - p, a, b).items():
                                    for out, w in _pair(d, p, k, c).items():
                                        total[out] = total.get(out, 0) + v * w
                    except OutOfWindowError:
                        skipped += 1
                        continue
                    if found is None and any(total.values()):
                        found = ((x, y, z), {k: v for k, v in total.items() if v})
            if found:
                break
        if found:
            orders.append(OrderDefect(s, False, found[0], found[1], skipped))
        else:
            orders.append(OrderDefect(s, True, skipped=skipped))
    return DefectReport(window, tuple(orders))


def _compose_order(outer: Equivalence, inner: Equivalence, s: int) -> dict:
    """(outer o inner)_s(e_i) = sum_u outer_u(inner_{s-u}(e_i)) as {(i,): {out: value}}."""
    entries = {}
    for i in outer.window.indices():
        total = {}
        for u in range(s + 1):
            for k, v in outer.apply_order(u, inner.apply_order(s - u, {i: 1})).items():
                total[k] = total.get(k, 0) + v
        entries[(i,)] = total
    return entries


def compose(outer: Equivalence, inner: Equivalence) -> Equivalence:
    """The equivalence x -> outer(inner(x)), truncated at the common order."""
    if outer.order != inner.order or outer.window != inner.window:
        raise ValueError("equivalence shape mismatch")
    return Equivalence(outer.order, outer.window, tuple(
        MixedCochain(1, outer.window, _compose_order(outer, inner, s))
        for s in range(1, outer.order + 1)))


def single_stage(window: Window, order: int, s: int, phi_s: MixedCochain) -> Equivalence:
    """id + t^s phi_s: the equivalence of one trivialize stage."""
    layers = [MixedCochain(1, window) for _ in range(order)]
    layers[s - 1] = phi_s
    return Equivalence(order, window, tuple(layers))


def invert(e: Equivalence) -> Equivalence:
    """The inverse series psi = id - phi_1 t + ..., order by order: (psi o phi)_s = 0
    for s >= 1 with psi_s entering only as itself, so psi_s = -(psi o phi)_s
    evaluated while psi_s is still zero."""
    layers = [MixedCochain(1, e.window) for _ in range(e.order)]
    for s in range(1, e.order + 1):
        psi = Equivalence(e.order, e.window, tuple(layers))
        layers[s - 1] = MixedCochain(1, e.window, {
            t: {k: -v for k, v in outs.items()}
            for t, outs in _compose_order(psi, e, s).items()})
    return Equivalence(e.order, e.window, tuple(layers))


def fraction_conjugate(d: DeformedBracket, e) -> DeformedBracket:
    """Reference for conjugate: psi_u(mu_r(phi_v e_i, phi_w e_j)) summed over
    u + r + v + w = s in Fraction arithmetic, one pair at a time."""
    if e.order != d.order or e.window != d.window:
        raise ValueError("equivalence and bracket must share order and window")
    N = d.order
    window = d.window
    psi = invert(e)
    m0 = next((s for s in range(1, N + 1) if not e.layers[s - 1].is_zero), N + 1)
    images = {i: [e.apply_order(v, {i: 1}) for v in range(N + 1)] for i in window.indices()}
    new_entries = [dict() for _ in range(N)]
    omitted = set(d.omitted_pairs)
    for i in window.indices():
        for j in range(i + 1, window.hi + 1):
            b_cache = {}

            def b_order(m):
                if m not in b_cache:
                    total = {}
                    for r in range(m + 1):
                        for v in range(m - r + 1):
                            image = _evaluate_order(d, r, images[i][v], images[j][m - r - v])
                            for k, c in image.items():
                                total[k] = total.get(k, 0) + c
                    b_cache[m] = total
                return b_cache[m]

            try:
                values = []
                for s in range(1, N + 1):
                    total = {}
                    for u in (0, *range(m0, s + 1)):
                        for k, c in psi.apply_order(u, b_order(s - u)).items():
                            total[k] = total.get(k, 0) + c
                    outs = {k: c for k, c in total.items() if c}
                    if CENTRAL in outs:
                        raise ConfigError("central targets are not deformed here")
                    values.append(outs)
            except OutOfWindowError:
                omitted.add((i, j))
                continue
            for s, outs in enumerate(values):
                new_entries[s][(i, j)] = outs
    layers = tuple(MixedCochain(2, window, entries) for entries in new_entries)
    return DeformedBracket(N, d.algebra, window, layers, frozenset(omitted))


def random_mixed_layer(rng: Random, degree: int, window: Window, weights, fill: float,
                       denominators=(1, 2, 3, 7)) -> MixedCochain:
    """Entries p/q (|p| <= 9, q drawn from `denominators`) of the given weights
    on a `fill` share of the degree-1 or degree-2 tuples of the window."""
    idx = list(window.indices())
    tuples = [(i,) for i in idx] if degree == 1 else [
        (i, j) for i in idx for j in idx if i < j]
    entries = {}
    for t in tuples:
        for w in weights:
            if sum(t) + w in window and rng.random() < fill:
                num = rng.choice([p for p in range(-9, 10) if p])
                entries.setdefault(t, {})[sum(t) + w] = Fraction(num, rng.choice(denominators))
    return MixedCochain(degree, window, entries)


def random_equivalence(rng: Random, window: Window, order: int) -> Equivalence:
    """id + t phi_1 + ... with each phi_s a random_mixed_layer of two weights in -1..1."""
    return Equivalence(order, window, tuple(
        random_mixed_layer(rng, 1, window, rng.sample((-1, 0, 1), 2), 0.3)
        for _ in range(order)))


def random_scalar(rng: Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_cochain(rng: Random, degree, weight, window, coeffs=ADJOINT, fill=0.4) -> Cochain:
    entries = {}
    for t in basis_tuples(degree, weight, window, coeffs):
        if rng.random() < fill:
            v = random_scalar(rng)
            if v:
                entries[t] = v
    return Cochain(degree, weight, window, coeffs, entries)


def restrict_entries(c: Cochain, window: Window) -> Cochain:
    """Keep the entries of c that are admissible on the (smaller) window."""
    probe = Cochain(c.degree, c.weight, window, c.coeffs)
    keep = {t: v for t, v in c.entries.items() if probe.admissible(t)}
    return Cochain(c.degree, c.weight, window, c.coeffs, keep)


def truncated_coboundary(rng: Random, alg, degree, weight, window, coeffs=ADJOINT,
                         ext=None, fill=0.4, support=None):
    """(primitive on the big window, delta(primitive) restricted to `window`)."""
    if ext is None:
        ext = abs(weight) + 2
    big = Window(window.lo - ext, window.hi + ext)
    b = random_cochain(rng, degree, weight, big, coeffs, fill)
    if support is not None:
        b = Cochain(degree, weight, big, coeffs,
                    {t: v for t, v in b.entries.items() if all(a in support for a in t)})
    db = differential(alg, b)
    probe = Cochain(degree + 1, weight, window, coeffs)
    if any(probe.admissible(t) for t in delta_matrix(alg, degree, weight, big, coeffs)[2]):
        raise AssertionError("primitive window not large enough for exact coboundary")
    return b, restrict_entries(db, window)


def never_leaves_window(indices, weight: int, window: Window) -> bool:
    """Conservative two-stage interiority: every subset sum (and every subset
    sum shifted by the weight) that any differential composition could
    materialize stays inside the window."""
    idx = list(indices)
    n = len(idx)
    for r in range(1, n + 1):
        for sub in combinations(idx, r):
            s = sum(sub)
            if r >= 2 and s not in window:
                return False
            if s + weight not in window:
                return False
    return True


def random_mixed_cocycle(rng: Random, alg, degree, weights, window, ext=None, fill=0.3):
    """Mixed-weight restriction-of-a-true-coboundary on the window."""
    parts = []
    for d in weights:
        _, c = truncated_coboundary(rng, alg, degree, d, window, ext=ext, fill=fill)
        parts.append(c)
    return MixedCochain.from_components(degree + 1, window, parts)
