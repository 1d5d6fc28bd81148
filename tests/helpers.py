"""Shared generators and builders for the test suite.

Random cocycles are produced as restrictions of true coboundaries: the
primitive lives on an enlarged window, the differential is taken there, and
the result is cut back to the target window.  Every interior equation on the
target window then references true values, so the restriction really is a
cocycle for the interior-only differential.

The builders (`matrix_from_rows`, `cochain_from_function`, `without_tag`,
`solved_form`) and `sequential_solve`, the reference elimination that
`RelationSet.solve` is checked against, are used by the tests only.
"""

from fractions import Fraction
from itertools import combinations, permutations
from random import Random

from wittcoh.algebra import Window
from wittcoh.cochains import ADJOINT, Cochain, MixedCochain, basis_tuples, differential
from wittcoh.errors import ContradictionError
from wittcoh.linalg import SparseMatrix
from wittcoh.replay import RelationSet, SymbolicValue


def matrix_from_rows(rows) -> SparseMatrix:
    """The SparseMatrix of a list of equal-length dense rows."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    if any(len(row) != n_cols for row in rows):
        raise ValueError("ragged rows")
    return SparseMatrix(len(rows), n_cols,
                        {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v})


def permutation_sign(args) -> int:
    """Sign of the permutation sorting distinct arguments."""
    return -1 if sum(a > b for a, b in combinations(args, 2)) % 2 else 1


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
    if any(probe.admissible(t) for t in db.omitted):
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
