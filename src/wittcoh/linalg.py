"""Exact rational sparse linear algebra: `solve`, `rank` and `SparseMatrix.independent_rows`.

A coefficient is an `int` or a `fractions.Fraction`, never converted: a float
is refused with TypeError, since it is a binary fraction rather than the
rational it was meant to be.  Over Q, kernel and image dimensions equal those
over C, and every structure constant here is rational.  A `SparseMatrix` is a
tuple of {col: coefficient} rows, stored as given.

`solve(m, rhs=None)` gives the rank, the canonical kernel basis (integer
vectors) and a particular solution (None when rhs is inconsistent), each
certified exactly; `rank(m)` is `solve(m).rank`.  Once per matrix it selects
rows, `m.independent_rows` (uncertified: independent over Q, so their count
is a lower bound on the rank; no count in `cohomology` reads it), and solves
and certifies the rank, pivot columns and kernel basis, `m._solution`.  A
right-hand side adds one elimination, one back-solve and its own check.
Every row is scaled once to a primitive integer row.  Two passes:

* Selection: the rows are eliminated modulo the prime _P = 1073741789, with
  Markowitz pivoting (the column with the fewest active rows, then its
  sparsest row; the column from a lazy heap), on the rows of m alone.  The
  rows that become pivots are independent mod _P, hence independent over Q.
* Exact pass: an online fraction-free echelon of the selected rows of m, or
  of [m | rhs]: each row in turn is reduced at its leading column by the pivot
  row already there, with a gcd reduction after every update, until it claims
  a new pivot column (or only the right-hand side is left); each kernel
  vector, or the particular solution alone, is back-solved in integers.
  No reduced echelon form is built.

Why the back-solve is exact: for a free column f, the pivot columns left of f
are independent and column f depends on them, so the kernel holds exactly one
primitive vector supported on f and those pivot columns, positive at f.  The
echelon rows span the row space just as the reduced rows do, so the back-solve
returns the vector the reduced form would give.  The particular solution is
that vector for the right-hand side column, which counts as right of every
column, divided by its entry there.

Certificates: the kernel vectors must give an integer dot product of 0 with
*every* row, checked in one sweep; then the selected rows span m's row space,
and rank, pivot columns and kernel basis, functions of the row space, are m's.
Otherwise (an unlucky prime) every row is eliminated, which raises
AssertionError on its own failure.  The particular solution, (x, den) in
integers, must satisfy sum_c v_c x_c = b den on every row of m.  It is zero on
the selected rows' free columns, which include m's (a column that depends on
those before it in m does so in any rows of m), so it is the one solution that
is zero on m's free columns, whatever the selection.  Otherwise (an
inconsistent rhs, which the independent selected rows always solve) every row
of [m | rhs] is eliminated, and its leftover rows decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import check_coefficient

_AUG = -1  # virtual column index used for the right-hand side
_P = 1073741789  # prime below 2**30: every residue mod _P is one 30-bit int digit


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix over Q: a tuple of {col: coefficient} rows of nonzero
    entries, stored as given (a row holding a zero is copied without it)."""

    rows: tuple
    n_cols: int

    def __post_init__(self):
        if self.n_cols < 0:
            raise ValueError("negative matrix dimensions")
        rows = []
        for row in self.rows:
            for c, v in row.items():
                if not 0 <= c < self.n_cols:
                    raise ValueError(f"column {c} outside 0..{self.n_cols - 1}")
                check_coefficient(v)
            rows.append(row if all(row.values()) else {c: v for c, v in row.items() if v})
        object.__setattr__(self, "rows", tuple(rows))

    n_rows = property(len)

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @classmethod
    def _trusted(cls, rows, n_cols: int) -> "SparseMatrix":
        """A SparseMatrix of rows already in the form `__post_init__` leaves, built
        without its checks: nonzero int or Fraction entries in columns 0..n_cols - 1."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", tuple(rows))
        object.__setattr__(out, "n_cols", n_cols)
        return out

    def take_rows(self, keep) -> "SparseMatrix":
        """The submatrix of the rows listed in `keep`, in that order; those rows
        passed `__post_init__` already and are not checked again."""
        return SparseMatrix._trusted((self.rows[r] for r in keep), self.n_cols)

    @cached_property
    def _primitive_rows(self) -> tuple:
        """Each row scaled to its primitive integer row (`_primitive`)."""
        return tuple(_primitive(r) for r in self.rows)

    @cached_property
    def independent_rows(self) -> tuple:
        """Sorted indices of the rows `_select` keeps of the primitive integer rows:
        independent mod _P, hence over Q; uncertified, so their count is a lower
        bound on the rank over Q.  `solve` alone reads them."""
        return tuple(_select(self._primitive_rows))

    @cached_property
    def _solution(self) -> "LinearSolution":
        """`solve(self)`: rank, pivot columns and kernel basis, certified once."""
        rows = self._primitive_rows
        try:
            return _solve_rows([rows[i] for i in self.independent_rows], rows, self.n_cols)
        except AssertionError:  # the selection misses part of the row space
            return _solve_rows(rows, rows, self.n_cols)

    def apply(self, vec):
        """Matrix-vector product, exact."""
        if len(vec) != self.n_cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(v * vec[c] for c, v in row.items()) for row in self.rows)


@dataclass(frozen=True)
class LinearSolution:
    """Rank, pivot columns, right kernel basis and (optionally) a particular solution.

    The pivot columns, in increasing order, are exactly the columns that are
    not linear combinations of the columns before them.
    """

    rank: int
    pivot_columns: tuple
    kernel_basis: tuple
    particular: tuple | None = None


def _primitive(row):
    """The primitive {col: int} row (gcd 1, same sign) on the line of a rational row.

    Fractions n/d in lowest terms are scaled by lcm(d) / gcd(n), ints by 1 / gcd.
    """
    values = row.values()
    try:
        g = gcd(*values)
    except TypeError:  # gcd takes only ints: clear the denominators
        denom = lcm(*(v.denominator for v in values))
        g = gcd(*(v.numerator for v in values))
        return {c: v.numerator // g * (denom // v.denominator) for c, v in row.items()}
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _combine(r, piv, col):
    """The primitive row of p*r - v*piv, with p = piv[col] and v = r[col]: r cleared at col."""
    p, v = piv[col], r[col]
    new = {}
    for c in r.keys() | piv.keys():
        w = p * r.get(c, 0) - v * piv.get(c, 0)
        if w:
            new[c] = w
    return _primitive(new)


def _eliminate(rows):
    """Echelon form of primitive integer rows; returns (pivot list, leftover rows).

    `rows` is a list of {col: int} dicts, taken in order: a row is reduced at
    its leading column (the virtual _AUG column never leads) by the pivot row
    there until it claims a free column or only _AUG is left.  Pivots are
    (col, row) in increasing column order, each row zero left of its column;
    leftovers are the rows reduced to _AUG alone.
    """
    pivots, leftovers = {}, []
    for r in rows:
        while r:
            col = min((c for c in r if c != _AUG), default=_AUG)
            if col == _AUG:
                leftovers.append(r)
            elif col in pivots:
                r = _combine(r, pivots[col], col)
                continue
            else:
                pivots[col] = r
            break
    return sorted(pivots.items()), leftovers


def _first_failure(rows, vecs):
    """Index of the first integer vector {col: int} not orthogonal to every row, or None."""
    by_col = {}
    for k, vec in enumerate(vecs):
        for c, x in vec.items():
            by_col.setdefault(c, []).append((k, x))
    failed = []
    for row in rows:
        dots = [0] * len(vecs)
        for c, a in row.items():
            for k, x in by_col.get(c, ()):
                dots[k] += a * x
        if any(dots):
            failed.append(next(k for k, s in enumerate(dots) if s))
    return min(failed, default=None)


def _back_solve(pivots, f):
    """The primitive integer vector, positive at f, on f and the pivot columns left
    of f, that the echelon pivot rows (c, r) annihilate; f is a free column or _AUG,
    which stands right of every column.  Rows go in decreasing pivot column, those
    right of f (zero on that support) skipped; a nonzero partial sum fixes the
    pivot's entry, the whole vector scaled up first if the pivot does not divide it."""
    vec = {f: 1}
    for c, r in reversed(pivots):
        if f != _AUG and c > f:
            continue
        s = sum(r[j] * vec[j] for j in vec.keys() & r.keys())
        if s:
            p = r[c]
            scale = abs(p) // gcd(s, p)
            if scale > 1:
                for j in vec:
                    vec[j] *= scale
                s *= scale
            vec[c] = -s // p
    return _primitive(vec)


def _select(rows):
    """Sorted indices of rows that are linearly independent modulo _P.

    Markowitz-style elimination mod _P on a column -> rows index: each step
    pivots on the remaining column with the fewest active rows, and in it on
    the row with the fewest entries (ties by index).  The rows chosen as
    pivots are independent mod _P, hence over Q.
    The column comes from a lazy heap of (active count, column):
    only the pivot row's columns change their counts in a step, so only they
    are pushed again, and a popped entry whose count is stale is dropped.
    """
    active, by_col = {}, {}
    for i, row in enumerate(rows):
        r = {c: v % _P for c, v in row.items() if v % _P}
        if r:
            active[i] = r
            for c in r:
                by_col.setdefault(c, set()).add(i)
    heap = [(len(hits), c) for c, hits in by_col.items()]
    heapify(heap)
    chosen = []
    while heap:
        count, col = heappop(heap)
        if len(by_col.get(col, ())) != count:
            continue  # stale: the column's count changed, or it has emptied
        idx = min(by_col[col], key=lambda i: (len(active[i]), i))
        piv = active.pop(idx)
        for c in piv:
            by_col[c].discard(idx)
        inv = pow(piv[col], -1, _P)
        for i in list(by_col[col]):
            r = active[i]
            f = r[col] * inv % _P
            for c, v in piv.items():
                w = (r.get(c, 0) - f * v) % _P
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
            if by_col[c]:
                heappush(heap, (len(by_col[c]), c))
            else:
                del by_col[c]
        chosen.append(idx)
    return sorted(chosen)


def _particular(x, n_cols):
    """The rational solution scaled from an integer vector x with x[_AUG] != 0."""
    return tuple(Fraction(x[j], x[_AUG]) if j in x else 0 for j in range(n_cols))


def _augmented(m, rhs, keep):
    """The primitive integer rows of [m | rhs] at the row indices `keep`."""
    rows = m._primitive_rows
    return [_primitive({**m.rows[i], _AUG: -rhs[i]}) if rhs[i] else rows[i] for i in keep]


def _solve_rows(sub, rows, n_cols, augmented=False):
    """Exact solution data from the rows `sub`; AssertionError unless it holds on all `rows`."""
    pivots, leftovers = _eliminate(sub)
    free = sorted(set(range(n_cols)).difference(c for c, _ in pivots))
    consistent = augmented and not leftovers
    vecs = [_back_solve(pivots, f) for f in free + [_AUG] * consistent]  # _AUG: (x, 1)
    bad = _first_failure(rows, vecs)
    if bad is not None:
        raise AssertionError("kernel vector fails m*v = 0" if bad < len(free)
                             else "particular solution fails m*x = rhs")
    kernel = []
    for vec in vecs[:len(free)]:
        sign = 1 if vec[min(vec)] > 0 else -1
        kernel.append(tuple(sign * vec.get(j, 0) for j in range(n_cols)))
    particular = _particular(vecs[-1], n_cols) if consistent else None
    return LinearSolution(rank=len(pivots), pivot_columns=tuple(c for c, _ in pivots),
                          kernel_basis=tuple(kernel), particular=particular)


def solve(m: SparseMatrix, rhs=None) -> LinearSolution:
    """Rank, pivot columns, kernel basis and, if rhs is given, the particular solution
    of m*x = rhs (None when rhs is inconsistent), as the module docstring computes
    and certifies them.  The kernel basis is canonical: primitive integer vectors,
    one per free column, first nonzero entry positive."""
    if rhs is None:
        return m._solution
    if len(rhs) != len(m.rows):
        raise ValueError("rhs length mismatch")
    for b in rhs:
        check_coefficient(b)
    x = _back_solve(_eliminate(_augmented(m, rhs, m.independent_rows))[0], _AUG)  # (x, 1) scaled
    if all(sum(v * x[c] for c, v in row.items() if c in x) == b * x[_AUG]
           for row, b in zip(m.rows, rhs)):
        return replace(m._solution, particular=_particular(x, m.n_cols))
    rows = _augmented(m, rhs, range(len(rhs)))
    return _solve_rows(rows, rows, m.n_cols, True)


def rank(m: SparseMatrix) -> int:
    """Rank over Q, certified: `solve(m).rank`, computed once per matrix."""
    return solve(m).rank
