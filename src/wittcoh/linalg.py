"""Exact rational sparse linear algebra: `solve` and `rank`.

A coefficient is an `int` or a `fractions.Fraction`, never converted: a float
is refused with TypeError, since it is a binary fraction rather than the
rational it was meant to be.  Rank, kernel and affine solves are exact, and
the kernel basis comes back as integer vectors, so every dimension reported
downstream is an exact integer.  The coefficient field is Q rather than C:
every structure constant handled by this package is rational, and
kernel/image dimensions of a rational matrix over Q equal those over C, so
nothing is lost by staying rational.

Two entries: `solve(m, rhs=None)` gives the rank, the canonical kernel basis
and a particular solution (None when rhs is inconsistent), each certified in
integer arithmetic; `rank(m)` is `solve(m).rank`, so both share one
certificate.  Every row is scaled once to a primitive integer row, and one
fraction-free elimination core (Bareiss 1968) combines rows by
cross-multiplication, with a gcd reduction after every update to bound
coefficient growth.  Its pivot rule is deterministic (smallest absolute value
by bit length, ties broken by row order), so identical inputs always produce
identical outputs.

Every system is solved in two passes:

* Selection: the rows are eliminated modulo the prime _P = 1073741789, with
  Markowitz pivoting (the column with the fewest active rows, then its
  sparsest row; the right-hand side column last).  The rows that become
  pivots are independent mod _P, hence independent over Q.
* Exact pass: the integer core runs on the selected rows only.

Certificate: every kernel vector of the selected rows, built in integers, and
the particular solution must give an integer dot product of 0 with *every*
row; one sweep over the rows checks all of them in full.  Then the
kernel of the subset equals the kernel of m, so the row spaces agree, and the
reduced echelon form, which depends only on the row space, is the one full
elimination would give: rank, pivot columns, kernel basis and particular
solution are identical.  A subset that is inconsistent over Q makes m
inconsistent too.  If the certificate fails (an unlucky prime, under which
the selected rows miss part of the row space over Q), every row is
eliminated instead, and that fallback raises AssertionError on its own
failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

_AUG = -1  # virtual column index used for the right-hand side
_P = 1073741789  # prime below 2**30: every residue mod _P is one 30-bit int digit


def check_coefficient(v):
    """v itself when it is an int or a Fraction; TypeError for anything else."""
    if not isinstance(v, (int, Fraction)):
        raise TypeError(f"coefficient {v!r} is not an int or a Fraction")
    return v


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix over Q; only nonzero entries are stored."""

    n_rows: int
    n_cols: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative matrix dimensions")
        clean = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"entry ({r},{c}) outside {self.n_rows}x{self.n_cols}")
            if check_coefficient(v):
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    def row_dicts(self):
        """Rows as {col: coefficient} dicts (zero rows omitted from values, kept as empties)."""
        rows = [dict() for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def take_rows(self, keep) -> "SparseMatrix":
        """The submatrix of the rows listed in `keep`, in that order."""
        rows = self.row_dicts()
        return SparseMatrix(len(keep), self.n_cols,
                            {(i, c): v for i, r in enumerate(keep) for c, v in rows[r].items()})

    def apply(self, vec):
        """Matrix-vector product, exact."""
        if len(vec) != self.n_cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.n_rows
        for (r, c), v in self.entries.items():
            out[r] += v * vec[c]
        return tuple(out)


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


def _eliminate(rows, n_cols):
    """Forward-eliminate primitive integer rows; returns (pivot list, leftover rows).

    `rows` is a list of {col: int} dicts (the virtual _AUG column is never
    chosen as a pivot).  Pivots are (col, row) in increasing column order;
    leftovers are the nonzero rows no pivot cleared, so they can only hold _AUG.
    """
    active = [(i, r) for i, r in enumerate(rows) if r]
    pivots = []
    for col in range(n_cols):
        cand = [(i, r) for i, r in active if r.get(col)]
        if not cand:
            continue
        idx, piv = min(cand, key=lambda ir: (abs(ir[1][col]).bit_length(), ir[0]))
        nxt = []
        for i, r in active:
            if i == idx:
                continue
            if r.get(col):
                r = _combine(r, piv, col)
                if not r:
                    continue
            nxt.append((i, r))
        active = nxt
        pivots.append((col, piv))
    return pivots, [r for _, r in active]


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


def _null_vector(pivots, f):
    """The primitive integer vector, positive at column f and zero off f and the pivot
    columns, that the reduced pivot rows (c, r) annihilate: v_f = L = lcm(r[c]) over the
    rows with r[f] != 0, and v_c = -r[f] * (L // r[c]) on them."""
    hits = [(c, r) for c, r in pivots if r.get(f)]
    scale = lcm(*(r[c] for c, r in hits))
    return _primitive({f: scale, **{c: -r[f] * (scale // r[c]) for c, r in hits}})


def _select(rows):
    """Sorted indices of rows that are linearly independent modulo _P.

    Markowitz-style elimination mod _P on a column -> rows index: each step
    pivots on the remaining column with the fewest active rows, and in it on
    the row with the fewest entries (ties by index); the _AUG column comes
    last.  The rows chosen as pivots are independent mod _P, hence over Q.
    """
    active, by_col = {}, {}
    for i, row in enumerate(rows):
        r = {c: v % _P for c, v in row.items() if v % _P}
        if r:
            active[i] = r
            for c in r:
                by_col.setdefault(c, set()).add(i)
    chosen = []
    while by_col:
        col = min(by_col, key=lambda c: (c == _AUG, len(by_col[c]), c))
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
            if not by_col[c]:
                del by_col[c]
        chosen.append(idx)
    return sorted(chosen)


def _solve_rows(sub, rows, n_cols, augmented):
    """Exact solution data from the rows `sub`; AssertionError unless it holds on all `rows`."""
    pivots, leftovers = _eliminate(sub, n_cols)
    # back-substitute: clear each pivot column from the earlier pivot rows
    for k in range(len(pivots) - 1, -1, -1):
        col, piv = pivots[k]
        for j in range(k):
            cj, rj = pivots[j]
            if rj.get(col):
                pivots[j] = (cj, _combine(rj, piv, col))

    free = sorted(set(range(n_cols)).difference(c for c, _ in pivots))
    consistent = augmented and not leftovers
    vecs = [_null_vector(pivots, f) for f in free + [_AUG] * consistent]  # _AUG: (x, 1)
    bad = _first_failure(rows, vecs)
    if bad is not None:
        raise AssertionError("kernel vector fails m*v = 0" if bad < len(free)
                             else "particular solution fails m*x = rhs")
    kernel = []
    for vec in vecs[:len(free)]:
        sign = 1 if vec[min(vec)] > 0 else -1
        kernel.append(tuple(sign * vec.get(j, 0) for j in range(n_cols)))
    x = vecs[-1] if consistent else None
    particular = x and tuple(Fraction(x[j], x[_AUG]) if j in x else 0 for j in range(n_cols))

    return LinearSolution(rank=len(pivots), pivot_columns=tuple(c for c, _ in pivots),
                          kernel_basis=tuple(kernel), particular=particular)


def solve(m: SparseMatrix, rhs=None) -> LinearSolution:
    """Eliminate m (augmented by rhs if given) and return the full solution data.

    The kernel basis is canonical: primitive integer vectors, one per free
    column, first nonzero entry positive.  When rhs is inconsistent the
    particular solution is None.

    Every answer is certified exactly before it is returned.  Each integer row
    of [m | rhs] is a nonzero rational multiple of an input row, so an integer
    dot product of 0 with it is the identity m*v = 0 (or m*x = rhs).  The
    integer kernel vectors are independent: each is nonzero on its own free
    column and zero on every other one.  The system is solved exactly on the
    rows `_select` picks and certified against all of them in one sweep; if
    that certificate fails, every row is eliminated.
    """
    frac_rows = m.row_dicts()
    if rhs is not None:
        if len(rhs) != m.n_rows:
            raise ValueError("rhs length mismatch")
        for row, b in zip(frac_rows, rhs):
            if check_coefficient(b):
                row[_AUG] = -b
    rows = [_primitive(r) for r in frac_rows]
    augmented = rhs is not None
    try:
        return _solve_rows([rows[i] for i in _select(rows)], rows, m.n_cols, augmented)
    except AssertionError:
        pass  # the rows independent mod _P miss part of the row space over Q
    return _solve_rows(rows, rows, m.n_cols, augmented)


def rank(m: SparseMatrix) -> int:
    """Rank over Q, certified like `solve`; deterministic for a given input."""
    return solve(m).rank
