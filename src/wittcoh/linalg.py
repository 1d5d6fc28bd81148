"""Exact rational sparse linear algebra.

Coefficients are arbitrary-precision rationals (`fractions.Fraction`), so rank,
kernel and affine solves are exact; every dimension reported downstream is an
exact integer.  The coefficient field is Q rather than C: every structure
constant handled by this package is rational, and kernel/image dimensions of a
rational matrix over Q equal those over C, so nothing is lost by staying
rational.

Elimination is fraction-free: rows are scaled to primitive integer vectors and
combined by cross-multiplication, with a gcd reduction after every update to
bound coefficient growth.  The pivot rule is deterministic (smallest absolute
value by bit length, ties broken by row order), so identical inputs always
produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

_AUG = -1  # virtual column index used for the right-hand side


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
            v = Fraction(v)
            if v != 0:
                clean[(r, c)] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_rows(cls, rows) -> "SparseMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = Fraction(v)
        return cls(n_rows, n_cols, entries)

    def row_dicts(self):
        """Rows as {col: Fraction} dicts (zero rows omitted from values, kept as empties)."""
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
        out = [Fraction(0)] * self.n_rows
        for (r, c), v in self.entries.items():
            out[r] += v * vec[c]
        return tuple(out)


@dataclass(frozen=True)
class LinearSolution:
    """Rank, right kernel basis and (optionally) a particular solution."""

    rank: int
    kernel_basis: tuple
    particular: tuple | None = None


def _int_row(row_dict):
    """Scale a {col: Fraction} row to a primitive {col: int} row."""
    if not row_dict:
        return {}
    denom = 1
    for v in row_dict.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {c: int(v * denom) for c, v in row_dict.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def _reduce_row(row):
    """Divide an integer row by the gcd of its entries."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(rows, n_cols):
    """Forward-eliminate integer rows; returns (pivot list, leftover rows).

    `rows` is a list of {col: int} dicts (the virtual _AUG column is never
    chosen as a pivot).  Pivot rows come back fully back-substituted, i.e. each
    pivot row is zero on every other pivot column.
    """
    active = [(i, dict(r)) for i, r in enumerate(rows) if r]
    pivots = []  # (col, row_dict), increasing col
    for col in range(n_cols):
        cand = [(i, r) for i, r in active if r.get(col)]
        if not cand:
            continue
        idx, piv = min(cand, key=lambda ir: (abs(ir[1][col]).bit_length(), ir[0]))
        active = [(i, r) for i, r in active if i != idx]
        p = piv[col]
        nxt = []
        for i, r in active:
            v = r.get(col)
            if v:
                new = {}
                for c in r.keys() | piv.keys():
                    w = p * r.get(c, 0) - v * piv.get(c, 0)
                    if w:
                        new[c] = w
                r = _reduce_row(new)
                if not r:
                    continue
            nxt.append((i, r))
        active = nxt
        pivots.append((col, piv))
    # back-substitute earlier pivot rows against later ones
    for k in range(len(pivots) - 1, -1, -1):
        col, piv = pivots[k]
        for m in range(k):
            cm, rm = pivots[m]
            v = rm.get(col)
            if v:
                p = piv[col]
                new = {}
                for c in rm.keys() | piv.keys():
                    w = p * rm.get(c, 0) - v * piv.get(c, 0)
                    if w:
                        new[c] = w
                pivots[m] = (cm, _reduce_row(new))
    return pivots, [r for _, r in active]


def _canonical_vector(vec):
    """Scale a rational vector to a primitive integer vector, first nonzero positive."""
    nz = [v for v in vec if v]
    if not nz:
        return tuple(vec)
    denom = 1
    for v in nz:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(Fraction(v) for v in ints)


def solve(m: SparseMatrix, rhs=None, check=True) -> LinearSolution:
    """Eliminate m (augmented by rhs if given) and return the full solution data.

    The kernel basis is canonical: primitive integer vectors, one per free
    column, first nonzero entry positive.  When rhs is inconsistent the
    particular solution is None.
    """
    rows = [_int_row(r) for r in m.row_dicts()]
    if rhs is not None:
        if len(rhs) != m.n_rows:
            raise ValueError("rhs length mismatch")
        frac_rows = m.row_dicts()
        for i, b in enumerate(rhs):
            b = Fraction(b)
            if b != 0:
                frac_rows[i][_AUG] = -b
        rows = [_int_row(r) for r in frac_rows]
    pivots, leftovers = _eliminate(rows, m.n_cols)
    pivot_cols = [c for c, _ in pivots]
    free_cols = [c for c in range(m.n_cols) if c not in set(pivot_cols)]

    kernel = []
    for f in free_cols:
        vec = [Fraction(0)] * m.n_cols
        vec[f] = Fraction(1)
        for c, r in pivots:
            vf = r.get(f)
            if vf:
                vec[c] = Fraction(-vf, r[c])
        kernel.append(_canonical_vector(vec))

    particular = None
    if rhs is not None:
        feasible = all(not lr or set(lr) != {_AUG} for lr in leftovers)
        if feasible:
            vec = [Fraction(0)] * m.n_cols
            for c, r in pivots:
                va = r.get(_AUG)
                if va:
                    vec[c] = Fraction(-va, r[c])
            particular = tuple(vec)

    if check:
        for v in kernel:
            if any(m.apply(v)):
                raise AssertionError("kernel vector fails m*v = 0")
        if kernel:
            km = SparseMatrix(
                len(kernel), m.n_cols,
                {(i, j): v for i, row in enumerate(kernel) for j, v in enumerate(row) if v},
            )
            re_piv, _ = _eliminate([_int_row(r) for r in km.row_dicts()], m.n_cols)
            if len(re_piv) != len(kernel):
                raise AssertionError("kernel basis not independent under re-elimination")
        if particular is not None:
            if list(m.apply(particular)) != [Fraction(b) for b in rhs]:
                raise AssertionError("particular solution fails m*x = rhs")

    return LinearSolution(rank=len(pivots), kernel_basis=tuple(kernel), particular=particular)


def rank(m: SparseMatrix) -> int:
    """Rank over Q; deterministic for a given input."""
    rows = [_int_row(r) for r in m.row_dicts()]
    pivots, _ = _eliminate(rows, m.n_cols)
    return len(pivots)


def kernel_basis(m: SparseMatrix):
    """Basis of the right null space; m.apply(v) is exactly zero for each v."""
    return list(solve(m).kernel_basis)


def solve_affine(m: SparseMatrix, rhs):
    """Some x with m*x = rhs, or None when the system is infeasible."""
    return solve(m, rhs=rhs).particular


def row_span_rank(vectors, n_cols) -> int:
    """Rank of the span of coordinate vectors (helper for dimension counting)."""
    rows = []
    for v in vectors:
        rows.append(_int_row({c: Fraction(x) for c, x in enumerate(v) if x}))
    pivots, _ = _eliminate(rows, n_cols)
    return len(pivots)
