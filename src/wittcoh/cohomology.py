"""Windowed cohomology: H^q_d on a finite window with boundary filtering.

Truncating an infinite index set to a window creates boundary artifacts, so
every computation here separates three regions:

* unknowns live on the full window;
* cocycle equations use only output tuples whose evaluation never references
  an index outside the window (interior-only);
* class survival is decided on the margin-shrunk core: a cocycle counts
  toward dim_stable only if its restriction to the core comparison set is not
  matched there by the restriction of some coboundary.

The comparison set is the core-admissible output tuples that are also legal
for the incoming differential, so no coboundary value is ever fabricated.
For weights |d| <= margin that is exactly the set of core-admissible tuples.
Cocycle equations (delta_q) and coboundaries (delta_{q-1} on the comparison
set) both come from `cochains.delta_matrix`.  Every report validates its
window through `_check_window`: lo < 0 < hi, margin >= 2, 2*margin < hi - lo.

Weight 0 is the paper's argument: eq. (4), the six-term equation, at k = 1 is
eq. (5), and the replay adds a few k = 2 equations (`replay.k2_specializations`,
at i = -2 and -3), so these determine a cocycle once section 2's normalization
fixes c_{i,1} and c_{-2,2}.  `leading_tuples` lists their rows: the rows whose
tuple holds 1, and those whose tuple holds 2 with -2 or -3.  At weight 0
`cohomology_dim` decides by one count on them, with no kernel and no prime;
`omitted_triples` comes from `omitted_count` first, so a window whose brackets
raise raises before any row is built.  If a propagation from seed columns S
fixes the columns F of a matrix (a row with one unfixed entry fixes it,
`_fixed_from`), a kernel vector is determined by its values on S and on the
unfixed columns, so the rank over Q is at least |F| - |S|.  For p = q, q - 1
let F_p be fixed over delta_p's leading rows from S_p, the columns whose tuple
holds 1 and (-2,2).  Let K = ker delta_q on the n columns and B = delta_{q-1},
whose rows are those n columns when `omitted_count` finds none omitted; given
the Jacobi identity, im B lies in K (the hypothesis the nonzero weights use
too).  If sum_p (|F_p| - |S_p|) = n, then rank(B) >= |F_{q-1}| - |S_{q-1}| =
n - (|F_q| - |S_q|) >= n - rank(delta_q) = dim K >= rank(B), hence K = im B:
every cocycle is a coboundary, dim_stable = 0 and dim_cocycles is the rank of
the comparison matrix (B's rows on the comparison set), fixed at q = 2 from
b_1's column as below.  The propagation fixes as much over these rows as over
every row through e_1 or e_2.  For the Witt algebra at q = 2 the count closes
on every window with lo in [-10,-2] and hi in [2,10] except the 24 with
lo >= -7 and hi <= 5, and never at the Gelfand-Fuks class (trivial
coefficients, q = 2).  Where it does not close, `cohomology_by_elimination` runs.

A nonzero weight d needs no kernel.  Let iota put e_0 in the first slot
(`_iota`).  As e_0 acts on C^q_d by d, the Cartan formula reads
delta_{q-1} iota + iota delta_q = -d I here; `cohomology_dim` checks it
exactly on each comparison row t, reading the row (0, t) of delta_q (never
omitted: it needs the indices that row t of delta_{q-1} needs).  Those rows
alone are expanded, by the expansion that builds all of delta_q
(`delta_matrix(..., rows=...)`), and `omitted_triples` comes from
`cochains.omitted_count`, which builds all of delta_q only where a bracket on
the window raises.  With h = -iota/d, a cocycle z has delta z = 0 at the rows
(0, t), so z = delta(h z) on the comparison set and dim_stable = 0.  Given the
Jacobi identity, delta of a (q-1)-cochain extended by zero to W is a cocycle,
equal to the comparison matrix's image on its rows (interior for
delta_{q-1}), so dim_cocycles is that matrix's rank; at q = 2 it is #read - 1
(#read: the columns its rows read) when delta_0's column, in the kernel as
delta_1 delta_0 = 0 on interior rows, passes an exact check and fixing b_0's
column fixes every read column, so dim ker <= 1 (`_fixed_from`: the row
(0, u) reads b_u times -d; at d = 0 the seed is b_1, as the row (i, 1) reads
b_{i+1}); `solve` decides where it stalls (a core without 0).  Where the
identity fails (e_0 is not a grading element, as for an abelian bracket),
`cohomology_by_elimination` decides.

Alongside the dimension counts the module houses the two constructive moves
that drive everything downstream: reduction of an arbitrary cocycle to weight
zero via b(e_i) = sum_{d != 0} c_{i,0;d}/d e_{i+d}, and the unique diagonal
normalization that clears the (i,1) column and the (-2,2) entry of a weight-0
cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algebra import BUILTIN, GradedLieAlgebra, Window
from .cochains import (
    ADJOINT,
    CENTRAL_TARGET,
    TRIVIAL,
    Cochain,
    MixedCochain,
    basis_tuples,
    bracket_raises,
    cochain_to_text,
    cocycle_violation,
    delta_matrix,
    differential,
    omitted_count,
    weight_components,
)
from .errors import BoundaryError, ConfigError, NotACocycleError
from .linalg import SparseMatrix, rank, solve


@dataclass(frozen=True)
class CohomologyReport:
    algebra: str
    degree: int
    weight: int
    window: Window
    margin: int
    coeffs: str
    dim_cocycles: int
    dim_coboundaries: int
    dim_stable: int
    representatives: tuple = ()
    stabilization: tuple = ()
    omitted_triples: int = 0

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "degree": self.degree,
            "weight": self.weight,
            "window": f"{self.window.lo}:{self.window.hi}",
            "margin": self.margin,
            "coefficients": self.coeffs,
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_stable": self.dim_stable,
            "representatives": [cochain_to_text(r) for r in self.representatives],
            "stabilization": [[f"{w.lo}:{w.hi}", n] for w, n in self.stabilization],
            "omitted_triples": self.omitted_triples,
        }


def _check_window(window: Window, margin: int):
    if not window.lo < 0 < window.hi:
        raise ConfigError(f"window {window} must straddle zero (lo < 0 < hi)")
    if margin < 2:
        raise ConfigError(f"margin must be at least 2, got {margin}")
    if 2 * margin >= window.hi - window.lo:
        raise ConfigError(f"window {window} too small for margin {margin}")


def leading_tuples(q: int, d: int, window: Window, coeffs: str = ADJOINT):
    """The tuples of delta_q's leading rows (module docstring) in basis order, each
    listed from the tuples of its other indices: those through 1, eq. (5), and
    through 2 with -2 or -3, the k = 2 rows."""
    found = set()
    for fixed in ((1,), (-2, 2), (-3, 2)):
        if len(fixed) <= q + 1 and all(a in window for a in fixed):
            found.update(tuple(sorted(fixed + rest)) for rest in
                         basis_tuples(q + 1 - len(fixed), d + sum(fixed), window, coeffs)
                         if set(fixed).isdisjoint(rest))
    return sorted(found)


def cocycle_matrix(alg: GradedLieAlgebra, q: int, d: int, window: Window,
                   coeffs: str = ADJOINT):
    """(matrix of delta on C^q_d over interior tuples, column tuples, omitted count).

    Rows come generator-first.  The rows the paper's argument needs lead
    (`leading_tuples`).  Within each part rows are ordered lexicographically
    by the sorted absolute indices of their tuple, ties in basis order, so the
    equations through e_0, e_{+-1}, e_{+-2} come early.  In `solve` the pivot
    ties, broken by row index, favour them, which keeps the fallback's fill
    low.  No answer depends on the order: `solve` returns data of the reduced
    echelon form, a function of the row space alone.  The weight-0 count
    builds the leading rows alone; `cohomology_by_elimination` builds delta_q.
    """
    matrix, rows, omitted = delta_matrix(alg, q, d, window, coeffs)
    leads = set(leading_tuples(q, d, window, coeffs))
    order = sorted(range(len(rows)), key=lambda r: (rows[r] not in leads, sorted(map(abs, rows[r]))))
    return matrix.take_rows(order), basis_tuples(q, d, window, coeffs), len(omitted)


def comparison_tuples(alg: GradedLieAlgebra, q: int, d: int, window: Window,
                      margin: int, coeffs: str = ADJOINT):
    """Core-admissible q-tuples on which cocycles and coboundaries are compared.

    Returns (tuples, delta_{q-1} restricted to those rows); the matrix columns
    follow basis_tuples(q - 1, ...), and for q = 0 it has none.
    """
    comp = basis_tuples(q, d, window.core(margin), coeffs)
    if q == 0:
        return comp, SparseMatrix([{}] * len(comp), 0)
    if bracket_raises(alg, window):
        delta_matrix(alg, q - 1, d, window, coeffs)  # raises what a build of all of delta_{q-1} raises
    matrix, rows, _ = delta_matrix(alg, q - 1, d, window, coeffs, rows=comp)
    return rows, matrix


@lru_cache(maxsize=32)
def _comparisons(*key):
    """`comparison_tuples(*key)`, built once per key for every primitive."""
    return comparison_tuples(*key)


@lru_cache(maxsize=64)
def _system(key: tuple, keep: tuple) -> SparseMatrix:
    """The rows `keep` of `_comparisons(*key)`'s matrix: one matrix, so one selection
    and one certified kernel in `solve`, for every right-hand side of a system."""
    return _comparisons(*key)[1].take_rows(keep)


def coboundary_primitive(alg: GradedLieAlgebra, c: Cochain, margin: int, exclude=frozenset()):
    """Solve delta(b) = c on the core comparison tuples; None when obstructed.

    Tuples in `exclude` carry no trustworthy value of c and are dropped from
    the equation set.  Each comparison set, and each matrix of its kept rows,
    is built once per algebra, degree, weight, window, margin and coefficients
    in a bounded cache, which every call on one window shares.
    """
    q, d, window, coeffs = c.degree, c.weight, c.window, c.coeffs
    if q < 1:
        raise ValueError("0-cochains have no primitives")
    key = (alg, q, d, window, margin, coeffs)
    comp = _comparisons(*key)[0]
    keep = tuple(r for r, t in enumerate(comp) if t not in exclude)
    x = solve(_system(key, keep), [c.entries.get(comp[r], 0) for r in keep]).particular
    if x is None:
        return None
    cols = basis_tuples(q - 1, d, window, coeffs)
    return Cochain(q - 1, d, window, coeffs, {t: x[i] for i, t in enumerate(cols) if x[i]})


def _iota(tuples):
    """For each u, c(e_0, *u) = sign * c_t as (t, sign); None where u holds 0."""
    return [None if 0 in u else (tuple(sorted(u + (0,))), (-1) ** sum(a < 0 for a in u))
            for u in tuples]


def _fixed_from(rows, *seeds):
    """The columns fixed from `seeds`: they, then each column that is a row's one unfixed
    entry, with a count of unfixed entries kept per row."""
    rows_of, unfixed = {}, [len(row) for row in rows]
    for r, row in enumerate(rows):
        for c in row:
            rows_of.setdefault(c, []).append(r)
    fixed, queue = set(), [*seeds, *(c for row in rows if len(row) == 1 for c in row)]
    while queue:
        if (c := queue.pop()) not in fixed:
            fixed.add(c)
            for r in rows_of.get(c, ()):
                unfixed[r] -= 1
                if unfixed[r] == 1:
                    queue += rows[r].keys() - fixed
    return fixed


def _rank_from_seed(m: SparseMatrix, seed, column) -> int:
    """m's rank: #read - 1 by the q = 2 count (module docstring), else `solve(m).rank`."""
    read = set().union(*m.rows)
    exact = column and not any(sum(v * column.get(c, 0) for c, v in row.items()) for row in m)
    closes = exact and any(column.get(c) for c in read) and read <= _fixed_from(m.rows, seed)
    return len(read) - 1 if closes else solve(m).rank


def cohomology_dim(alg: GradedLieAlgebra, q: int, d: int, window: Window,
                   margin: int, coeffs: str = ADJOINT) -> CohomologyReport:
    """Stable dimension of H^q_d on the window, with surviving representatives.

    dim_cocycles and dim_coboundaries are both measured on the core comparison
    set; dim_stable is their difference, so it counts cocycle classes whose
    core restriction no coboundary can reproduce.  A nonzero weight is decided
    by the Cartan homotopy, and weight 0 (q >= 1), when it closes, by the
    count of the module docstring: a propagation over the leading rows of
    delta_q and delta_{q-1} from the seeds of the paper's normalization, the
    columns through 1 and (-2,2).  Both read a cocycle space spanned by
    coboundaries, so both need a Lie bracket on the window (the built-ins are;
    the CLI checks a loaded one by order 0 of `deformation.jacobi_defect`).
    Everything else is `cohomology_by_elimination`.
    Adjoint coefficients with a central element are refused: cochains neither
    take nor give the central element, so even H^0_0, the center, would read 0.
    """
    if q not in (0, 1, 2):
        raise ConfigError(f"degree must be 0, 1 or 2, got {q}")
    _check_window(window, margin)
    if coeffs == ADJOINT and alg.has_central:
        raise ConfigError(CENTRAL_TARGET)
    if d:
        omitted = omitted_count(alg, q, d, window, coeffs)
        comp, coboundary = comparison_tuples(alg, q, d, window, margin, coeffs)
        cols = basis_tuples(q, d, window, coeffs)
        lower = _iota(basis_tuples(q - 1, d, window, coeffs)) if q else []
        hits = _iota(comp)
        delta, rows, _ = delta_matrix(alg, q, d, window, coeffs,
                                      rows=[hit[0] for hit in hits if hit])
        row_of = dict(zip(rows, delta))
        for t, hit, row in zip(comp, hits, coboundary):
            up = row_of.get(hit[0]) if hit else {}  # the row (0, t) of delta_q; None if omitted
            acc = {t: d}  # row t of delta_{q-1} iota + iota delta_q + d I
            terms = [(*lower[j], v) for j, v in row.items() if lower[j]]
            for u, sign, v in terms + [(cols[k], hit[1], v) for k, v in (up or {}).items()]:
                acc[u] = acc.get(u, 0) + sign * v
            if up is None or any(acc.values()):
                return cohomology_by_elimination(alg, q, d, window, margin, coeffs)
    elif q:
        omitted = omitted_count(alg, q, d, window, coeffs)  # raises what a build of delta_q raises
        fixed = 0  # the sum over p of |F_p| - |S_p| (module docstring)
        for p in (q, q - 1):
            seeds = [j for j, t in enumerate(basis_tuples(p, d, window, coeffs))
                     if 1 in t or t == (-2, 2)]
            lead = delta_matrix(alg, p, d, window, coeffs, rows=leading_tuples(p, d, window, coeffs))[0]
            fixed += len(_fixed_from(lead.rows, *seeds)) - len(seeds)
        lost = omitted_count(alg, q - 1, d, window, coeffs)  # rows of B, columns of delta_q
        if lost or fixed != len(basis_tuples(q, d, window, coeffs)):
            return cohomology_by_elimination(alg, q, d, window, margin, coeffs)
        coboundary = comparison_tuples(alg, q, d, window, margin, coeffs)[1]
    else:
        return cohomology_by_elimination(alg, q, d, window, margin, coeffs)
    column = seed = None  # delta_0's one column in C^1_d's basis, in the comparison matrix's kernel
    if q == 2 and not bracket_raises(alg, window):
        below, images, _ = delta_matrix(alg, 0, d, window, coeffs)
        index = {t: i for i, t in enumerate(basis_tuples(1, d, window, coeffs))}
        column = {index[t]: v for t, row in zip(images, below) for v in row.values()}
        seed = index.get((0,) if d else (1,))  # a row (0, u) reads b_0 and -d b_u; b_1 at d = 0
    n = _rank_from_seed(coboundary, seed, column)  # every cocycle is a coboundary
    return CohomologyReport(alg.name, q, d, window, margin, coeffs, n, n, 0,
                            stabilization=((window, 0),), omitted_triples=omitted)


def cohomology_by_elimination(alg: GradedLieAlgebra, q: int, d: int, window: Window,
                              margin: int, coeffs: str = ADJOINT) -> CohomologyReport:
    """`cohomology_dim`'s report from the kernel of delta_q: the fallback and the oracle."""
    matrix, cols, omitted = cocycle_matrix(alg, q, d, window, coeffs)
    kernel = solve(matrix).kernel_basis

    comp, coboundary = comparison_tuples(alg, q, d, window, margin, coeffs)
    # each cocycle on the comparison set (a subset of cols), as a column
    col_of = {t: i for i, t in enumerate(cols)}
    z_rows = [{j: vec[i] for j, vec in enumerate(kernel) if vec[i]} for i in map(col_of.get, comp)]
    dim_v = rank(SparseMatrix(z_rows, len(kernel)))
    # one elimination of [coboundaries | cocycles]: a pivot column is independent
    # of every column before it, so the cocycle pivots are the surviving classes
    n_w = coboundary.n_cols
    joint = [{**w, **{n_w + j: v for j, v in z.items()}} for w, z in zip(coboundary, z_rows)]
    pivots = solve(SparseMatrix(joint, n_w + len(kernel))).pivot_columns
    dim_w = sum(1 for c in pivots if c < n_w)
    dim_stable = len(pivots) - dim_w

    representatives = []
    for c in pivots[dim_w:]:
        vec = kernel[c - n_w]
        rep = Cochain(q, d, window, coeffs, {t: vec[i] for i, t in enumerate(cols) if vec[i]})
        representatives.append((Fraction(1) / rep.entries[min(rep.entries)]) * rep)

    return CohomologyReport(
        algebra=alg.name, degree=q, weight=d, window=window, margin=margin,
        coeffs=coeffs, dim_cocycles=dim_v, dim_coboundaries=dim_v - dim_stable,
        dim_stable=dim_stable, representatives=tuple(representatives),
        stabilization=((window, dim_stable),), omitted_triples=omitted,
    )


def stability_scan(alg: GradedLieAlgebra, q: int, d: int, windows, margin: int,
                   coeffs: str = ADJOINT) -> CohomologyReport:
    """Run cohomology_dim over several windows; report the largest, with the series."""
    series = []
    final = None
    for window in windows:
        final = cohomology_dim(alg, q, d, window, margin, coeffs)
        series.append((window, final.dim_stable))
    if final is None:
        raise ConfigError("no windows given")
    return replace(final, stabilization=tuple(series))


# -- constructive weight reduction -------------------------------------------


def _as_mixed(c) -> MixedCochain:
    if isinstance(c, Cochain):
        return MixedCochain.from_cochain(c)
    if isinstance(c, MixedCochain):
        return c
    raise TypeError(f"expected a cochain, got {type(c).__name__}")


def reduce_to_weight_zero(alg: GradedLieAlgebra, c, window: Window):
    """Strip the nonzero-weight part of a cocycle by an explicit coboundary.

    Returns (b, residual) with b(e_i) = sum_{d != 0} c_{i,0;d}/d e_{i+d} (h above) and
    residual = c - delta(b); on the core of the window the residual is pure
    weight zero (in particular b(e_0) = 0 holds componentwise, since the
    d-component of b(e_0) is c_{0,0;d}/d and c vanishes on repeated
    arguments).
    """
    mixed = _as_mixed(c)
    violation = cocycle_violation(alg, mixed)
    if violation:
        d, t = violation
        raise NotACocycleError(t, f"weight {d} component fails the cocycle condition")
    parts = weight_components(mixed)
    b_parts = []
    residual_parts = []
    for d, part in parts.items():
        if d == 0:
            residual_parts.append(part)
            continue
        cols = basis_tuples(1, d, window, ADJOINT)
        b_d = Cochain(1, d, window, ADJOINT, {  # h = -iota/d
            u: -hit[1] * part.entries[hit[0]] / Fraction(d)
            for u, hit in zip(cols, _iota(cols)) if hit and hit[0] in part.entries})
        b_parts.append(b_d)
        residual_parts.append(part - differential(alg, b_d))
    b = MixedCochain.from_components(1, window, b_parts)
    residual = MixedCochain.from_components(2, window, residual_parts)
    return b, residual


# -- diagonal normalization (weight zero) --------------------------------------


def normalize_weight_zero(alg: GradedLieAlgebra, c: Cochain, window: Window):
    """The unique diagonal coboundary shift enforcing c(e_i, e_1) = 0 and c(e_{-2}, e_2) = 0.

    Construction order: b_1 = 0; then b_0, b_{-1}, b_{-2}, ... from the (i,1)
    column going down; then b_2 from the (-2,2) entry; then b_3, b_4, ...
    going up.  Each b_i is forced, so the output is the unique normalized
    representative of the class of c.
    """
    if c.weight != 0 or c.coeffs != ADJOINT or c.degree != 2:
        raise ValueError("normalization applies to weight-0 adjoint 2-cochains")
    if c.window != window:
        raise ValueError("cochain window mismatch")
    violation = cocycle_violation(alg, c)
    if violation:
        raise NotACocycleError(violation[1])
    for need in (-2, -1, 0, 1, 2):
        if need not in window:
            raise BoundaryError(f"window {window} lacks index {need} needed to determine b_2")

    b_vals = {1: 0}
    b_vals[0] = -c.component(0, 1)
    for i in range(-1, window.lo - 1, -1):
        b_vals[i] = b_vals[i + 1] - c.component(i, 1) / Fraction(1 - i)
    b_vals[2] = b_vals[0] - b_vals[-2] - c.component(-2, 2) / Fraction(4)
    for i in range(2, window.hi):
        b_vals[i + 1] = b_vals[i] + c.component(i, 1) / Fraction(1 - i)

    b = Cochain(1, 0, window, ADJOINT, {(i,): v for i, v in b_vals.items() if v})
    c_norm = c - differential(alg, b)

    for i in range(window.lo, window.hi):
        if i != 1 and c_norm.component(i, 1) != 0:
            raise AssertionError(f"normalization failed to clear ({i},1)")
    if c_norm.component(-2, 2) != 0:
        raise AssertionError("normalization failed to clear (-2,2)")
    return b, c_norm


# -- the central extension ------------------------------------------------------


def central_extension_dim(window: Window, margin: int) -> CohomologyReport:
    """H^2 of witt with trivial coefficients in weight 0 on the window.

    The surviving representative is proportional to n^3 - n along the
    antidiagonal (the Gelfand-Fuks cocycle) and vanishes at (e_{-1}, e_1)
    with no renormalization: (-1,1), the last column of the cocycle matrix,
    is always a free one, since the cocycle delta(e_0 -> 1) is 2n at
    (e_{-n}, e_n) and so nonzero there; the representative is the canonical
    kernel vector of the free column (-2,2); and a canonical kernel vector is
    zero on every other free column.
    """
    return cohomology_dim(BUILTIN["witt"](), 2, 0, window, margin, coeffs=TRIVIAL)
