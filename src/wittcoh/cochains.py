"""Weight-homogeneous cochains on a finite index window, and the differential.

A q-cochain of weight d with adjoint coefficients stores one exact rational
per strictly increasing index tuple (i_1 < ... < i_q); the full value is

    c(e_{i_1}, ..., e_{i_q}) = c_{i_1..i_q} * e_{i_1+...+i_q+d}

and tuples are admissible only when every argument index and the output index
i_1+...+i_q+d lie in the window.  Trivial coefficients drop the output
generator: values are scalars, and entries live on tuples summing to -d.
Antisymmetric completion is always computed, never stored, so equality
testing is exact on the canonical form.

The differential follows one master convention for all degrees,

    (delta c)(x_1, ..., x_{q+1}) =
        sum_{s<t} (-1)^{s+t-1} c([x_s,x_t], x_1, ..., ^x_s, ..., ^x_t, ...)
      + sum_s    (-1)^s       [x_s, c(x_1, ..., ^x_s, ...)]

(1-indexed, hats mark omissions; trivial coefficients drop the second sum).
The global sign is chosen so that for a weight-0 2-cochain the component of
delta c(e_i,e_j,e_k) on e_{i+j+k} is literally

    (j-i)c_{i+j,k} + (k-j)c_{j+k,i} + (i-k)c_{k+i,j}
      + (j-i+k)c_{k,j} + (j-i-k)c_{k,i} - (i+j-k)c_{i,j},

which is the six-term equation every downstream derivation specializes.  One
consequence worth knowing: for a diagonal 1-cochain b(e_i) = b_i e_i,

    delta b(e_i, e_j) = (j - i)(b_{i+j} - b_i - b_j) e_{i+j}.

Window truncation is interior-only: delta is evaluated only on tuples whose
every intermediate index (pairwise bracket targets, intermediate cochain
outputs) stays inside the window; the remaining tuples are omitted, and
`delta_matrix` returns them, so no equation is ever fabricated with missing
terms.

`delta_matrix` is the single builder of delta: cocycles, comparison sets,
coboundaries, primitives and `differential` (a matrix-vector product) all
read the sparse matrix it returns, and `cocycle_violation` (where delta c = 0
first fails) reads `differential`.  It expands the formula above in one loop
over the (q+1)-tuples (or the rows asked for), summing each row's terms into
one dict keyed by the column of the referenced q-tuple, and leaves a row at
the first bracket it reads that is lost.  Each bracket it reads comes from
`_bracket_table`, which reads the rule at every pair of the window once per
algebra and window (a bounded cache) and refuses a coefficient that is not an
int or a Fraction there, so the matrix is built unchecked; `omitted_count`
counts from the table's masks of lost pairs, or by a build if a bracket raises.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .algebra import CENTRAL, GradedLieAlgebra, Window
from .errors import ConfigError, OutOfWindowError
from .linalg import SparseMatrix, check_coefficient

ADJOINT = "adjoint"
TRIVIAL = "trivial"


CENTRAL_TARGET = ("differential needs bracket values inside the indexed span; "
                  "central targets are not supported as cochain arguments")


def _sort_with_sign(args, window: Window):
    """Sort window indices, tracking the permutation sign; None on repeats, and
    OutOfWindowError for an index outside the window."""
    for a in args:
        if a not in window:
            raise OutOfWindowError(f"argument index {a} outside window {window}")
    args = list(args)
    sign = 1
    # insertion sort; argument counts are at most 3
    for i in range(1, len(args)):
        j = i
        while j > 0 and args[j - 1] > args[j]:
            args[j - 1], args[j] = args[j], args[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(args, args[1:]):
        if a == b:
            return None, 0
    return tuple(args), sign


def bad_arguments(t, degree: int, window: Window):
    """None for a strictly increasing tuple of `degree` window indices; else the
    exception to raise, OutOfWindowError for an index outside the window."""
    if len(t) != degree:
        return ValueError(f"tuple {t} has {len(t)} arguments, expected {degree}")
    if any(a not in window for a in t):
        return OutOfWindowError(f"tuple {t} outside window {window}")
    if any(a >= b for a, b in zip(t, t[1:])):
        return ValueError(f"tuple {t} is not strictly increasing")
    return None


def _value_range(window: Window, coeffs: str) -> tuple[int, int]:
    """(lo, hi), the output indices a cochain's values live on: the window for
    ADJOINT, 0..0 for TRIVIAL (scalars); ValueError for other coefficients."""
    if coeffs == ADJOINT:
        return window.lo, window.hi
    if coeffs == TRIVIAL:
        return 0, 0
    raise ValueError(f"unknown coefficients {coeffs!r}")


def basis_tuples(degree: int, weight: int, window: Window, coeffs: str = ADJOINT):
    """Lexicographically ordered admissible tuples for C^q_d on the window."""
    if degree < 0 or degree > 3:
        raise ValueError("cochain degrees run from 0 to 3")
    lo, hi = _value_range(window, coeffs)
    lo, hi = lo - weight, hi - weight
    return [t for t in combinations(window.indices(), degree) if lo <= sum(t) <= hi]


@dataclass(frozen=True)
class Cochain:
    """Single-weight cochain; entries only at admissible strictly increasing tuples."""

    degree: int
    weight: int
    window: Window
    coeffs: str = ADJOINT
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        _value_range(self.window, self.coeffs)  # refuses unknown coefficients
        clean = {}
        for t, v in self.entries.items():
            t = tuple(t)
            if not self.admissible(t):
                raise OutOfWindowError(f"tuple {t} not admissible for C^{self.degree}_{self.weight} on {self.window}")
            if check_coefficient(v):
                clean[t] = v
        object.__setattr__(self, "entries", clean)

    def admissible(self, t) -> bool:
        out = sum(t) + self.weight
        return (bad_arguments(t, self.degree, self.window) is None
                and (out in self.window if self.coeffs == ADJOINT else out == 0))

    # -- vector space structure ------------------------------------------

    def _like(self, entries):
        return Cochain(self.degree, self.weight, self.window, self.coeffs, entries)

    def _check_compatible(self, other):
        if (self.degree, self.weight, self.window, self.coeffs) != (
                other.degree, other.weight, other.window, other.coeffs):
            raise ValueError("cochain shape mismatch")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_compatible(other)
        out = dict(self.entries)
        for t, v in other.entries.items():
            out[t] = out.get(t, 0) + v
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({t: -v for t, v in self.entries.items()})

    def __rmul__(self, scale):
        return self._like({t: scale * v for t, v in self.entries.items()})

    @property
    def is_zero(self) -> bool:
        return not self.entries

    # -- evaluation -------------------------------------------------------

    def component(self, *args) -> int | Fraction:
        """Rational coefficient at possibly unsorted arguments (antisymmetrized)."""
        t, sign = _sort_with_sign(args, self.window)
        if t is None:
            return 0
        if not self.admissible(t):
            raise OutOfWindowError(
                f"tuple {t} has no admissible output in C^{self.degree}_{self.weight} on {self.window}")
        return sign * self.entries.get(t, 0)


# -- the differential ------------------------------------------------------


@lru_cache(maxsize=16)
def _bracket_table(alg: GradedLieAlgebra, window: Window):
    """(found, rows, cols, raises): what the expansion of delta finds at each
    [e_a, e_b], read once per algebra and window.

    found[a][b], for a and b in the window, is the rule's {key: coefficient}
    dict; None when a key lies outside the window, so the row reading it is
    omitted; or the error the expansion raises, ConfigError for a central key
    and ValueError for one off the grading.  The rule's terms are read in
    order and the first such event decides; a b outside the window has no
    entry and reads as None.  rows[a] and cols[b] are the bit masks of the
    lost pairs, where found[a][b] is None, over b and over a, bit index - lo;
    raises says whether any entry is an error.  The tables are shared by every
    caller, so they are only read, and each error read is raised as a fresh
    exception of its type and message.  Every coefficient the rule returns
    must be an int or a Fraction (TypeError otherwise), so the matrices built
    from the table need no check of their own.
    """
    rule, lo, hi = alg.bracket_rule, window.lo, window.hi
    found = {a: {} for a in window.indices()}
    rows = dict.fromkeys(window.indices(), 0)
    cols = dict.fromkeys(window.indices(), 0)
    for a in window.indices():
        for b in window.indices():
            got = terms = rule(a, b)
            for v in terms.values():
                check_coefficient(v)
            for key in terms:
                if key == CENTRAL:
                    got = ConfigError(CENTRAL_TARGET)
                elif key != a + b:
                    got = ValueError(f"bracket is not graded: [e_{a}, e_{b}] hit e_{key}")
                elif lo <= key <= hi:
                    continue
                else:
                    got = None
                    rows[a] |= 1 << (b - lo)
                    cols[b] |= 1 << (a - lo)
                break
            found[a][b] = got
    return found, rows, cols, any(isinstance(got, Exception)
                                  for row in found.values() for got in row.values())


def delta_matrix(alg: GradedLieAlgebra, q: int, d: int, window: Window, coeffs: str = ADJOINT,
                 *, rows=None):
    """The matrix of delta from C^q_d to C^{q+1}_d on the window, interior-only.

    Columns follow basis_tuples(q, d, window, coeffs); rows are the
    (q+1)-tuples, in basis order, whose expansion stays inside the window.
    Returns (matrix, row tuples, omitted tuples), the omitted tuples being
    the (q+1)-tuples whose expansion would leave the window.  A central
    bracket value raises ConfigError, and one off the grading ValueError.
    Given `rows`, a list of (q+1)-tuples of the basis, only those are
    expanded, in that order.
    """
    if not 0 <= q <= 2:
        raise ValueError("differential supports cochain degrees 0..2")
    col = {t: i for i, t in enumerate(basis_tuples(q, d, window, coeffs))}
    found = _bracket_table(alg, window)[0]
    # bracket-composition terms (-1)^{s+t-1} c([x_s,x_t], rest), 1-indexed s < t
    pairs = [(s, t, 1 if (s + t) % 2 else -1) for s in range(q + 1) for t in range(s + 1, q + 1)]
    sides = range(q + 1) if coeffs == ADJOINT else ()  # trivial coefficients have no action terms
    matrix_rows, kept, omitted = [], [], []
    for xs in basis_tuples(q + 1, d, window, coeffs) if rows is None else rows:
        row = {}  # column of a referenced q-tuple -> coefficient of its entry in delta(c)(xs)
        for s, t, sign in pairs:
            got = found[xs[s]].get(xs[t])
            if not isinstance(got, dict):
                break
            rest = xs[:s] + xs[s + 1:t] + xs[t + 1:]
            for key, coeff in got.items():
                # sort (key, *rest): key passes k arguments of the sorted rest
                k = bisect_left(rest, key)
                if k < len(rest) and rest[k] == key:
                    continue
                c = col[rest[:k] + (key,) + rest[k:]]
                row[c] = row.get(c, 0) + (-sign if k % 2 else sign) * coeff
        else:
            # action terms (-1)^s [x_s, c(xs without x_s)], a sorted q-tuple
            out_index = sum(xs) + d
            for s in sides:
                got = found[xs[s]].get(out_index - xs[s])
                if not isinstance(got, dict):
                    break
                c = col[xs[:s] + xs[s + 1:]]
                sign = 1 if s % 2 else -1
                for coeff in got.values():
                    row[c] = row.get(c, 0) + sign * coeff
            else:
                matrix_rows.append({c: v for c, v in row.items() if v})
                kept.append(xs)
                continue
        # a break: the bracket `got` is lost (None), or the table's error
        if got is not None:
            raise type(got)(*got.args)  # a fresh exception of its type and message
        omitted.append(xs)
    return SparseMatrix._trusted(matrix_rows, len(col)), kept, omitted


def omitted_count(alg: GradedLieAlgebra, q: int, d: int, window: Window,
                  coeffs: str = ADJOINT) -> int:
    """len(delta_matrix(alg, q, d, window, coeffs)[2]), building no row if no bracket raises.

    A window whose table (`_bracket_table`) holds an error, a central key or
    one off the grading, is counted by that build, which raises the error or
    gives the count.  Otherwise a (q+1)-tuple is omitted when a bracket its
    expansion reads is lost.  The table's masks run over the tuple's last
    index k, bit k - lo, and one pass over the q-tuple prefixes counts all
    tuples: [e_x, e_k] is a row of the table, the action [e_x, e_{out - x}] a
    row shifted by k, and the action [e_k, e_{out - k}] a column, since
    out - k does not depend on k.
    """
    if not 0 <= q <= 2:
        raise ValueError("differential supports cochain degrees 0..2")
    vlo, vhi = _value_range(window, coeffs)
    found, rows, cols, raises = _bracket_table(alg, window)
    if raises:
        return len(delta_matrix(alg, q, d, window, coeffs)[2])
    lo, hi = window.lo, window.hi
    full = (1 << (hi - lo + 1)) - 1

    def shifted(a, c):
        """The lost pairs [e_a, e_{k + c}] over k, with every k where k + c leaves the window."""
        if c >= 0:
            return (rows[a] | ~full) >> c & full
        return (rows[a] << -c | (1 << -c) - 1) & full

    count = 0
    for prefix in combinations(window.indices(), q):
        total = sum(prefix) + d
        # k runs past the prefix, with the output index total + k among the values
        first = max(prefix[-1] + 1 if prefix else lo, vlo - total)
        last = min(hi, vhi - total)
        if first > last:
            continue
        valid = full >> (hi - last) & ~((1 << (first - lo)) - 1)
        lost = full if any(found[x][y] is None for x, y in combinations(prefix, 2)) else 0
        if coeffs == ADJOINT:
            lost |= cols[total] if lo <= total <= hi else full
        for x in prefix:
            lost |= rows[x] | (shifted(x, total - x) if coeffs == ADJOINT else 0)
        count += (lost & valid).bit_count()
    return count


def differential(alg: GradedLieAlgebra, c: Cochain) -> Cochain:
    """delta(c), same weight, degree q+1, interior-only.

    Output tuples whose evaluation would reference an index outside the window
    are omitted; `delta_matrix` lists them.
    """
    matrix, rows, _ = delta_matrix(alg, c.degree, c.weight, c.window, c.coeffs)
    vec = [c.entries.get(t, 0)
           for t in basis_tuples(c.degree, c.weight, c.window, c.coeffs)]
    values = matrix.apply(vec)
    return Cochain(c.degree + 1, c.weight, c.window, c.coeffs,
                   {t: v for t, v in zip(rows, values) if v})


# -- mixed-weight cochains --------------------------------------------------


@dataclass(frozen=True)
class MixedCochain:
    """Cochain with entries of several weights: tuple -> {output index: scalar}."""

    degree: int
    window: Window
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for t, outs in self.entries.items():
            t = tuple(t)
            bad = bad_arguments(t, self.degree, self.window)
            if bad:
                raise bad
            kept = {}
            for out, v in outs.items():
                if out not in self.window:
                    raise OutOfWindowError(f"output index {out} outside window {self.window}")
                if check_coefficient(v):
                    kept[out] = v
            if kept:
                clean[t] = kept
        object.__setattr__(self, "entries", clean)

    @classmethod
    def _trusted(cls, degree: int, window: Window, entries: dict) -> "MixedCochain":
        """A MixedCochain of entries already in the form `__post_init__` leaves, built
        without its checks: strictly increasing window tuples, each to a nonempty
        {window output: nonzero int or Fraction}.  Only for values read from checked
        cochains."""
        out = object.__new__(cls)
        for name, value in (("degree", degree), ("window", window), ("entries", entries)):
            object.__setattr__(out, name, value)
        return out

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "MixedCochain") -> "MixedCochain":
        if (self.degree, self.window) != (other.degree, other.window):
            raise ValueError("mixed cochain shape mismatch")
        out = {t: dict(o) for t, o in self.entries.items()}
        for t, outs in other.entries.items():
            tgt = out.setdefault(t, {})
            for o, v in outs.items():
                tgt[o] = tgt.get(o, 0) + v
        return MixedCochain(self.degree, self.window, out)

    def restrict(self, sub: Window) -> "MixedCochain":
        keep = {}
        for t, outs in self.entries.items():
            if all(a in sub for a in t):
                kept = {o: v for o, v in outs.items() if o in sub}
                if kept:
                    keep[t] = kept
        return MixedCochain(self.degree, sub, keep)

    @classmethod
    def from_cochain(cls, c: Cochain) -> "MixedCochain":
        if c.coeffs != ADJOINT:
            raise ValueError("only adjoint cochains carry output indices")
        entries = {t: {sum(t) + c.weight: v} for t, v in c.entries.items()}
        return cls(c.degree, c.window, entries)

    @classmethod
    def from_components(cls, degree, window, components) -> "MixedCochain":
        out = cls(degree, window)
        for c in components:
            out = out + cls.from_cochain(c)
        return out


def weight_components(c: MixedCochain) -> dict:
    """Split by output-degree minus input-degree-sum; reassembly is exact."""
    buckets: dict[int, dict] = {}
    for t, outs in c.entries.items():
        s = sum(t)
        for out, v in outs.items():
            buckets.setdefault(out - s, {})[t] = v
    return {
        d: Cochain(c.degree, d, c.window, ADJOINT, entries)
        for d, entries in sorted(buckets.items())
    }


def cocycle_violation(alg: GradedLieAlgebra, c):
    """(weight, tuple) of the first interior tuple where delta(c) != 0, or None.

    `c` is a Cochain or a MixedCochain; weights go in increasing order and,
    within one, tuples in basis order: the first entry of `differential`.
    """
    parts = {c.weight: c} if isinstance(c, Cochain) else weight_components(c)
    for d, part in sorted(parts.items()):
        entries = differential(alg, part).entries
        if entries:
            return d, min(entries)
    return None


# -- serialization -----------------------------------------------------------


def cochain_to_text(c: Cochain) -> str:
    """Text form: header then one '(i,j) -> p/q' record per entry."""
    lines = [
        f"degree: {c.degree}",
        f"weight: {c.weight}",
        f"window: {c.window.lo}:{c.window.hi}",
        f"coefficients: {c.coeffs}",
    ]
    for t in sorted(c.entries):
        key = "(" + ",".join(str(a) for a in t) + ")"
        lines.append(f"{key} -> {c.entries[t]}")
    return "\n".join(lines) + "\n"
