"""Symbolic replay of the diagonal-recurrence proof that H^2_0(W;W) = 0.

A normalized weight-0 cocycle {c_{i,j}} (c_{i,1} = 0 for all i, c_{-2,2} = 0)
satisfies, for every triple (i,j,k), the six-term equation

    (j-i)c_{i+j,k} + (k-j)c_{j+k,i} + (i-k)c_{k+i,j}
      + (j-i+k)c_{k,j} + (j-i-k)c_{k,i} - (i+j-k)c_{i,j} = 0.        (*)

Setting k = 1 collapses (*) to the three-term recurrence

    (j-1)c_{i,j+1} + (i-1)c_{i+1,j} - (i+j-1)c_{i,j} = 0,        (**)

and with the abbreviations a_j = c_{2,j} (a_{-2} = a_1 = a_2 = 0) everything
in the table becomes a linear form in the a_k.  The replay drives a fact
table of such forms: rows i <= 0 by induction on -i, rows i >= 3 by the
recurrence, relations from the recurrence-extended diagonal c_{i,i} = 0 and
from (*) at k = 2 specialized to i = -2 and i = -3, and finally a linear
solve that leaves only the zero solution.  (*) and (**) are the paper's
eq. (4) and (5), written out once each as `_eq4` and `_eq5`; every derived
cell is (**) solved for it.  The relations are solved by one `linalg.solve`,
the same certified integer elimination the cohomology computations use.

All relations are derived programmatically from (*); printed closed forms
are asserted as regression checks in the test suite where they are correct.
Every derivation is logged with a justification tag; the test suite checks
that replaying the log's cells onto a fresh table reconstructs it cell for
cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BoundaryError, ConfigError, ContradictionError, check_coefficient
from .linalg import SparseMatrix, solve

TAGS = ("Eq1", "Eq5", "Eq7", "Diag", "Antisym", "Sec5", "Sec9")


def _render_unknown(k: int) -> str:
    return f"a_{{{k}}}" if k < 0 else f"a_{k}"


@dataclass(frozen=True)
class SymbolicValue:
    """Linear form sum_k coeffs[k] * a_k + const, kept with no zero coefficients."""

    coeffs: tuple = ()  # sorted ((k, int or Fraction), ...)
    const: int | Fraction = 0

    @classmethod
    def make(cls, coeffs=None, const=0) -> "SymbolicValue":
        clean = tuple((k, v) for k, v in sorted((coeffs or {}).items()) if check_coefficient(v))
        return cls(clean, check_coefficient(const))

    @classmethod
    def unknown(cls, k: int) -> "SymbolicValue":
        return cls.make({k: 1})

    @classmethod
    def zero(cls) -> "SymbolicValue":
        return cls.make()

    @classmethod
    def constant(cls, c) -> "SymbolicValue":
        return cls.make(const=c)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    def __add__(self, other: "SymbolicValue") -> "SymbolicValue":
        out = dict(self.coeffs)
        for k, v in other.coeffs:
            out[k] = out.get(k, 0) + v
        return SymbolicValue.make(out, self.const + other.const)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SymbolicValue.make({k: -v for k, v in self.coeffs}, -self.const)

    def __rmul__(self, scale) -> "SymbolicValue":
        return SymbolicValue.make({k: scale * v for k, v in self.coeffs}, scale * self.const)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for k, v in self.coeffs:
            name = _render_unknown(k)
            if v == 1:
                term = name
            elif v == -1:
                term = f"-{name}"
            else:
                term = f"{v}{name}"
            bits.append(term)
        if self.const != 0:
            bits.append(str(self.const))
        text = bits[0]
        for term in bits[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return text

    def __str__(self):
        return self.render()


@dataclass(frozen=True)
class LogEntry:
    kind: str  # "cell" or "relation"
    label: str
    value: SymbolicValue
    tag: str

    def render(self) -> str:
        if self.kind == "cell":
            return f"{self.label} = {self.value.render()}  [{self.tag}]"
        return f"{self.label}: {self.value.render()} = 0  [{self.tag}]"


class FactTable:
    """Table of c_{i,j} as linear forms in the unknowns a_k = c_{2,k}.

    Only cells with i < j are stored; antisymmetry supplies the rest and the
    diagonal is identically zero.  Every derived cell or relation is appended
    to the log with one justification tag; the test suite checks that
    replaying the log's cells onto a fresh init_table(K) rebuilds the table.
    """

    def __init__(self, K: int):
        if K < 6:
            raise ConfigError(f"table window must satisfy K >= 6, got {K}")
        self.K = K
        self.cells: dict[tuple, SymbolicValue] = {}
        self.provenance: dict[tuple, str] = {}
        self.log: list[LogEntry] = []
        self.recurrence_rows: dict[int, dict[int, SymbolicValue]] = {}
        self.nonpositive_filled = False
        self.positive_filled = False

    # -- storage -----------------------------------------------------------

    def _store_key(self, i, j):
        if i == j:
            raise LookupError(f"diagonal cell ({i},{j}) is not stored")
        if not (-self.K <= i <= self.K and -self.K <= j <= self.K):
            raise BoundaryError(f"cell ({i},{j}) outside window K={self.K}")
        return ((i, j), 1) if i < j else ((j, i), -1)

    def known(self, i, j) -> bool:
        if i == j:
            return False
        key, _ = self._store_key(i, j)
        return key in self.cells

    def cell(self, i, j):
        """Stored value of c_{i,j} (antisymmetric lookup), or None when unknown."""
        key, sign = self._store_key(i, j)
        got = self.cells.get(key)
        if got is None:
            return None
        return got if sign == 1 else -got

    def value(self, i, j) -> SymbolicValue:
        """c_{i,j} as a form, with diagonal = 0; raises when undetermined."""
        if i == j:
            return SymbolicValue.zero()
        got = self.cell(i, j)
        if got is None:
            raise BoundaryError(f"cell ({i},{j}) not determined")
        return got

    def set_cell(self, i, j, value: SymbolicValue, tag: str, log=True):
        """Record c_{i,j}; a consistent re-derivation is a no-op, an
        inconsistent one is a contradiction citing both derivations."""
        key, sign = self._store_key(i, j)
        stored = value if sign == 1 else -value
        if key in self.cells:
            if self.cells[key] == stored:
                return False
            raise ContradictionError(
                f"cell {key}: {self.cells[key].render()} [{self.provenance[key]}] "
                f"vs {stored.render()} [{tag}]"
            )
        self.cells[key] = stored
        self.provenance[key] = tag
        if log:
            self.log.append(LogEntry("cell", f"c[{key[0]},{key[1]}]", stored, tag))
        return True

    def log_relation(self, label: str, form: SymbolicValue, tag: str):
        self.log.append(LogEntry("relation", label, form, tag))

    def log_text(self) -> str:
        return "\n".join(e.render() for e in self.log) + "\n"


def _seed(k: int) -> SymbolicValue:
    return SymbolicValue.zero() if k in (-2, 1, 2) else SymbolicValue.unknown(k)


def init_table(K: int) -> FactTable:
    """Fresh table: row 2 seeded with unknowns, column 1 and (-2,2) zeroed."""
    t = FactTable(K)
    # definitional seeds a_j = c_{2,j}; not derivations, so not logged
    for j in range(-K, K + 1):
        if j == 2:
            continue
        t.set_cell(2, j, _seed(j), "Antisym", log=False)
    # normalization zeros
    for i in range(-K, K + 1):
        if i == 1:
            continue
        t.set_cell(i, 1, SymbolicValue.zero(), "Eq1")
    return t


def _eq5(value, i, j, cell) -> SymbolicValue:
    """Eq. (5) at (i, j), (j-1)c_{i,j+1} + (i-1)c_{i+1,j} - (i+j-1)c_{i,j} = 0,
    solved for `cell`, one of its three cells.  `value(a, b)` reads c_{a,b};
    a term whose coefficient is 0 is not read."""
    terms = {(i, j + 1): j - 1, (i + 1, j): i - 1, (i, j): 1 - i - j}
    lead = terms.pop(cell)
    parts = [Fraction(-v, lead) * value(*ab) for ab, v in terms.items() if v]
    return sum(parts[1:], parts[0]) if parts else SymbolicValue.zero()


def fill_nonpositive_rows(t: FactTable) -> FactTable:
    """Rows i <= 0 by induction on -i, plus the gap cells the recurrence forces.

    Every cell is eq. (5) solved for it: downward along each row for c_{i,j},
    which zeroes out j <= 0; upward from j = -i+1, where the c_{i,j} term drops
    out, for c_{i,j+1}, which walks the (i-1)a_0 ladder; and in a final sweep
    for the gap cells (2 < j <= -i+1) that an instance with both other cells
    known forces, e.g. c_{-2,3} = -3a_{-1}.
    """
    K = t.K
    for i in range(0, -K - 1, -1):
        # downward: j = 0, -1, ..., starting from c_{i,1} = 0
        for j in range(0, -K - 1, -1):
            if i != j:
                t.set_cell(i, j, _eq5(t.value, i, j, (i, j)), "Sec5")
        for j in range(-i + 1, K):  # upward ladder
            if j == 1:
                continue  # the (j-1) coefficient kills this instance
            try:
                form = _eq5(t.value, i, j, (i, j + 1))
            except BoundaryError:
                continue  # gap cell with nonzero coefficient: not forced here
            t.set_cell(i, j + 1, form, "Sec5")
    # gap sweep: eq. (5) at (i, j-1) solved for c_{i,j}
    for i in range(-2, -K - 1, -1):
        for j in range(3, min(-i + 1, K) + 1):
            if not t.known(i, j):
                t.set_cell(i, j, _eq5(t.value, i, j - 1, (i, j)), "Eq5")
    t.nonpositive_filled = True
    return t


def fill_positive_rows(t: FactTable) -> FactTable:
    """Rows i >= 3 as pure recurrence extensions of row 2.

    R_2(j) = a_j, and R_r(j) is eq. (5) at (r-1, j) solved for c_{r,j} on row
    r-1; for r in {3,4,5} these agree with the classical closed forms, e.g.
    R_3(j) = (j+1)a_j - (j-1)a_{j+1}.  Upper cells (r, j > r) are stored in
    the table; the rest of each row is kept for relation extraction, where
    R_r(r) = 0 is new information precisely because the stored diagonal is 0
    by antisymmetry.
    """
    if not t.nonpositive_filled:
        raise ValueError("fill_nonpositive_rows must run first")
    K = t.K
    rows = {2: {j: _seed(j) if j != 2 else SymbolicValue.zero() for j in range(-K, K + 1)}}
    for r in range(3, K + 1):
        top = K - (r - 2)
        rows[r] = {j: _eq5(lambda a, b: rows[a][b], r - 1, j, (r, j)) for j in range(-K, top + 1)}
        for j in range(r + 1, top + 1):
            t.set_cell(r, j, rows[r][j], "Eq5")
    t.recurrence_rows = rows
    t.positive_filled = True
    return t


def recurrence_value(t: FactTable, r: int, j: int) -> SymbolicValue:
    """Recurrence-extended row value R_r(j); boundary error past the frontier."""
    if not t.positive_filled:
        raise ValueError("fill_positive_rows must run first")
    row = t.recurrence_rows.get(r)
    if row is None or j not in row:
        missing = j + max(r - 2, 0)
        raise BoundaryError(
            f"recurrence for c[{r},{j}] needs cell (2,{missing}) outside window K={t.K}")
    return row[j]


@dataclass(frozen=True)
class Relation:
    label: str
    tag: str
    form: SymbolicValue


@dataclass
class RelationSet:
    """Ordered relations <form> = 0 among the unknowns a_k; a form may carry a constant."""

    relations: list = field(default_factory=list)

    def add(self, label: str, tag: str, form: SymbolicValue):
        if not form.is_zero:
            self.relations.append(Relation(label, tag, form))

    def merged(self, other: "RelationSet") -> "RelationSet":
        return RelationSet(self.relations + other.relations)

    def __len__(self):
        return len(self.relations)

    def solve(self) -> dict:
        """{pivot unknown: form in the free unknowns}, from one `linalg.solve`.

        The relations are the rows, the unknowns the columns in decreasing
        index and the right-hand side is -const, so each pivot is the largest
        unknown of its row in the reduced echelon form, which is unique.  Each
        pivot's form is read off the canonical kernel basis and the particular
        solution.  Inconsistent relations raise a contradiction at the first
        relation that the ones before it reduce to a nonzero constant.
        """
        unknowns = sorted({k for rel in self.relations for k, _ in rel.form.coeffs}, reverse=True)
        column = {k: c for c, k in enumerate(unknowns)}

        def solution(rels):
            rows = [{column[k]: v for k, v in rel.form.coeffs} for rel in rels]
            return solve(SparseMatrix(rows, len(unknowns)), [-rel.form.const for rel in rels])

        sol = solution(self.relations)
        if sol.particular is None:
            # prefixes of length lo are consistent (x solves one), of length hi not
            lo, hi, x = 0, len(self.relations), (0,) * len(unknowns)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                got = solution(self.relations[:mid]).particular
                if got is None:
                    hi = mid
                else:
                    lo, x = mid, got
            rel = self.relations[lo]
            c = rel.form.const + sum(v * x[column[k]] for k, v in rel.form.coeffs)
            raise ContradictionError(f"relation {rel.label} [{rel.tag}] reduces to {c} = 0")
        pivots = set(sol.pivot_columns)
        kernel = list(zip((f for f in range(len(unknowns)) if f not in pivots), sol.kernel_basis))
        return {unknowns[p]: SymbolicValue.make(
                    {unknowns[f]: Fraction(vec[p], vec[f]) for f, vec in kernel},
                    sol.particular[p])
                for p in sol.pivot_columns}


def diagonal_relations(t: FactTable, up_to: int) -> RelationSet:
    """Relations R_i(i) = 0 for i = 3..up_to from the recurrence-extended diagonal."""
    rels = RelationSet()
    for i in range(3, up_to + 1):
        form = recurrence_value(t, i, i)
        rels.add(f"diag[{i}]", "Diag", form)
        t.log_relation(f"diag[{i}]", form, "Diag")
    return rels


def _eq4(value, i, j, k) -> SymbolicValue:
    """The left side of eq. (4) at (i, j, k); `value(a, b)` reads c_{a,b}."""
    return ((j - i) * value(i + j, k) + (k - j) * value(j + k, i) + (i - k) * value(k + i, j)
            + (j - i + k) * value(k, j) + (j - i - k) * value(k, i) - (i + j - k) * value(i, j))


def k2_specializations(t: FactTable) -> RelationSet:
    """Six-term relations at k = 2 for the i-families i = -2 and i = -3.

    The family i = -2 yields the chains
    (j+4)a_j = (j+2)a_{j-2} for j <= 0 and j >= 4 (hence a_0 = 0, the
    vanishing even chains and the proportional odd chains), and i = -3,
    which closes the endgame.  The i = -2 family is restricted to instances
    with j <= 0 or j >= 4: those are the ones whose left side is already
    pinned by the filled rows, and they are exactly what the later stages
    consume.  The skipped j = 3 instance would tie the positive odd chain to
    the negative one early.
    """
    if not t.nonpositive_filled:
        raise ValueError("fill_nonpositive_rows must run first")
    K = t.K
    rels = RelationSet()
    for i, tag in ((-2, "Eq7"), (-3, "Sec9")):
        for j in range(max(-K + 2, -K - i), K - 1):
            if j in (i, 2):
                continue
            if i == -2 and 0 < j < 4:
                continue
            try:
                form = _eq4(t.value, i, j, 2)
            except BoundaryError:
                continue
            if not form.is_zero:
                rels.add(f"eq6[i={i},j={j}]", tag, form)
                t.log_relation(f"eq6[i={i},j={j}]", form, tag)
    return rels


@dataclass(frozen=True)
class Verdict:
    """Outcome of the final linear solve over the buffered unknown range."""

    K: int
    buffer: int
    dimension: int
    free_unknowns: tuple
    solved_targets: dict
    all_zero: bool

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "buffer": self.buffer,
            "dimension": self.dimension,
            "free_unknowns": list(self.free_unknowns),
            "solved": {str(k): v.render() for k, v in sorted(self.solved_targets.items())},
            "all_zero": self.all_zero,
        }

    def __str__(self):
        if self.all_zero:
            return (f"verdict: all a_k = 0 for |k| <= {self.K - self.buffer} "
                    f"(solution space dimension 0)")
        return (f"verdict: solution space dimension {self.dimension} on |k| <= "
                f"{self.K - self.buffer}; free directions touch "
                f"{', '.join(_render_unknown(k) for k in self.free_unknowns)}")


def check_buffer(K: int, buffer: int):
    """ConfigError unless 0 <= buffer <= K, the range final_solve can project onto."""
    if not 0 <= buffer <= K:
        raise ConfigError(f"buffer must satisfy 0 <= buffer <= K = {K}, got {buffer}")


def final_solve(t: FactTable, relations: RelationSet, buffer: int = 3) -> Verdict:
    """Solve the accumulated relations; report the projected solution dimension.

    Unknowns a_k live on |k| <= K; the verdict projects the solution space
    onto |k| <= K - buffer, since relations near the window edge are
    incomplete.  Dimension 0 means every buffered a_k is forced to zero.
    """
    K = t.K
    check_buffer(K, buffer)
    solved = relations.solve()
    targets = [k for k in range(-(K - buffer), K - buffer + 1) if k not in (-2, 1, 2)]
    forms = {k: solved.get(k, SymbolicValue.unknown(k)) for k in targets}
    # the solution space on the targets: one row per free unknown their forms read
    rows = {}
    for n, form in enumerate(forms.values()):
        for u, v in form.coeffs:
            rows.setdefault(u, {})[n] = v
    free = sorted(rows)
    dimension = solve(SparseMatrix([rows[u] for u in free], len(targets))).rank
    all_zero = dimension == 0 and all(v.is_zero for v in forms.values())
    return Verdict(
        K=K, buffer=buffer, dimension=dimension,
        free_unknowns=tuple(free), solved_targets=forms,
        all_zero=all_zero,
    )


def emit_table(t: FactTable) -> str:
    """Markdown rendering, rows i = 5..-4 by columns j = -4..5.

    Diagonal (normalized) zeros render bold; underived cells render empty.
    """
    rows = range(5, -5, -1)
    cols = range(-4, 6)
    lines = ["| i\\j | " + " | ".join(str(j) for j in cols) + " |",
             "|" + "---|" * (len(cols) + 1)]
    for i in rows:
        cells = []
        for j in cols:
            if i == j:
                cells.append("**0**")
                continue
            got = t.cell(i, j)
            cells.append(got.render() if got is not None else "")
        lines.append(f"| {i} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReplayResult:
    table: FactTable
    section5_table: str
    relations: RelationSet
    verdict: Verdict


def run_replay(K: int = 12, buffer: int = 3) -> ReplayResult:
    """The full staged pipeline: init, fills, relations, final solve.

    Diagonal relations run up to i = min(6, (K + 2) // 2).
    """
    t = init_table(K)
    fill_nonpositive_rows(t)
    section5 = emit_table(t)
    fill_positive_rows(t)
    rels = diagonal_relations(t, min(6, (K + 2) // 2))
    rels = rels.merged(k2_specializations(t))
    verdict = final_solve(t, rels, buffer=buffer)
    return ReplayResult(table=t, section5_table=section5, relations=rels, verdict=verdict)
