"""Z-graded Lie algebras described by structure constants.

Generators are indexed by integers (deg e_n = n) plus an optional central
generator of degree 0.  Brackets come from a rule, so an algebra holds no
table and fixes no window: the built-in algebras are infinite dimensional.
The layers that read a window's brackets many times tabulate them there, once
per algebra and window (`cochains` and `deformation`, in bounded caches).

Built-ins, `BUILTIN` by name:

    witt:      [e_n, e_m] = (m - n) e_{n+m}
    virasoro:  [e_n, e_m] = (m - n) e_{n+m} + 1/12 (m^3 - m) delta_{n,-m} c,
               [e_n, c] = 0

Custom algebras load from a small text format, see `load_algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import ConfigError, FormatError, check_coefficient

# key used for the central generator inside bracket values and documents
CENTRAL = "c"


def degree(key) -> int:
    return 0 if key == CENTRAL else key


def _key_order(key):
    # central generator sorts after every indexed generator
    return (1, 0) if key == CENTRAL else (0, key)


def _sorted_terms(terms: dict):
    return sorted(terms.items(), key=lambda kv: _key_order(kv[0]))


def format_terms(terms: dict) -> str:
    """Render {key: coefficient} as '3*e_2 + -1/2*c' (central last), '0' when empty."""
    if not terms:
        return "0"
    return " + ".join(f"{v}*{'c' if k == CENTRAL else f'e_{k}'}" for k, v in _sorted_terms(terms))


@dataclass(frozen=True)
class GradedLieAlgebra:
    """A Lie bracket given by its rule on generator keys.

    `bracket_rule(a, b)` takes two generator keys (int or CENTRAL) and returns
    [e_a, e_b] as a {key: coefficient} dict with no zero coefficients; callers
    must not mutate it.  Coefficients are exact (int or Fraction).
    Antisymmetry of the rule is a property the test suite checks, not
    something enforced per call.
    """

    name: str
    bracket_rule: object
    has_central: bool = False
    graded: bool = True

    def generator_keys(self, window):
        keys = list(range(window.lo, window.hi + 1))
        if self.has_central:
            keys.append(CENTRAL)
        return keys


@dataclass(frozen=True)
class Window:
    """Inclusive index range {lo, ..., hi} of indexed generators."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"window lo {self.lo} > hi {self.hi}")

    def __contains__(self, i: int) -> bool:
        return self.lo <= i <= self.hi

    def indices(self):
        return range(self.lo, self.hi + 1)

    def core(self, margin: int) -> "Window":
        """The window shrunk by `margin` at both ends; ConfigError if nothing is left."""
        if not 0 <= 2 * margin <= self.hi - self.lo:
            raise ConfigError(f"margin {margin} leaves no core of the window {self}: "
                              f"need 0 <= margin <= {(self.hi - self.lo) // 2}")
        return Window(self.lo + margin, self.hi - margin)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


def parse_window(text: str) -> Window:
    """'lo:hi' as a Window; FormatError otherwise."""
    try:
        lo_s, _, hi_s = text.strip().partition(":")
        return Window(int(lo_s), int(hi_s))
    except ValueError as exc:
        raise FormatError(f"bad window {text!r}: {exc}") from None


def make_witt() -> GradedLieAlgebra:
    """The Witt algebra: [e_n, e_m] = (m - n) e_{n+m}, with integer coefficients."""

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL:
            raise ValueError("witt has no central generator")
        return {a + b: b - a} if a != b else {}

    return GradedLieAlgebra("witt", rule, has_central=False, graded=True)


def make_virasoro() -> GradedLieAlgebra:
    """The one-dimensional central extension of witt with the 1/12 normalization."""

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL or a == b:
            return {}
        out = {a + b: b - a}
        if a + b == 0:
            central = Fraction(b**3 - b, 12)
            if central:
                out[CENTRAL] = central
        return out

    return GradedLieAlgebra("virasoro", rule, has_central=True, graded=True)


BUILTIN = {"witt": make_witt, "virasoro": make_virasoro}


# -- documents ---------------------------------------------------------------


def read_document(text: str, headers, section: str | None = None):
    """Split a text document into (header, records).

    The one line grammar of every document the package reads: blank lines
    and '#' comments are skipped; a line containing '->' is a record, kept as
    (lineno, lhs, rhs) in document order with both sides stripped; any other
    line must be `key: value` where key is one of `headers` (each exactly
    once, all required, in any order) or the repeatable `section` key, whose
    lines are kept among the records as (lineno, None, value).
    """
    header = {}
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" in line:
            lhs, _, rhs = line.partition("->")
            records.append((lineno, lhs.strip(), rhs.strip()))
            continue
        key, sep, value = (part.strip() for part in line.partition(":"))
        if not sep or key not in (*headers, section):
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
        if key == section:
            records.append((lineno, None, value))
        elif key in header:
            raise FormatError(f"line {lineno}: duplicate header {key!r}")
        else:
            header[key] = value
    for key in headers:
        if key not in header:
            raise FormatError(f"missing header line {key!r}")
    return header, records


def parse_rational(text: str, lineno: int | None = None) -> Fraction:
    """An exact coefficient 'p/q' (integers and decimals too), FormatError otherwise."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        where = "" if lineno is None else f"line {lineno}: "
        raise FormatError(f"{where}bad rational {text.strip()!r}") from None


def parse_terms(text: str, lineno: int, central: bool = False) -> dict:
    """'k:p/q, k:p/q, ...' as {k: Fraction} with integer keys k; the central
    key 'c' is accepted only when `central` is set.  A repeated key is rejected."""
    terms = {}
    for tok in text.split(","):
        key_s, sep, coeff_s = (part.strip() for part in tok.partition(":"))
        try:
            key = CENTRAL if central and key_s == CENTRAL else int(key_s)
        except ValueError:
            key = None
        if key is None or not sep:
            raise FormatError(f"line {lineno}: bad term {tok.strip()!r}, expected k:p/q")
        if key in terms:
            raise FormatError(f"line {lineno}: repeated target {key!r}")
        terms[key] = parse_rational(coeff_s, lineno)
    return terms


def parse_tuple(text: str, lineno: int) -> tuple:
    """'(i,j,...)' as a tuple of ints; '()' is the empty tuple."""
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        try:
            return tuple(int(x) for x in inner.split(",")) if inner else ()
        except ValueError:
            pass
    raise FormatError(f"line {lineno}: bad tuple {text!r}")


def load_algebra(text: str) -> GradedLieAlgebra:
    """Parse a structure-constants document.

    Grammar (`read_document`'s, one item per line):

        name: <string>
        graded: yes|no
        central: yes|no
        <i> <j> -> <k>:<p/q>[, <k>:<p/q>]...

    Header lines may come in any order, before or after the records.  Bracket
    records list pairs with i < j only; the bracket extends by antisymmetry
    and unlisted pairs bracket to zero.  Central targets need `central: yes`,
    and in graded mode every target degree must equal i + j (the central
    generator has degree 0).  Anything that does not match the grammar is
    rejected.
    """
    header, records = read_document(text, ("name", "graded", "central"))
    for hkey in ("graded", "central"):
        if header[hkey] not in ("yes", "no"):
            raise FormatError(f"header {hkey!r} must be yes or no")
    graded = header["graded"] == "yes"
    has_central = header["central"] == "yes"

    # both orientations of every pair, zero coefficients dropped
    table: dict[tuple[int, int], dict] = {}
    for lineno, lhs, rhs in records:
        parts = lhs.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'i j -> ...'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer pair {lhs!r}") from None
        if i >= j:
            raise FormatError(f"line {lineno}: pair must satisfy i < j, got ({i},{j})")
        if (i, j) in table:
            raise FormatError(f"line {lineno}: duplicate pair ({i},{j})")
        terms = parse_terms(rhs, lineno, central=True)
        if CENTRAL in terms and not has_central:
            raise FormatError(
                f"central target at ({i},{j}) in a document declaring central: no")
        terms = {k: v for k, v in terms.items() if v}
        for k in terms:
            if graded and degree(k) != i + j:
                raise FormatError(
                    f"grading violation at ({i},{j}): target {k!r} has degree "
                    f"{degree(k)}, expected {i + j}"
                )
        table[(i, j)] = terms
        table[(j, i)] = {k: -v for k, v in terms.items()}

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL:
            if not has_central:
                raise ValueError(f"{header['name']} has no central generator")
            return {}
        return table.get((a, b), {})

    return GradedLieAlgebra(header["name"], rule, has_central=has_central, graded=graded)


def dump_algebra(alg: GradedLieAlgebra, window: Window) -> str:
    """Serialize brackets of window pairs in load_algebra's format."""
    lines = [
        f"name: {alg.name}",
        f"graded: {'yes' if alg.graded else 'no'}",
        f"central: {'yes' if alg.has_central else 'no'}",
    ]
    for i in window.indices():
        for j in range(i + 1, window.hi + 1):
            terms = alg.bracket_rule(i, j)
            if terms:
                lines.append(f"{i} {j} -> " + ", ".join(
                    f"{'c' if k == CENTRAL else k}:{v}" for k, v in _sorted_terms(terms)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class JacobiReport:
    algebra: str
    window: Window
    defects: tuple = field(default_factory=tuple)

    @property
    def is_clean(self) -> bool:
        return not self.defects

    def __str__(self):
        if self.is_clean:
            return f"jacobi[{self.algebra} on {self.window}]: clean"
        lines = [f"jacobi[{self.algebra} on {self.window}]: {len(self.defects)} defect(s)"]
        for triple, terms in self.defects[:10]:
            lines.append(f"  {triple}: {format_terms(terms)}")
        return "\n".join(lines)


def check_jacobi(alg: GradedLieAlgebra, window: Window) -> JacobiReport:
    """Evaluate [[x,y],z] + [[y,z],x] + [[z,x],y] on every basis triple in the window.

    An empty report certifies that the bracket rule is a Lie bracket on the
    window; central contributions are included when the algebra has one.
    """
    rule, table = alg.bracket_rule, {}

    def bracket(a, b):  # read once per call, its coefficients checked
        out = table.get((a, b))
        if out is None:
            out = table[a, b] = {k: check_coefficient(v) for k, v in rule(a, b).items()}
        return out

    keys = sorted(alg.generator_keys(window), key=_key_order)
    defects = []
    for x, y, z in combinations(keys, 3):
        total = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            for k, v in bracket(a, b).items():
                for out, w in bracket(k, c).items():
                    total[out] = total.get(out, 0) + v * w
        defect = {k: v for k, v in total.items() if v}
        if defect:
            defects.append(((x, y, z), defect))
    return JacobiReport(alg.name, window, tuple(defects))
