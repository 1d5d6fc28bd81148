"""Z-graded Lie algebras described by structure constants.

Generators are indexed by integers (deg e_n = n) plus an optional central
generator of degree 0.  Brackets are computed on demand from a rule, never
tabulated, so windows of any size need no precomputation: the built-in
algebras are infinite dimensional and only lazily evaluated structure
constants scale.

Built-ins:

    witt:      [e_n, e_m] = (m - n) e_{n+m}
    virasoro:  [e_n, e_m] = (m - n) e_{n+m} + 1/12 (m^3 - m) delta_{n,-m} c,
               [e_n, c] = 0

Custom algebras load from a small text format, see `load_algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import FormatError

# key used for the central generator inside Element terms and documents
CENTRAL = "c"


def degree(key) -> int:
    return 0 if key == CENTRAL else key


def _key_order(key):
    # central generator sorts after every indexed generator
    return (1, 0) if key == CENTRAL else (0, key)


class Element:
    """Sparse linear combination of generators with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if v != 0:
                clean[k] = v
        self.terms = clean

    @classmethod
    def basis(cls, key, coeff=1) -> "Element":
        return cls({key: Fraction(coeff)})

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: _key_order(kv[0]))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element({k: -v for k, v in self.terms.items()})

    def __rmul__(self, scale) -> "Element":
        scale = Fraction(scale)
        return Element({k: scale * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for k, v in self.items():
            name = "c" if k == CENTRAL else f"e_{k}"
            bits.append(f"{v}*{name}")
        return " + ".join(bits)


@dataclass(frozen=True)
class GradedLieAlgebra:
    """Bracket rule on generator ids, extended bilinearly to elements.

    The rule receives two generator keys (int or CENTRAL) and must return an
    Element; antisymmetry of the rule is a property the test suite checks, not
    something enforced per call.
    """

    name: str
    bracket_rule: object
    has_central: bool = False
    graded: bool = True

    def bracket_generators(self, a, b) -> Element:
        return self.bracket_rule(a, b)

    def bracket(self, x: Element, y: Element) -> Element:
        out = Element.zero()
        for ka, va in x.terms.items():
            for kb, vb in y.terms.items():
                out = out + (va * vb) * self.bracket_rule(ka, kb)
        return out

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
        if margin < 0:
            raise ValueError("negative margin")
        return Window(self.lo + margin, self.hi - margin)

    def __str__(self):
        return f"[{self.lo},{self.hi}]"


def make_witt() -> GradedLieAlgebra:
    """The Witt algebra: [e_n, e_m] = (m - n) e_{n+m}."""

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL:
            raise ValueError("witt has no central generator")
        return Element({a + b: b - a})

    return GradedLieAlgebra("witt", rule, has_central=False, graded=True)


def make_virasoro() -> GradedLieAlgebra:
    """The one-dimensional central extension of witt with the 1/12 normalization."""

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL:
            return Element.zero()
        out = {a + b: Fraction(b - a)}
        if a + b == 0:
            central = Fraction(b**3 - b, 12)
            if central:
                out[CENTRAL] = central
        return Element(out)

    return GradedLieAlgebra("virasoro", rule, has_central=True, graded=True)


def _parse_target(tok: str, central_ok: bool):
    tok = tok.strip()
    if ":" not in tok:
        raise FormatError(f"bad bracket term {tok!r}, expected k:p/q")
    key_s, _, coeff_s = tok.partition(":")
    key_s = key_s.strip()
    if key_s == CENTRAL:
        if not central_ok:
            raise FormatError("central target in a document declaring central: no")
        key = CENTRAL
    else:
        try:
            key = int(key_s)
        except ValueError:
            raise FormatError(f"bad target index {key_s!r}") from None
    try:
        coeff = Fraction(coeff_s.strip())
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"bad rational coefficient {coeff_s.strip()!r}") from None
    return key, coeff


def load_algebra(text: str) -> GradedLieAlgebra:
    """Parse a structure-constants document.

    Grammar (one item per line, '#' comments and blank lines ignored):

        name: <string>
        graded: yes|no
        central: yes|no
        <i> <j> -> <k>:<p/q>[, <k>:<p/q>]...

    Bracket records list pairs with i < j only; the bracket extends by
    antisymmetry and unlisted pairs bracket to zero.  In graded mode every
    target degree must equal i + j (the central generator has degree 0).
    Anything that does not match the grammar is rejected.
    """
    header = {}
    table: dict[tuple[int, int], Element] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if sep and key.strip() in ("name", "graded", "central") and "->" not in line:
            hkey = key.strip()
            if hkey in header:
                raise FormatError(f"line {lineno}: duplicate header {hkey!r}")
            header[hkey] = value.strip()
            continue
        if "->" not in line:
            raise FormatError(f"line {lineno}: unrecognized line {line!r}")
        lhs, _, rhs = line.partition("->")
        parts = lhs.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'i j -> ...'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer pair {lhs.strip()!r}") from None
        if i >= j:
            raise FormatError(f"line {lineno}: pair must satisfy i < j, got ({i},{j})")
        if (i, j) in table:
            raise FormatError(f"line {lineno}: duplicate pair ({i},{j})")
        if not rhs.strip():
            raise FormatError(f"line {lineno}: empty bracket value")
        terms = {}
        for tok in rhs.split(","):
            k, coeff = _parse_target(tok, header.get("central", "no") == "yes")
            if k in terms:
                raise FormatError(f"line {lineno}: repeated target {k!r}")
            terms[k] = coeff
        table[(i, j)] = Element(terms)

    for hkey in ("name", "graded", "central"):
        if hkey not in header:
            raise FormatError(f"missing header line {hkey!r}")
    for hkey in ("graded", "central"):
        if header[hkey] not in ("yes", "no"):
            raise FormatError(f"header {hkey!r} must be yes or no")
    graded = header["graded"] == "yes"
    has_central = header["central"] == "yes"

    if graded:
        for (i, j), elt in table.items():
            for k in elt.terms:
                if degree(k) != i + j:
                    raise FormatError(
                        f"grading violation at ({i},{j}): target {k!r} has degree "
                        f"{degree(k)}, expected {i + j}"
                    )

    def rule(a, b):
        if a == CENTRAL or b == CENTRAL:
            if not has_central:
                raise ValueError(f"{header['name']} has no central generator")
            return Element.zero()
        if a == b:
            return Element.zero()
        if a < b:
            return table.get((a, b), Element.zero())
        return -table.get((b, a), Element.zero())

    return GradedLieAlgebra(header["name"], rule, has_central=has_central, graded=graded)


def dump_algebra(alg: GradedLieAlgebra, window: Window) -> str:
    """Serialize brackets of window pairs in load_algebra's format."""
    lines = [
        f"name: {alg.name}",
        f"graded: {'yes' if alg.graded else 'no'}",
        f"central: {'yes' if alg.has_central else 'no'}",
    ]
    for i in window.indices():
        for j in window.indices():
            if i >= j:
                continue
            elt = alg.bracket_generators(i, j)
            if elt.is_zero:
                continue
            terms = ", ".join(f"{'c' if k == CENTRAL else k}:{v}" for k, v in elt.items())
            lines.append(f"{i} {j} -> {terms}")
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
        for triple, elt in self.defects[:10]:
            lines.append(f"  {triple}: {elt}")
        return "\n".join(lines)


def check_jacobi(alg: GradedLieAlgebra, window: Window) -> JacobiReport:
    """Evaluate [[x,y],z] + [[y,z],x] + [[z,x],y] on every basis triple in the window.

    An empty report certifies that the bracket rule is a Lie bracket on the
    window; central contributions are included when the algebra has one.
    """
    keys = sorted(alg.generator_keys(window), key=_key_order)
    defects = []
    for x, y, z in combinations(keys, 3):
        ex, ey, ez = Element.basis(x), Element.basis(y), Element.basis(z)
        defect = (
            alg.bracket(alg.bracket(ex, ey), ez)
            + alg.bracket(alg.bracket(ey, ez), ex)
            + alg.bracket(alg.bracket(ez, ex), ey)
        )
        if not defect.is_zero:
            defects.append(((x, y, z), defect))
    return JacobiReport(alg.name, window, tuple(defects))
