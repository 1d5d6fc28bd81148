"""Order-by-order formal deformations over K[t]/(t^{N+1}).

A deformed bracket is mu_0 + t mu_1 + ... + t^N mu_N with mu_0 a graded Lie
algebra on the window and each layer an antisymmetric 2-cochain of arbitrary
mixed weight.  Brackets and equivalences carry the truncation order N as a
plain `order` field, with exactly N layers.  The staple computations:

* jacobi_defect expands the Jacobi identity of the deformed bracket order by
  order; cleanliness at order 1 is exactly delta(mu_1) = 0;
* conjugate transports a bracket along phi = id + t^1 phi_1 + ... (unipotent,
  hence invertible over the truncated base): mu'(x,y) = phi^{-1} mu(phi x, phi y).
  It never builds phi^{-1}: phi(mu') = B with B(x, y) = mu(phi x, phi y) is
  triangular in t, so mu'_s = B_s - sum_{u>=1} phi_u(mu'_{s-u}), order by order;
* trivialize peels a Jacobi-clean deformation one order at a time, solving
  delta(b_s) = mu_s on the core comparison tuples and conjugating by
  id + t^s b_s; under the sign convention of `cochains.differential` that
  replaces mu_s by mu_s - delta(b_s) at order s.  Each stage goes inside the
  equivalence so far, whose layers it updates in place:
  (total o (id + t^s b_s))_r = total_r + total_{r-s} o b_s.

jacobi_defect and conjugate compute on Python ints: with D the lcm of every
layer denominator (the equivalence's too) and D0 that of the order-0
brackets, `_layer_tables` stores T_r = D0 D^r mu_r, the substitution
t -> t/D.  Every term of an order-s sum then carries one scale: D0^2 D^s for
mu_{s-p}(mu_p(x, y), z) in the Jacobi sum, and D0 D^s for both
mu_r(phi_v x, phi_w y) and phi_u(mu'_{s-u}(x, y)) in conjugate, where
D^v phi_v is integral and mu'_{s-u} carries D0 D^{s-u} by induction.  So a
scaled sum is zero exactly when the exact one is, and one exact division by
the scale gives each stored or reported value.

Window bookkeeping is strictly honest, and `_layer_tables` (with
`_order0_table`, which builds T_0 once per algebra and window) is the only
place it is checked: an order-0 bracket whose target lies outside the
window, or a layer value at a pair lost to the window edge, is a _LOST
table value, and reading one raises OutOfWindowError.  The defect and
conjugation routines skip the triple or pair that needed it (and record the
drop), so every stored value is the exact global one.

Both routines leave out work that cannot change their output.  The order-s
Jacobi sum holds mu_s(mu_0(a, b), c) for each rotation (a, b, c), so a triple
with a lost order-0 bracket is skipped at every order: jacobi_defect lists
the other triples once and counts the lost ones per row, adding those of the
rows up to the first defect's.  conjugate sums the B_m = sum_{r+v+w=m}
mu_r(phi_v x, phi_w y) of a pair over the nonzero images phi_v x, phi_w y
only.  Below m0, the first order with phi_{m0} != 0, phi_u = 0 for
0 < u < m0, so those layers are d's, minus the pairs newly omitted; a stage
id + t^s b_s of trivialize has m0 = s.  conjugate builds its result layers
with `MixedCochain._trusted`, without re-checking values that come from
checked tables or layers; the central-target check stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

from .algebra import (
    BUILTIN,
    CENTRAL,
    GradedLieAlgebra,
    Window,
    format_terms,
    parse_terms,
    parse_tuple,
    parse_window,
    read_document,
)
from .cochains import (
    Cochain,
    MixedCochain,
    bad_arguments,
    weight_components,
)
from .cohomology import coboundary_primitive
from .errors import BoundaryError, ConfigError, FormatError, NotACocycleError, OutOfWindowError


def _check_layers(series, degree: int, mismatch: str):
    """ValueError unless `series` holds `order` `degree`-cochains on its window."""
    if len(series.layers) != series.order:
        raise ValueError(f"expected {series.order} layers, got {len(series.layers)}")
    if any(x.degree != degree or x.window != series.window for x in series.layers):
        raise ValueError(mismatch)


@dataclass(frozen=True)
class DeformedBracket:
    """mu_0 + t mu_1 + ... + t^order mu_order over K[t]/(t^{order+1})."""

    order: int
    algebra: GradedLieAlgebra
    window: Window
    layers: tuple = ()
    omitted_pairs: frozenset = frozenset()

    def __post_init__(self):
        _check_layers(self, 2, "layers must be 2-cochains on the bracket window")

    @classmethod
    def trivial(cls, algebra: GradedLieAlgebra, window: Window, order: int) -> "DeformedBracket":
        return cls(order, algebra, window,
                   tuple(MixedCochain(2, window) for _ in range(order)))


@dataclass(frozen=True)
class Equivalence:
    """phi = id + t phi_1 + ... + t^N phi_N, a unipotent change of basis."""

    order: int
    window: Window
    layers: tuple = ()

    def __post_init__(self):
        _check_layers(self, 1, "equivalence layers must be 1-cochains on the window")

    @classmethod
    def identity(cls, window: Window, order: int) -> "Equivalence":
        return cls(order, window, tuple(MixedCochain(1, window) for _ in range(order)))

    @classmethod
    def single(cls, window: Window, order: int, s: int, phi_s: MixedCochain) -> "Equivalence":
        layers = [MixedCochain(1, window) for _ in range(order)]
        layers[s - 1] = phi_s
        return cls(order, window, tuple(layers))

    def apply_order(self, s: int, x: dict) -> dict:
        """phi_s applied to an {index: coefficient} dict (phi_0 = id); the center,
        which has no row in a layer, is not moved."""
        if s == 0:
            return x
        rows = self.layers[s - 1].entries
        out = {}
        for k, v in x.items():
            for o, w in rows.get((k,), {}).items():
                out[o] = out.get(o, 0) + v * w
        return out


# -- integer layer tables ----------------------------------------------------------


class _Lost:
    """Table value of a pair whose bracket would leave the window; reading it raises."""

    def __iter__(self):
        raise OutOfWindowError("a bracket term leaves the window")


_LOST = _Lost()


def _scaled(outs: dict, scale: int) -> tuple:
    """scale * outs as ((key, int), ...); scale is a multiple of every denominator."""
    return tuple((k, v.numerator * (scale // v.denominator)) for k, v in outs.items())


@lru_cache(maxsize=16)
def _order0_table(alg: GradedLieAlgebra, window: Window) -> tuple[dict, int]:
    """(T_0, D0) of `_layer_tables`, built once per algebra and window and only read."""
    keys = alg.generator_keys(window)
    rule = {a: {b: alg.bracket_rule(a, b) for b in keys} for a in keys}
    d0 = lcm(*(v.denominator for row in rule.values() for out in row.values() for v in out.values()))
    return {a: {b: _LOST if any(k != CENTRAL and k not in window for k in out)
                else _scaled(out, d0) for b, out in row.items()} for a, row in rule.items()}, d0


def _layer_tables(d: DeformedBracket, extra=()) -> tuple[list, int, int]:
    """([T_0, ..., T_N], D0, D) with T_r[a][b] = D0 D^r mu_r(e_a, e_b) as _scaled pairs.

    D covers d's layers and the `extra` mixed cochains.  Both orientations are
    stored; an order-0 target outside the window and an omitted pair map to
    _LOST, and a pair missing from a row of T_r (r >= 1) brackets to zero.
    T_0 and D0 come from `_order0_table`.
    """
    den = lcm(*(v.denominator for c in (*d.layers, *extra)
                for outs in c.entries.values() for v in outs.values()))
    t0, d0 = _order0_table(d.algebra, d.window)
    tables = [t0]
    for r, mu in enumerate(d.layers, start=1):
        table, scale = {a: {} for a in t0}, d0 * den ** r
        for (i, j), outs in mu.entries.items():
            table[i][j] = _scaled(outs, scale)
            table[j][i] = tuple((k, -v) for k, v in table[i][j])
        for i, j in d.omitted_pairs:
            table[i][j] = table[j][i] = _LOST
        tables.append(table)
    return tables, d0, den


# -- Jacobi defects ------------------------------------------------------------


@dataclass(frozen=True)
class OrderDefect:
    order: int
    clean: bool
    triple: tuple | None = None
    defect: dict | None = None
    skipped: int = 0


@dataclass(frozen=True)
class DefectReport:
    window: Window
    orders: tuple = ()

    @property
    def clean(self) -> bool:
        return all(o.clean for o in self.orders)

    def first_unclean(self):
        return next((o for o in self.orders if not o.clean), None)

    def __str__(self):
        lines = [f"jacobi defects on {self.window}:"]
        for o in self.orders:
            if o.clean:
                lines.append(f"  order {o.order}: clean ({o.skipped} boundary triples skipped)")
            else:
                lines.append(f"  order {o.order}: defect at {o.triple}: {format_terms(o.defect)}")
        return "\n".join(lines)


def jacobi_defect(d: DeformedBracket, window: Window) -> DefectReport:
    """Expand the Jacobi identity of mu_0 + sum t^s mu_s order by order.

    Order 0 is the Jacobi identity of the underlying bracket itself (central
    terms included); for each order s = 1..N the first triple with a nonzero
    defect is reported, and order-1 cleanliness is equivalent to
    delta(mu_1) = 0 on the interior triples.
    """
    if window.lo < d.window.lo or window.hi > d.window.hi:
        raise BoundaryError(f"check window {window} exceeds bracket window {d.window}")
    tables, d0, den = _layer_tables(d)
    # the term mu_s(mu_0(a, b), c) of every order reads mu_0(a, b) for each rotation,
    # so a triple with a lost order-0 bracket is skipped at every order
    live, lost_in_row = [], {}
    t0 = tables[0]
    for x, y, z in combinations(window.indices(), 3):
        if t0[x][y] is _LOST or t0[y][z] is _LOST or t0[z][x] is _LOST:
            lost_in_row[x] = lost_in_row.get(x, 0) + 1
        else:
            live.append((x, y, z))
    orders = []
    for s in range(0, d.order + 1):
        # every term mu_{s-p}(mu_p(a, b), c) of the order-s sum carries d0^2 den^s
        terms = [(tables[s - p], tables[p]) for p in range(s + 1)]
        found = None
        skipped = 0
        for x, y, z in live:
            if found and x != found[0][0]:
                break  # the rest of the first defective row is still counted
            total = {}
            try:
                for outer, inner in terms:
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        for k, v in outer[a].get(b, ()):
                            for out, w in inner[k].get(c, ()):
                                total[out] = total.get(out, 0) + v * w
            except OutOfWindowError:
                skipped += 1
                continue
            if found is None and any(total.values()):
                scale = d0 * d0 * den ** s
                found = ((x, y, z), {k: Fraction(v, scale) for k, v in total.items() if v})
        last = found[0][0] if found else window.hi
        skipped += sum(n for row, n in lost_in_row.items() if row <= last)
        orders.append(OrderDefect(s, False, *found, skipped) if found
                      else OrderDefect(s, True, skipped=skipped))
    return DefectReport(window, tuple(orders))


# -- conjugation -------------------------------------------------------------------


def conjugate(d: DeformedBracket, e: Equivalence) -> DeformedBracket:
    """phi^{-1}[phi(x), phi(y)] expanded through the truncation order, solved from
    phi(mu'(x, y)) = mu(phi x, phi y) one order at a time.

    Entries whose evaluation would leave the window are omitted from every
    layer and the pair is recorded in omitted_pairs; all stored entries are
    exact.  A nonzero central target raises ConfigError.
    """
    if e.order != d.order or e.window != d.window:
        raise ValueError("equivalence and bracket must share order and window")
    N = d.order
    tables, d0, den = _layer_tables(d, e.layers)
    # den^u phi_u is integral; row u - 1 holds it at each e_i
    phi_rows = [{i: _scaled(outs, den ** u) for (i,), outs in layer.entries.items()}
                for u, layer in enumerate(e.layers, start=1)]
    # smallest order with a nonzero equivalence layer; phi_u = 0 for 0 < u < m0
    m0 = next((s for s in range(1, N + 1) if not e.layers[s - 1].is_zero), N + 1)
    # B_0 is read only through phi_u(mu'_0) = phi_u(B_0), u >= m0, so only when phi != 0
    first = 0 if m0 <= N else 1
    # the nonzero images (v, den^v phi_v e_i), phi_0 = id, and the nonzero phi_u, by order
    images = {i: [(0, ((i, 1),))] + [(v, rows[i]) for v, rows in enumerate(phi_rows, start=1)
                                     if i in rows]
              for i in d.window.indices()}
    phi_terms = [(u, rows) for u, rows in enumerate(phi_rows, start=1) if rows]
    new_entries: list[dict] = [dict() for _ in range(N)]
    omitted = set(d.omitted_pairs)
    for i in d.window.indices():
        for j in range(i + 1, d.window.hi + 1):
            # B_m = sum_{r+v+w=m} mu_r(phi_v e_i, phi_w e_j) times d0 den^m, in one sweep
            # over the nonzero images
            b = [{} for _ in range(N + 1)]
            lost = N + 1  # the smallest m whose B_m reads a lost table value
            for v, xs in images[i]:
                for w, ys in images[j]:
                    for m in range(max(v + w, first), lost):
                        table, total = tables[m - v - w], b[m]
                        try:
                            for kx, cx in xs:
                                row = table[kx]
                                for ky, cy in ys:
                                    for k, c in row.get(ky, ()):
                                        total[k] = total.get(k, 0) + cx * cy * c
                        except OutOfWindowError:
                            lost = m
                            break
            # orders below m0 keep d's layers (mu'_r = B_r = mu_r for r < m0); order s
            # reads B_0..B_s, so the orders m0..lost-1 are computed (a central target there
            # raises) and a pair with lost <= N is omitted
            mu = b[:m0]  # d0 den^r mu'_r(e_i, e_j), by order r
            values = []
            for s in range(m0, lost):
                # phi(mu') = B at order s: mu'_s = B_s - sum_{u >= 1} phi_u(mu'_{s-u}),
                # every term carrying d0 den^s
                total = dict(b[s])
                for u, rows in phi_terms:
                    if u > s:
                        break
                    for k, c in mu[s - u].items():
                        for o, w in rows.get(k, ()):
                            total[o] = total.get(o, 0) - c * w
                mu.append(total)
                scale = d0 * den ** s
                outs = {k: Fraction(c, scale) if c % scale else c // scale
                        for k, c in total.items() if c}
                if CENTRAL in outs:
                    raise ConfigError("central targets are not deformed here")
                values.append(outs)
            if lost <= N:
                omitted.add((i, j))
                continue
            for s, outs in enumerate(values, start=m0):
                if outs:
                    new_entries[s - 1][(i, j)] = outs
    for s in range(1, min(m0, N + 1)):
        new_entries[s - 1] = {t: outs for t, outs in d.layers[s - 1].entries.items()
                              if t not in omitted}
    # every value above is an exact entry of a checked table or of d's checked layers
    layers = tuple(MixedCochain._trusted(2, d.window, entries) for entries in new_entries)
    return DeformedBracket(N, d.algebra, d.window, layers, frozenset(omitted))


# -- trivialization -------------------------------------------------------------------


@dataclass(frozen=True)
class TrivializationResult:
    trivialized: bool
    equivalence: Equivalence | None
    conjugated: DeformedBracket | None
    verification_core: Window | None
    report: DefectReport  # the Jacobi check that admitted d
    obstruction_order: int | None = None
    obstruction: Cochain | None = None

    def __str__(self):
        if self.trivialized:
            return (f"trivialized: all layers vanish on the core "
                    f"{self.verification_core} (exact)")
        return (f"obstructed at order {self.obstruction_order}: no primitive for the "
                f"weight-{self.obstruction.weight} component")


def trivialize(d: DeformedBracket, window: Window, margin: int) -> TrivializationResult:
    """Peel a Jacobi-clean deformation down to the trivial one, order by order.

    At stage s the current mu_s is matched by delta(b_s) on the core
    comparison tuples and the bracket is conjugated by id + t^s b_s, which
    changes nothing below order s; each cleared order therefore stays cleared,
    and on success the conjugated layers vanish exactly on the margin core
    (verified entry by entry).  A component with no primitive aborts with the
    obstruction representative instead.

    The comparison set is all of the core only for weights |w| <= margin, so a
    component of larger weight raises BoundaryError; a margin that leaves no
    core raises ConfigError (from `Window.core`) before any work.  The Jacobi
    defect report on `window` comes back on the result, or on the
    NotACocycleError that rejects a defective d.

    The equivalence on the result is e_1 o ... o e_N.  Conjugating d by it in
    one step gives `conjugated`'s values on every pair both keep.  A pair the
    chain lost is left out of the later stages' primitives, so the one-step
    value there may be nonzero on the core.
    """
    core = d.window.core(margin)
    report = jacobi_defect(d, window)
    if not report.clean:
        bad = report.first_unclean()
        raise NotACocycleError(bad.triple,
                               f"jacobi defect at order {bad.order}; not a deformation",
                               report=report)
    N = d.order
    current = d
    total_eq = Equivalence.identity(d.window, N)
    comparisons = {}  # weight -> comparison_tuples, built once for every order of this call
    for s in range(1, N + 1):
        mu_s = current.layers[s - 1]
        if not mu_s.is_zero:
            comps = weight_components(mu_s)
            parts = []
            for wt in sorted(comps):
                if abs(wt) > margin:
                    raise BoundaryError(
                        f"order {s} has a weight-{wt} component; trivializing it "
                        f"needs margin >= {abs(wt)}, got {margin}")
                prim = coboundary_primitive(d.algebra, comps[wt], margin, comparisons=comparisons,
                                            exclude=current.omitted_pairs)
                if prim is None:
                    return TrivializationResult(
                        trivialized=False, equivalence=None, conjugated=None,
                        verification_core=None, report=report, obstruction_order=s,
                        obstruction=comps[wt])
                parts.append(prim)
            b_s = MixedCochain.from_components(1, d.window, parts)
            e_s = Equivalence.single(d.window, N, s, b_s)
            current = conjugate(current, e_s)
            # conjugate(conjugate(d, e1), e2) = conjugate(d, e1 o e2): the new stage goes
            # inside, (total o (id + t^s b_s))_r = total_r + total_{r-s} o b_s
            layers = list(total_eq.layers)
            for r in range(s, N + 1):
                layers[r - 1] += MixedCochain(1, d.window, {
                    t: total_eq.apply_order(r - s, outs) for t, outs in b_s.entries.items()})
            total_eq = Equivalence(N, d.window, tuple(layers))
    for s in range(1, N + 1):
        leftover = current.layers[s - 1].restrict(core)
        if not leftover.is_zero:
            raise AssertionError(
                f"trivialization left a nonzero order-{s} layer on {core}")
    return TrivializationResult(
        trivialized=True, equivalence=total_eq, conjugated=current,
        verification_core=core, report=report)


# -- deformation documents -------------------------------------------------------------


def parse_deformation(text: str, algebra_loader=None) -> DeformedBracket:
    """Parse a deformation document.

    Grammar (`read_document`'s, with the repeatable section key `layer`):

        algebra: witt | virasoro
        order: <N>
        window: <lo>:<hi>
        layer: <s>
        (i,j) -> <out>:<p/q>[, <out>:<p/q>]...

    Records after a `layer: s` line populate mu_s; every layer index must lie
    in 1..N, and a pair may appear once per layer.  `algebra_loader`, when
    given, maps the algebra name to a custom algebra instead of the built-ins.
    """
    header, records = read_document(text, ("algebra", "order", "window"), section="layer")
    try:
        order = int(header["order"])
    except ValueError:
        raise FormatError("order must be an integer") from None
    if order < 0:
        raise FormatError(f"order must be non-negative, got {order}")
    window = parse_window(header["window"])
    name = header["algebra"]
    if algebra_loader is not None:
        algebra = algebra_loader(name)
    elif name in BUILTIN:
        algebra = BUILTIN[name]()
    else:
        raise FormatError(f"unknown algebra {name!r} (expected {' or '.join(BUILTIN)})")

    layer_entries: dict[int, dict] = {}
    active = None
    for lineno, lhs, rhs in records:
        if lhs is None:  # a `layer: s` line
            try:
                active = int(rhs)
            except ValueError:
                raise FormatError(f"line {lineno}: bad layer index {rhs!r}") from None
            if active in layer_entries:
                raise FormatError(f"line {lineno}: duplicate layer {active}")
            if not 1 <= active <= order:
                raise FormatError(f"line {lineno}: layer index {active} outside 1..{order}")
            layer_entries[active] = {}
            continue
        if active is None:
            raise FormatError(f"line {lineno}: bracket record before any layer line")
        pair = parse_tuple(lhs, lineno)
        if bad := bad_arguments(pair, 2, window):
            raise FormatError(f"line {lineno}: {bad}")
        if pair in layer_entries[active]:
            raise FormatError(f"line {lineno}: duplicate pair {lhs} in layer {active}")
        layer_entries[active][pair] = parse_terms(rhs, lineno)
    layers = []
    for s in range(1, order + 1):
        try:
            layers.append(MixedCochain(2, window, layer_entries.get(s, {})))
        except (OutOfWindowError, ValueError) as exc:
            raise FormatError(f"layer {s}: {exc}") from None
    return DeformedBracket(order, algebra, window, tuple(layers))


def render_deformation(d: DeformedBracket) -> str:
    """`parse_deformation`'s form of d; ConfigError when d has omitted pairs, which
    the document cannot record (read back, they would count as zero brackets)."""
    if d.omitted_pairs:
        raise ConfigError(f"cannot render a deformation with {len(d.omitted_pairs)} omitted "
                          f"pairs (first {min(d.omitted_pairs)}): a deformation document "
                          f"cannot record them")
    lines = [f"algebra: {d.algebra.name}", f"order: {d.order}",
             f"window: {d.window.lo}:{d.window.hi}"]
    for s, mu in enumerate(d.layers, start=1):
        lines.append(f"layer: {s}")
        for t in sorted(mu.entries):
            outs = ", ".join(f"{o}:{v}" for o, v in sorted(mu.entries[t].items()))
            lines.append(f"({t[0]},{t[1]}) -> {outs}")
    return "\n".join(lines) + "\n"
