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

jacobi_defect and conjugate compute on Python ints, with the denominators
cleared per order: `_layer_tables` stores T_r = S_r mu_r, where S_r is the
lcm of mu_r's denominators and S_0 = D0 that of the order-0 brackets; P_u is
the lcm of phi_u's.  The terms of one order-s sum carry different scales:
S_{s-p} S_p for mu_{s-p}(mu_p(x, y), z) in the Jacobi sum, and S_r P_v P_w
for mu_r(phi_v x, phi_w y) and P_u W_{s-u} for phi_u(mu'_{s-u}) in
conjugate, where W_s is the scale of order s there.  So each order's scale
is the lcm of its terms' scales, and each term has a cofactor, applied once
per outer term or image coefficient.  A scaled sum is then zero exactly
when the exact one is, and one exact division by the order's scale gives
each stored or reported value.

One conjugation core, `_conjugate_tables`, rewrites the tables in place.  It
divides each rewritten T_s by the gcd of its entries and W_s, so S_s stays
the lcm of mu'_s's denominators.  `conjugate` is tables, the core, and one
conversion to Fractions.  `trivialize` carries one chain of tables from the
first stage to the last: it builds them once, reads each mu_s's weight
components from T_s, runs the core at each stage, and converts once at the
end.

Window bookkeeping is strictly honest, and `_layer_tables` (with
`_order0_table`, which builds T_0 once per algebra and window; the core never
writes it) is the only place it is checked: an order-0 bracket whose target
lies outside the window, or a layer value at a pair lost to the window edge,
is a _LOST table value, and reading one raises OutOfWindowError.  The defect
and conjugation routines skip the triple or pair that needed it (and record
the drop), so every stored value is the exact global one.

Both routines leave out work that cannot change their output.  The order-s
Jacobi sum holds mu_s(mu_0(a, b), c) for each rotation (a, b, c), so a triple
with a lost order-0 bracket is skipped at every order: jacobi_defect lists
the other triples once and counts the lost ones per row, adding those of the
rows up to the first defect's.  That list, those counts and the order-0
defect read T_0 alone, so `_order0_defect` keeps them per algebra and pair
of windows.  conjugate sums the B_m = sum_{r+v+w=m} mu_r(phi_v x, phi_w y)
of a pair over the nonzero images phi_v x, phi_w y only.  Below m0, the
first order with phi_{m0} != 0, phi_u = 0 for 0 < u < m0, so those layers
are d's, minus the pairs newly omitted; a stage id + t^s b_s of trivialize
has m0 = s.  The conversion builds the result layers with
`MixedCochain._trusted`, without re-checking values that come from checked
tables or layers; the central-target check stays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

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
from .cochains import ADJOINT, Cochain, MixedCochain, bad_arguments
from .cohomology import coboundary_primitive
from .errors import (BoundaryError, ConfigError, FormatError, NotACocycleError,
                     OutOfWindowError, check_coefficient)


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

    def apply_order(self, s: int, x: dict) -> dict:
        """phi_s applied to an {index: coefficient} dict (phi_0 = id), without the
        zeros a sum makes; the center, which has no row in a layer, is not moved."""
        if s == 0:
            return x
        rows = self.layers[s - 1].entries
        out = {}
        for k, v in x.items():
            for o, w in rows.get((k,), {}).items():
                out[o] = out.get(o, 0) + v * w
        return {o: v for o, v in out.items() if v}


# -- integer layer tables ----------------------------------------------------------


class _Lost:
    """Table value of a pair whose bracket would leave the window; reading it raises."""

    def __iter__(self):
        raise OutOfWindowError("a bracket term leaves the window")


_LOST = _Lost()


def _scaled(outs: dict, scale: int) -> tuple:
    """scale * outs as ((key, int), ...); scale is a multiple of every denominator."""
    return tuple((k, v.numerator * (scale // v.denominator)) for k, v in outs.items())


def _denominator(c: MixedCochain) -> int:
    """The lcm of the denominators of c's values (1 when c is zero)."""
    return lcm(*(v.denominator for outs in c.entries.values() for v in outs.values()))


@lru_cache(maxsize=16)
def _order0_table(alg: GradedLieAlgebra, window: Window) -> tuple[dict, int]:
    """(T_0, D0) of `_layer_tables`, built once per algebra and window and only read;
    TypeError for a bracket value that is not an int or a Fraction."""
    keys = alg.generator_keys(window)
    rule = {a: {b: alg.bracket_rule(a, b) for b in keys} for a in keys}
    d0 = lcm(*(check_coefficient(v).denominator
               for row in rule.values() for out in row.values() for v in out.values()))
    return {a: {b: _LOST if any(k != CENTRAL and k not in window for k in out)
                else _scaled(out, d0) for b, out in row.items()} for a, row in rule.items()}, d0


def _layer_tables(d: DeformedBracket) -> tuple[list, list]:
    """([T_0, ..., T_N], [S_0, ..., S_N]) with T_r[a][b] = S_r mu_r(e_a, e_b) as
    _scaled pairs and S_r the lcm of mu_r's denominators (S_0 = D0).

    Both orientations are stored; an order-0 target outside the window and an
    omitted pair map to _LOST, and a pair missing from a row of T_r (r >= 1)
    brackets to zero.  T_0 and D0 come from `_order0_table`; the other tables
    are new, and `_conjugate_tables` rewrites them.
    """
    t0, d0 = _order0_table(d.algebra, d.window)
    tables, scales = [t0], [d0]
    for mu in d.layers:
        table, scale = {a: {} for a in t0}, _denominator(mu)
        for (i, j), outs in mu.entries.items():
            table[i][j] = _scaled(outs, scale)
            table[j][i] = tuple((k, -v) for k, v in table[i][j])
        for i, j in d.omitted_pairs:
            table[i][j] = table[j][i] = _LOST
        tables.append(table)
        scales.append(scale)
    return tables, scales


def _pairs(table: dict, scale: int, window: Window):
    """((i, j), {key: value}) for each pair i < j that T_r = scale * mu_r holds."""
    for i in window.indices():
        for j, outs in table[i].items():
            if j > i and outs is not _LOST:
                yield (i, j), {k: Fraction(c, scale) if c % scale else c // scale
                               for k, c in outs}


def _bracket(d: DeformedBracket, tables: list, scales: list, omitted) -> DeformedBracket:
    """The bracket that tables T_1..T_N hold on d's algebra and window; every value
    is an exact entry of a checked table or layer, so the layers are built unchecked."""
    layers = tuple(MixedCochain._trusted(2, d.window, dict(_pairs(table, scale, d.window)))
                   for table, scale in zip(tables[1:], scales[1:]))
    return DeformedBracket(d.order, d.algebra, d.window, layers, frozenset(omitted))


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


def _order_defect(s: int, terms: list, scale: int, live: list, lost_in_row: dict,
                  window: Window) -> OrderDefect:
    """The order-s sum over the live triples: `terms` lists (outer, inner, cofactor),
    outer[a][b] bracketed with c by inner, and cofactor times the term carries `scale`."""
    found = None
    skipped = 0
    for x, y, z in live:
        if found and x != found[0][0]:
            break  # the rest of the first defective row is still counted
        total = {}
        try:
            for outer, inner, f in terms:
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    for k, v in outer[a].get(b, ()):
                        v *= f
                        for out, w in inner[k].get(c, ()):
                            total[out] = total.get(out, 0) + v * w
        except OutOfWindowError:
            skipped += 1
            continue
        if found is None and any(total.values()):
            found = ((x, y, z), {k: Fraction(v, scale) for k, v in total.items() if v})
    last = found[0][0] if found else window.hi
    skipped += sum(n for row, n in lost_in_row.items() if row <= last)
    if found:
        return OrderDefect(s, False, *found, skipped)
    return OrderDefect(s, True, skipped=skipped)


@lru_cache(maxsize=16)
def _order0_defect(alg: GradedLieAlgebra, bracket_window: Window, window: Window):
    """(order-0 OrderDefect, live triples, lost triples by row) of `jacobi_defect` on
    `window`; they read T_0 alone, so they are built once per algebra and windows,
    and only read."""
    t0, d0 = _order0_table(alg, bracket_window)
    # the term mu_s(mu_0(a, b), c) of every order reads mu_0(a, b) for each rotation,
    # so a triple with a lost order-0 bracket is skipped at every order
    live, lost_in_row = [], {}
    for x, y, z in combinations(window.indices(), 3):
        if t0[x][y] is _LOST or t0[y][z] is _LOST or t0[z][x] is _LOST:
            lost_in_row[x] = lost_in_row.get(x, 0) + 1
        else:
            live.append((x, y, z))
    return _order_defect(0, [(t0, t0, 1)], d0 * d0, live, lost_in_row, window), live, lost_in_row


def _jacobi(d: DeformedBracket, window: Window, tables: list, scales: list) -> DefectReport:
    """`jacobi_defect` on d's tables and scales (`_layer_tables`)."""
    if window.lo < d.window.lo or window.hi > d.window.hi:
        raise BoundaryError(f"check window {window} exceeds bracket window {d.window}")
    order0, live, lost_in_row = _order0_defect(d.algebra, d.window, window)
    orders = [order0]
    for s in range(1, d.order + 1):
        # mu_{s-p}(mu_p(a, b), c) carries S_{s-p} S_p; its cofactor brings it to the lcm
        carried = [scales[s - p] * scales[p] for p in range(s + 1)]
        scale = lcm(*carried)
        terms = [(tables[s - p], tables[p], scale // carried[p]) for p in range(s + 1)]
        orders.append(_order_defect(s, terms, scale, live, lost_in_row, window))
    return DefectReport(window, tuple(orders))


def jacobi_defect(d: DeformedBracket, window: Window) -> DefectReport:
    """Expand the Jacobi identity of mu_0 + sum t^s mu_s order by order.

    Order 0 is the Jacobi identity of the underlying bracket itself (central
    terms included); for each order s = 1..N the first triple with a nonzero
    defect is reported, and order-1 cleanliness is equivalent to
    delta(mu_1) = 0 on the interior triples.
    """
    return _jacobi(d, window, *_layer_tables(d))


# -- conjugation -------------------------------------------------------------------


def _conjugate_tables(tables: list, scales: list, omitted: set, window: Window, phi: dict):
    """Conjugate the bracket that (tables, scales) hold by id + sum_u t^u phi_u, in place.

    `phi` maps orders u >= 1 to 1-cochains phi_u (an order left out is zero),
    and P_u is the lcm of phi_u's denominators (P_0 = 1 for phi_0 = id).  The
    order-m sums carry one scale W_m, a multiple of S_r P_v P_w for each term
    mu_r(phi_v x, phi_w y), r + v + w = m, and of P_u W_{m-u} for each term
    phi_u(mu'_{m-u}); a term's cofactor is applied once per image coefficient
    or outer term.  Each rewritten T_m is divided by the gcd of W_m and its
    entries, so S_m is again the lcm of mu'_m's denominators.  A pair newly
    lost is added to `omitted` and is _LOST at every order from 1; T_0 is
    never written.  A nonzero central target raises ConfigError.
    """
    N = len(tables) - 1
    used = sorted(u for u, layer in phi.items() if not layer.is_zero)
    if not used:
        return  # phi = id: mu' = mu, and a pair reads a lost value only if it is omitted
    m0 = used[0]  # smallest order with a nonzero equivalence layer; phi_u = 0 for 0 < u < m0
    pscale = {0: 1, **{u: _denominator(phi[u]) for u in used}}
    # P_u phi_u(e_i) as _scaled pairs, by u and i
    rows = {u: {i: _scaled(outs, pscale[u]) for (i,), outs in phi[u].entries.items()}
            for u in used}
    vs = [0, *used]  # phi_0 = id
    work = []
    for m in range(N + 1):
        work.append(lcm(*(scales[m - v - w] * pscale[v] * pscale[w]
                          for v in vs for w in vs if v + w <= m),
                        *(pscale[u] * work[m - u] for u in used if u <= m)))
    # cofactors of mu_r(phi_v x, phi_w y) by v, w and m, and of phi_u(mu'_{m-u}) by u and m
    cof = {v: {w: [work[m] // (scales[m - v - w] * pscale[v] * pscale[w]) if v + w <= m else 0
                   for m in range(N + 1)] for w in vs} for v in vs}
    phi_terms = [(u, rows[u], [work[m] // (pscale[u] * work[m - u]) if u <= m else 0
                               for m in range(N + 1)]) for u in used]
    # the nonzero images (v, P_v phi_v e_i), phi_0 = id
    images = {i: [(0, ((i, 1),))] + [(v, rows[v][i]) for v in used if i in rows[v]]
              for i in window.indices()}
    values = [{} for _ in range(N + 1)]  # W_m mu'_m(e_i, e_j) by m and (i, j), for m >= m0
    for i in window.indices():
        for j in range(i + 1, window.hi + 1):
            # B_m = sum_{r+v+w=m} mu_r(phi_v e_i, phi_w e_j) times W_m, in one sweep
            # over the nonzero images
            b = [{} for _ in range(N + 1)]
            lost = N + 1  # the smallest m whose B_m reads a lost table value
            for v, xs in images[i]:
                for w, ys in images[j]:
                    fs = cof[v][w]
                    for m in range(v + w, lost):
                        table, total = tables[m - v - w], b[m]
                        try:
                            for kx, cx in xs:
                                row, cx = table[kx], cx * fs[m]
                                for ky, cy in ys:
                                    cxy = cx * cy
                                    for k, c in row.get(ky, ()):
                                        total[k] = total.get(k, 0) + cxy * c
                        except OutOfWindowError:
                            lost = m
                            break
            # orders below m0 keep their tables (mu'_r = B_r = mu_r for r < m0); order s
            # reads B_0..B_s, so the orders m0..lost-1 are computed (a central target there
            # raises) and a pair with lost <= N is omitted
            for s in range(m0, lost):
                # phi(mu') = B at order s: mu'_s = B_s - sum_{u >= 1} phi_u(mu'_{s-u}),
                # and b[s - u] holds mu'_{s-u} by now
                total = b[s]
                for u, phi_u, fs in phi_terms:
                    if u > s:
                        break
                    for k, c in b[s - u].items():
                        c *= fs[s]
                        for o, w in phi_u.get(k, ()):
                            total[o] = total.get(o, 0) - c * w
                if total.get(CENTRAL):
                    raise ConfigError("central targets are not deformed here")
            if lost <= N:
                omitted.add((i, j))
                continue
            for s in range(m0, N + 1):
                values[s][i, j] = b[s]
    for m in range(1, N + 1):
        if m >= m0:
            g = gcd(work[m], *(c for outs in values[m].values() for c in outs.values()))
            table = {a: {} for a in tables[0]}
            for (i, j), outs in values[m].items():
                if row := tuple((k, c // g) for k, c in outs.items() if c):
                    table[i][j] = row
                    table[j][i] = tuple((k, -c) for k, c in row)
            tables[m], scales[m] = table, work[m] // g
        for i, j in omitted:
            tables[m][i][j] = tables[m][j][i] = _LOST


def conjugate(d: DeformedBracket, e: Equivalence) -> DeformedBracket:
    """phi^{-1}[phi(x), phi(y)] expanded through the truncation order, solved from
    phi(mu'(x, y)) = mu(phi x, phi y) one order at a time.

    Entries whose evaluation would leave the window are omitted from every
    layer and the pair is recorded in omitted_pairs; all stored entries are
    exact.  A nonzero central target raises ConfigError.
    """
    if e.order != d.order or e.window != d.window:
        raise ValueError("equivalence and bracket must share order and window")
    tables, scales = _layer_tables(d)
    omitted = set(d.omitted_pairs)
    _conjugate_tables(tables, scales, omitted, d.window, dict(enumerate(e.layers, start=1)))
    return _bracket(d, tables, scales, omitted)


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
                f"weight {self.obstruction.weight} component")


def trivialize(d: DeformedBracket, window: Window, margin: int) -> TrivializationResult:
    """Peel a Jacobi-clean deformation down to the trivial one, order by order.

    At stage s the current mu_s is matched by delta(b_s) on the core
    comparison tuples and the bracket is conjugated by id + t^s b_s, which
    changes nothing below order s; each cleared order therefore stays cleared,
    and on success the conjugated layers vanish exactly on the margin core
    (verified entry by entry).  A component with no primitive aborts with the
    obstruction representative instead.  Every stage, and every call on one
    window and margin, reads `coboundary_primitive`'s cached comparison systems.

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
    tables, scales = _layer_tables(d)
    report = _jacobi(d, window, tables, scales)
    if not report.clean:
        bad = report.first_unclean()
        raise NotACocycleError(bad.triple,
                               f"jacobi defect at order {bad.order}; not a deformation",
                               report=report)
    N = d.order
    omitted = set(d.omitted_pairs)
    total_eq = Equivalence.identity(d.window, N)
    for s in range(1, N + 1):
        comps = {}  # mu_s's weight components, read from T_s
        for t, outs in _pairs(tables[s], scales[s], d.window):
            for k, v in outs.items():
                comps.setdefault(k - sum(t), {})[t] = v
        if not comps:
            continue
        parts = []
        for wt in sorted(comps):
            if abs(wt) > margin:
                raise BoundaryError(
                    f"order {s} has a weight {wt} component; trivializing it "
                    f"needs margin >= {abs(wt)}, got {margin}")
            part = Cochain._trusted(2, wt, d.window, ADJOINT, comps[wt])
            prim = coboundary_primitive(d.algebra, part, margin, exclude=omitted)
            if prim is None:
                return TrivializationResult(
                    trivialized=False, equivalence=None, conjugated=None,
                    verification_core=None, report=report, obstruction_order=s,
                    obstruction=part)
            parts.append(prim)
        b_s = MixedCochain.from_components(1, d.window, parts)
        _conjugate_tables(tables, scales, omitted, d.window, {s: b_s})
        # conjugate(conjugate(d, e1), e2) = conjugate(d, e1 o e2): the new stage goes
        # inside, (total o (id + t^s b_s))_r = total_r + total_{r-s} o b_s
        layers = list(total_eq.layers)
        for r in range(s, N + 1):
            layers[r - 1] += MixedCochain._trusted(1, d.window, {
                t: image for t, outs in b_s.entries.items()
                if (image := total_eq.apply_order(r - s, outs))})
        total_eq = Equivalence(N, d.window, tuple(layers))
    current = _bracket(d, tables, scales, omitted)
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
