"""Shared generators for the test suite: random cochains and honest cocycles.

Random cocycles are produced as restrictions of true coboundaries: the
primitive lives on an enlarged window, the differential is taken there, and
the result is cut back to the target window.  Every interior equation on the
target window then references true values, so the restriction really is a
cocycle for the interior-only differential.
"""

from fractions import Fraction
from itertools import combinations
from random import Random

from wittcoh.algebra import Window
from wittcoh.cochains import ADJOINT, Cochain, MixedCochain, basis_tuples, differential


def random_scalar(rng: Random) -> Fraction:
    num = rng.randint(-9, 9)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_cochain(rng: Random, degree, weight, window, coeffs=ADJOINT, fill=0.4) -> Cochain:
    entries = {}
    for t in basis_tuples(degree, weight, window, coeffs):
        if rng.random() < fill:
            v = random_scalar(rng)
            if v:
                entries[t] = v
    return Cochain(degree, weight, window, coeffs, entries)


def restrict_entries(c: Cochain, window: Window) -> Cochain:
    """Keep the entries of c that are admissible on the (smaller) window."""
    probe = Cochain(c.degree, c.weight, window, c.coeffs)
    keep = {t: v for t, v in c.entries.items() if probe.admissible(t)}
    return Cochain(c.degree, c.weight, window, c.coeffs, keep)


def truncated_coboundary(rng: Random, alg, degree, weight, window, coeffs=ADJOINT,
                         ext=None, fill=0.4, support=None):
    """(primitive on the big window, delta(primitive) restricted to `window`)."""
    if ext is None:
        ext = abs(weight) + 2
    big = Window(window.lo - ext, window.hi + ext)
    b = random_cochain(rng, degree, weight, big, coeffs, fill)
    if support is not None:
        b = Cochain(degree, weight, big, coeffs,
                    {t: v for t, v in b.entries.items() if all(a in support for a in t)})
    db = differential(alg, b)
    probe = Cochain(degree + 1, weight, window, coeffs)
    if any(probe.admissible(t) for t in db.omitted):
        raise AssertionError("primitive window not large enough for exact coboundary")
    return b, restrict_entries(db, window)


def never_leaves_window(indices, weight: int, window: Window) -> bool:
    """Conservative two-stage interiority: every subset sum (and every subset
    sum shifted by the weight) that any differential composition could
    materialize stays inside the window."""
    idx = list(indices)
    n = len(idx)
    for r in range(1, n + 1):
        for sub in combinations(idx, r):
            s = sum(sub)
            if r >= 2 and s not in window:
                return False
            if s + weight not in window:
                return False
    return True


def random_mixed_cocycle(rng: Random, alg, degree, weights, window, ext=None, fill=0.3):
    """Mixed-weight restriction-of-a-true-coboundary on the window."""
    parts = []
    for d in weights:
        _, c = truncated_coboundary(rng, alg, degree, d, window, ext=ext, fill=fill)
        parts.append(c)
    return MixedCochain.from_components(degree + 1, window, parts)
