"""Golden digests of the deformation path.

`conjugate`, `jacobi_defect` and `trivialize` are exact, so any change to how
they compute must reproduce their printed outputs byte for byte.  The golden
file holds the sha256 of:

* `render_deformation(conjugate(...))` (with the omitted pairs) for seeded
  unipotent equivalences on [-9,9] at orders 1-4, applied to the trivial
  Witt bracket and again to that conjugate, which carries omitted pairs;
* `str(jacobi_defect(...))` of those clean conjugates and of seeded
  Jacobi-defective Fraction-layer brackets;
* `str(trivialize(...))` and the rendering of its conjugated bracket;
* a Virasoro bracket: its defect report, its conjugate by the truncated
  automorphism e_i -> exp(t i) e_i, and the error of a conjugation that
  deforms a central target.

Every random coefficient is p/q with |p| <= 9 and q in {1, 2, 3, 7}.  Regenerate
with `PYTHONPATH=src python tests/test_deform_golden.py` only when an output
change is intended.
"""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

from wittcoh.algebra import Window, make_virasoro, make_witt
from wittcoh.cochains import MixedCochain
from wittcoh.deformation import (
    DeformedBracket,
    Equivalence,
    conjugate,
    jacobi_defect,
    render_deformation,
    trivialize,
)
from wittcoh.errors import ConfigError

from helpers import random_equivalence, random_mixed_layer

GOLDEN = Path(__file__).parent / "golden" / "deform_digests.json"
W9 = Window(-9, 9)


def bracket_text(d: DeformedBracket) -> str:
    # a deformation document cannot record omitted pairs, so they get a line of their own
    layers = render_deformation(replace(d, omitted_pairs=frozenset()))
    return layers + f"omitted: {sorted(d.omitted_pairs)}\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_text() -> str:
    witt = make_witt()
    rng = Random(2012)
    digests = {}
    for order in range(1, 5):
        start = DeformedBracket.trivial(witt, W9, order)
        once = conjugate(start, random_equivalence(rng, W9, order))
        twice = conjugate(once, random_equivalence(rng, W9, order))
        digests[f"conjugate order={order}"] = digest(bracket_text(once))
        digests[f"conjugate twice order={order}"] = digest(bracket_text(twice))
        digests[f"jacobi clean order={order}"] = digest(str(jacobi_defect(twice, W9)))
        defective = DeformedBracket(order, witt, W9, tuple(
            random_mixed_layer(rng, 2, W9, (-1, 1), 0.1) for _ in range(order)))
        digests[f"jacobi defective order={order}"] = digest(str(jacobi_defect(defective, W9)))
        result = trivialize(once, W9, margin=4)
        digests[f"trivialize order={order}"] = digest(
            str(result) + "\n" + bracket_text(result.conjugated))

    vir = make_virasoro()
    w6 = Window(-6, 6)
    layers = tuple(random_mixed_layer(rng, 2, w6, (0, 2), 0.3) for _ in range(2))
    d = DeformedBracket(2, vir, w6, layers)
    digests["virasoro jacobi"] = digest(str(jacobi_defect(d, w6)))
    # phi_v(e_i) = i^v / v! e_i preserves the central term, so no central
    # target is deformed and the conjugate exists
    auto = Equivalence(2, w6, tuple(
        MixedCochain(1, w6, {(i,): {i: Fraction(i ** v, factorial(v))} for i in w6.indices()})
        for v in (1, 2)))
    digests["virasoro conjugate"] = digest(bracket_text(conjugate(d, auto)))
    try:
        conjugate(d, random_equivalence(rng, w6, 2))
        digests["virasoro central error"] = "no error"
    except ConfigError as exc:
        digests["virasoro central error"] = str(exc)
    return json.dumps({"deform_sha256": digests}, indent=1, sort_keys=True) + "\n"


def test_deformation_outputs_match_golden_digests():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
