"""Golden digests of `linalg.solve` on the Witt cocycle matrices.

Equal ranks are not enough: downstream representatives and golden files read
the pivot columns, the canonical kernel basis and the particular solution, so
any change to the elimination must reproduce them exactly.  The golden file
holds the sha256 of every field of `solve(m)` for the q = 1, 2 cocycle
matrices (adjoint and trivial coefficients, d = -3..3, windows [-8,8] and
[-10,10]) and the full central-extension report on [-10,10].  It also pins
the right-hand-side path: the particular solution of seeded consistent and
inconsistent systems on the `coboundary_primitive` matrices (delta_1 on the
core comparison tuples, d = -2..2, window [-9,9], margin 4).

Regenerate with `PYTHONPATH=src python tests/test_solve_golden.py` only when
an output change is intended.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from wittcoh.algebra import Window, make_witt
from wittcoh.cochains import ADJOINT, TRIVIAL
from wittcoh.cohomology import central_extension_dim, cocycle_matrix, comparison_tuples
from wittcoh.linalg import solve

GOLDEN = Path(__file__).parent / "golden" / "solve_digests.json"


def solution_digest(sol) -> str:
    fields = [
        sol.rank,
        list(sol.pivot_columns),
        [[str(x) for x in v] for v in sol.kernel_basis],
        None if sol.particular is None else [str(x) for x in sol.particular],
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def rhs_systems():
    """(name, matrix, rhs, consistent) for the seeded right-hand-side systems.

    A consistent rhs is m*x for a random rational x; an inconsistent one adds 1
    to one entry of a consistent rhs, which leaves the column span of m.
    """
    witt = make_witt()
    for d in range(-2, 3):
        _, m = comparison_tuples(witt, 2, d, Window(-9, 9), 4)
        for seed in (0, 1):
            rng = Random(f"rhs {d} {seed}")
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.n_cols)]
            rhs = list(m.apply(x))
            yield f"d={d} seed={seed} consistent", m, rhs, True
            rhs[rng.randrange(m.n_rows)] += 1
            yield f"d={d} seed={seed} inconsistent", m, rhs, False


def particular_digest(particular) -> str:
    fields = None if particular is None else [str(x) for x in particular]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def golden_text() -> str:
    witt = make_witt()
    digests = {}
    for h in (8, 10):
        for coeffs in (ADJOINT, TRIVIAL):
            for q in (1, 2):
                for d in range(-3, 4):
                    matrix, _, _, _ = cocycle_matrix(witt, q, d, Window(-h, h), coeffs)
                    digests[f"q={q} d={d} window=-{h}:{h} {coeffs}"] = solution_digest(solve(matrix))
    data = {
        "solve_sha256": digests,
        "central_extension_dim(-10:10, 3)": central_extension_dim(Window(-10, 10), 3).to_json_dict(),
        "particular_sha256": {name: particular_digest(solve(m, rhs).particular)
                              for name, m, rhs, _ in rhs_systems()},
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_solve_outputs_match_golden_digests():
    assert golden_text() == GOLDEN.read_text()


def test_rhs_systems_are_consistent_exactly_when_built_so():
    for name, m, rhs, consistent in rhs_systems():
        assert (solve(m, rhs).particular is not None) == consistent, name


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
