"""Golden digests of `linalg.solve` on the Witt cocycle matrices.

Equal ranks are not enough: downstream representatives and golden files read
the pivot columns, the canonical kernel basis and the particular solution, so
any change to the elimination must reproduce them exactly.  The golden file
holds the sha256 of every field of `solve(m)` for the q = 1, 2 cocycle
matrices (adjoint and trivial coefficients, d = -3..3, windows [-8,8] and
[-10,10]) and the full central-extension report on [-10,10].

Regenerate with `PYTHONPATH=src python tests/test_solve_golden.py` only when
an output change is intended.
"""

import hashlib
import json
from pathlib import Path

from wittcoh.algebra import Window, make_witt
from wittcoh.cochains import ADJOINT, TRIVIAL
from wittcoh.cohomology import central_extension_dim, cocycle_matrix
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


def golden_text() -> str:
    witt = make_witt()
    digests = {}
    for h in (8, 10):
        for coeffs in (ADJOINT, TRIVIAL):
            for q in (1, 2):
                for d in range(-3, 4):
                    matrix, _, _ = cocycle_matrix(witt, q, d, Window(-h, h), coeffs)
                    digests[f"q={q} d={d} window=-{h}:{h} {coeffs}"] = solution_digest(solve(matrix))
    data = {
        "solve_sha256": digests,
        "central_extension_dim(-10:10, 3)": central_extension_dim(Window(-10, 10), 3).to_json_dict(),
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_solve_outputs_match_golden_digests():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
