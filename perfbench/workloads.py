"""The benchmark's three workloads: inputs from a seed, verdicts, known answers.

Each workload is a list of cases.  A case's `run(ctx)` computes one verdict
through the package's public functions and returns its answer fields; the
case passes when every field named in `expect` has the expected value.  The
runner times `run` and nothing else, so input generation stays in set-up.

* rigidity: the rigidity_scan grid, stable H^2_d of the Witt algebra for
  d = -6..6 on [-h, h], h in {8, 10, 12}, margin 4.  The known answer is
  dim_stable = 0 everywhere; dim_cocycles and omitted_triples are pinned in
  answers.json so a changed dimension fails too.  The seed shuffles the
  order of the grid.
* deform: unipotent conjugates of the Witt bracket on [-12, 12], two at
  each of the orders 3, 4 and 5; each layer is random 1-cochains of two
  distinct weights from {-1, 0, 1} at fill 0.2, the entries drawn from the
  seed.  Each must be trivialized exactly on the core, with margin
  max(4, order).  Two controls: a deformation of the abelian plane must
  be reported obstructed at order 1, and a layer that is not a cocycle must
  be rejected with NotACocycleError.
* certify: the README's CLI calls, each in a fresh interpreter, judged by
  exit code and output; the replay output must contain both golden files,
  and a negative control must exit 1.  The seed shuffles the call order.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(ROOT, "tests", "golden")


class Case:
    def __init__(self, label, run, expect):
        self.label = label
        self.run = run
        self.expect = expect


class Context:
    """How a case reaches the package: plain or traced functions, child traces."""

    def __init__(self, resolve, trace_dir=None):
        self.resolve = resolve
        self.trace_dir = trace_dir
        self.child_traces = []  # trace documents read back from traced children


def plain_resolve(layer, name):
    return getattr(importlib.import_module(f"wittcoh.{layer}"), name)


# -- rigidity -------------------------------------------------------------------


def _load_answers():
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as handle:
        return json.load(handle)


def rigidity(seed, small=False):
    from wittcoh.algebra import Window, make_witt

    halves, weights = ((5, 6), (-1, 0, 1)) if small else ((8, 10, 12), range(-6, 7))
    pinned = _load_answers()["rigidity"]
    witt = make_witt()
    grid = [(d, h) for h in halves for d in weights]
    Random(seed).shuffle(grid)
    cases = []
    for d, h in grid:
        window = Window(-h, h)

        def run(ctx, d=d, window=window):
            r = ctx.resolve("cohomology", "cohomology_dim")(witt, 2, d, window, margin=4)
            return {"dim_stable": r.dim_stable, "dim_cocycles": r.dim_cocycles,
                    "omitted_triples": r.omitted_triples}

        expect = {"dim_stable": 0}
        key = f"{d},{h}"
        if key in pinned:
            expect["dim_cocycles"], expect["omitted_triples"] = pinned[key]
        cases.append(Case(f"H2_d{d:+d}_h{h}", run, expect))
    return cases


# -- deform ---------------------------------------------------------------------

ABELIAN_PLANE = "name: abelian-plane\ngraded: yes\ncentral: no\n"
NUMERATORS = [p for p in range(-9, 10) if p]
# Two trials per order halve the share of a pass that one seed's draw decides.
TRIALS = ("a", "b")


def _random_cochain(rng, weight, window, fill):
    """Nonzero entries p/q, |p| <= 9, q in {1, 2, 3}, on a `fill` share of the tuples.

    The share is exact rather than a per-tuple coin flip, so the seed moves
    where the entries sit but not how many there are.
    """
    from wittcoh.cochains import ADJOINT, Cochain, basis_tuples

    tuples = basis_tuples(1, weight, window, ADJOINT)
    support = rng.sample(tuples, k=round(fill * len(tuples)))
    entries = {t: Fraction(rng.choice(NUMERATORS), rng.choice([1, 1, 2, 3])) for t in support}
    return Cochain(1, weight, window, ADJOINT, entries)


# The work of a trial grows with the weights its layers span, so layer s
# takes the weight pair WEIGHT_PAIRS[(s - 1) % 3] and the seed draws only the
# entries; a seed's weight draw would otherwise swing a trial's time 2x.
WEIGHT_PAIRS = ((-1, 0), (0, 1), (-1, 1))


def _unipotent(rng, window, order):
    """phi = id + t phi_1 + ... with each phi_s of two distinct weights."""
    from wittcoh.cochains import MixedCochain
    from wittcoh.deformation import Equivalence

    layers = []
    for s in range(1, order + 1):
        parts = [_random_cochain(rng, w, window, 0.2) for w in WEIGHT_PAIRS[(s - 1) % 3]]
        layers.append(MixedCochain.from_components(1, window, parts))
    return replace(Equivalence.identity(window, order), layers=tuple(layers))


def deform(seed, small=False):
    from wittcoh.algebra import Window, load_algebra, make_witt
    from wittcoh.cochains import MixedCochain
    from wittcoh.deformation import DeformedBracket
    from wittcoh.errors import NotACocycleError

    window, orders = (Window(-7, 7), (1, 2)) if small else (Window(-12, 12), (3, 4, 5))
    witt = make_witt()
    rng = Random(seed)
    cases = []
    # Layer weights at order s stay within [-s, s]; trivialize needs
    # margin >= every weight it meets (test_perfbench's known defect).
    for order, trial in product(orders, TRIALS):
        e = _unipotent(rng, window, order)
        start = DeformedBracket.trivial(witt, window, order)

        def run(ctx, e=e, start=start, margin=max(4, order)):
            d = ctx.resolve("deformation", "conjugate")(start, e)
            r = ctx.resolve("deformation", "trivialize")(d, window, margin=margin)
            core_clean = r.trivialized and all(
                layer.restrict(r.verification_core).is_zero for layer in r.conjugated.layers)
            return {"trivialized": r.trivialized, "core_clean": core_clean,
                    "obstruction_order": r.obstruction_order}

        cases.append(Case(f"trial_order{order}{trial}", run,
                          {"trivialized": True, "core_clean": True, "obstruction_order": None}))

    plane = load_algebra(ABELIAN_PLANE)
    w01 = Window(0, 1)
    mu1 = MixedCochain(2, w01, {(0, 1): {1: 1}})
    obstructed = replace(DeformedBracket.trivial(plane, w01, 1), layers=(mu1,))

    def run_control(ctx):
        r = ctx.resolve("deformation", "trivialize")(obstructed, w01, margin=0)
        return {"trivialized": r.trivialized, "obstruction_order": r.obstruction_order}

    cases.append(Case("control_abelian_plane", run_control,
                      {"trivialized": False, "obstruction_order": 1}))

    # criterion 9's other control: a layer that is not a cocycle is rejected
    not_cocycle = replace(DeformedBracket.trivial(witt, window, 1),
                          layers=(MixedCochain(2, window, {(1, 2): {3: 1}}),))

    def run_rejected(ctx):
        try:
            ctx.resolve("deformation", "trivialize")(not_cocycle, window, margin=4)
        except NotACocycleError:
            return {"rejected": True}
        return {"rejected": False}

    cases.append(Case("control_not_cocycle", run_rejected, {"rejected": True}))
    return cases


# -- certify --------------------------------------------------------------------

CLI_CALLS = (
    # (label, argv, expected answer fields)
    ("cohomology_w0", ["cohomology", "--algebra", "witt", "--degree", "2", "--weight", "0",
                       "--window=-12:12", "--margin", "4", "--expect", "0"],
     {"exit_code": 0, "dim_stable": 0}),
    ("cohomology_w3", ["cohomology", "--algebra", "witt", "--degree", "2", "--weight", "3",
                       "--window=-12:12", "--margin", "4", "--expect", "0"],
     {"exit_code": 0, "dim_stable": 0}),
    ("central_extension", ["central-extension", "--window=-10:10", "--expect", "1"],
     {"exit_code": 0, "dim_stable": 1}),
    ("replay", ["replay", "--K", "12", "--expect", "0"],
     {"exit_code": 0, "replay_dimension": 0}),
    ("replay_emit", ["replay", "--K", "12", "--emit-table", "--emit-log", "--expect", "0"],
     {"exit_code": 0, "replay_dimension": 0, "golden_match": True}),
    ("jacobi_virasoro", ["jacobi", "--algebra", "virasoro", "--window=-15:15"],
     {"exit_code": 0, "jacobi_clean": True}),
    ("central_extension_wrong", ["central-extension", "--window=-10:10", "--expect", "2"],
     {"exit_code": 1, "dim_stable": 1}),
)

SMALL_CALLS = ("central_extension", "replay_emit", "central_extension_wrong")


def _golden_texts():
    texts = []
    for name in ("replay_table.md", "derivation_log.txt"):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


def _answer_fields(stdout, golden):
    answer = {}
    for line in stdout.splitlines():
        if line.startswith("dim_stable: "):
            answer["dim_stable"] = int(line.split(": ", 1)[1])
        elif line.startswith('  "dimension": '):
            answer["replay_dimension"] = int(line.split(": ", 1)[1].rstrip(","))
        elif line.startswith("jacobi["):
            answer["jacobi_clean"] = line.endswith(": clean")
    answer["golden_match"] = all(text in stdout for text in golden)
    return answer


def certify(seed, small=False):
    golden = _golden_texts()
    calls = [c for c in CLI_CALLS if not small or c[0] in SMALL_CALLS]
    Random(seed).shuffle(calls)
    cases = []
    for n, (label, argv, expect) in enumerate(calls):

        def run(ctx, n=n, label=label, argv=argv):
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py")]
            trace_path = None
            if ctx.trace_dir is not None:
                trace_path = os.path.join(ctx.trace_dir, f"child-{n}-{label}.json")
                cmd += ["--trace-out", trace_path]
            # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
            proc = subprocess.run(cmd + ["--"] + argv, capture_output=True, text=True, cwd=ROOT)
            if trace_path is not None:
                with open(trace_path, encoding="utf-8") as handle:
                    data = json.load(handle)
                os.remove(trace_path)
                ctx.child_traces.append(data)
            answer = _answer_fields(proc.stdout, golden)
            answer["exit_code"] = proc.returncode
            return answer

        cases.append(Case(label, run, expect))
    return cases


WORKLOADS = {"rigidity": rigidity, "deform": deform, "certify": certify}
