"""The benchmark's own tests, on shrunken inputs; they run in seconds.

    python3 perfbench/test_perfbench.py
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Context, plain_resolve  # noqa: E402


def fail_frac(records):
    return sum(not r["ok"] for r in records) / len(records)


def traced_pass(cases):
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:
        wall, records = run.run_pass(cases, Context(inst.resolve))
    finally:
        inst.remove()
    metrics, root_s = tracing.summarize([tracer.spans], tracer.counts)
    return wall, records, metrics, root_s, inst


class KnownAnswers(unittest.TestCase):
    def test_small_inputs_pass(self):
        for name, build in WORKLOADS.items():
            with self.subTest(workload=name):
                _, records = run.run_pass(build(1, small=True), Context(plain_resolve))
                self.assertEqual(fail_frac(records), 0, records)

    def test_injected_wrong_answer_raises_fail_frac(self):
        wrong = {"rigidity": ("dim_stable", 1), "deform": ("trivialized", False),
                 "certify": ("exit_code", 3)}
        for name, build in WORKLOADS.items():
            with self.subTest(workload=name):
                cases = build(1, small=True)
                key, value = wrong[name]
                cases[0].expect = dict(cases[0].expect, **{key: value})
                _, records = run.run_pass(cases, Context(plain_resolve))
                self.assertGreater(fail_frac(records), 0)
                self.assertFalse(records[0]["ok"])
                self.assertTrue(all(r["ok"] for r in records[1:]))

    def test_seed_fixes_inputs(self):
        labels = [c.label for c in WORKLOADS["rigidity"](5, small=True)]
        self.assertEqual(labels, [c.label for c in WORKLOADS["rigidity"](5, small=True)])
        self.assertNotEqual(labels, [c.label for c in WORKLOADS["rigidity"](6, small=True)])


class Tracing(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        for name in ("rigidity", "deform"):
            with self.subTest(workload=name):
                cases = WORKLOADS[name](1, small=True)
                wall, records, metrics, root_s, _ = traced_pass(cases)
                total_self = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
                self.assertAlmostEqual(total_self, root_s, delta=1e-6)
                # the rest of the traced wall time is the benchmark's own loop
                loop_s = wall - sum(r["seconds"] for r in records)
                self.assertGreaterEqual(wall - total_self, loop_s)
                self.assertLess(wall - total_self, 0.05 * wall)

    def test_only_boundary_calls_and_stages_are_spanned(self):
        _, _, metrics, _, inst = traced_pass(WORKLOADS["rigidity"](1, small=True))
        self.assertEqual(metrics["cohomology.calls"][0], 6)  # one per verdict
        self.assertGreater(metrics["cohomology.matrix_s"][0], 0)
        self.assertGreater(metrics["linalg.rows"][0], metrics["linalg.rank"][0])
        self.assertEqual(metrics["deformation.calls"][0], 0)
        import wittcoh
        import wittcoh.cohomology

        self.assertIs(wittcoh.cohomology_dim, wittcoh.cohomology.cohomology_dim)
        self.assertFalse(hasattr(wittcoh.cohomology.cocycle_matrix, "__wrapped__"))

    def test_missing_stage_reported_absent(self):
        import wittcoh.cohomology as cohomology

        original = cohomology.cocycle_matrix
        del cohomology.cocycle_matrix
        try:
            _, records, metrics, _, inst = traced_pass(WORKLOADS["deform"](1, small=True))
        finally:
            cohomology.cocycle_matrix = original
        self.assertEqual(fail_frac(records), 0)
        self.assertIn("cohomology.matrix_s", inst.absent())
        self.assertNotIn("cohomology.comparison_s", inst.absent())
        self.assertEqual(metrics["cohomology.matrix_s"][0], 0)
        self.assertGreater(metrics["cohomology.primitive_calls"][0], 0)


    def test_failing_counter_hook_is_unreadable_not_fatal(self):
        def broken(args, kwargs, result, exc):
            raise TypeError("result shape changed")

        saved = tracing.HOOKS["linalg.solve"]
        tracing.HOOKS["linalg.solve"] = broken
        try:
            tracer = tracing.Tracer()
            inst = tracing.install(tracer)
            try:
                _, records = run.run_pass(WORKLOADS["rigidity"](1, small=True),
                                          Context(inst.resolve))
            finally:
                inst.remove()
        finally:
            tracing.HOOKS["linalg.solve"] = saved
        self.assertEqual(fail_frac(records), 0)
        self.assertEqual(tracer.hook_failures, {"linalg.solve"})
        self.assertIn("linalg.rows", tracing.unreadable(tracer.hook_failures))


class KnownDefects(unittest.TestCase):
    @unittest.expectedFailure
    def test_trivialize_with_margin_below_a_layer_weight(self):
        """An order-3 conjugate of the Witt bracket is trivial by construction.

        Peeling it on [-7,7] with margin 2 meets a weight-3 component, and
        trivialize raises AssertionError ("left a nonzero order-3 layer")
        instead of a verdict or a typed error.  The deform workload hits the
        same defect at order 5 with margin 4 on some seeds, so it runs each
        trial with margin max(4, order).
        """
        from random import Random

        from wittcoh.algebra import Window, make_witt
        from wittcoh.deformation import DeformedBracket, conjugate, trivialize
        from workloads import _unipotent

        window = Window(-7, 7)
        e = _unipotent(Random(6), window, 3)
        d = conjugate(DeformedBracket.trivial(make_witt(), window, 3), e)
        self.assertTrue(trivialize(d, window, margin=2).trivialized)


if __name__ == "__main__":
    unittest.main()
