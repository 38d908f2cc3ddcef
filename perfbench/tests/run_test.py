#!/usr/bin/env python3
"""Tests of run.py's result check: the result line must hold exactly the
metrics BENCHMARK.json names, in its units.

    python3 perfbench/tests/run_test.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms")]
PER_LAYER = [("mpc.count_below_s", "s"), ("core.read_p50_us", "us"),
             ("obs.dropped_spans", "count")]


def result(**metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


class CompleteTest(unittest.TestCase):
    def setUp(self):
        self.saved = run.manifest_metrics
        run.manifest_metrics = lambda trace: PER_LAYER if trace else END_TO_END

    def tearDown(self):
        run.manifest_metrics = self.saved

    def complete(self, r, trace):
        with contextlib.redirect_stderr(io.StringIO()):
            return run.complete(r, trace)

    def test_end_to_end_in_manifest_order(self):
        r = result(op_p50_ms=(0.021, "ms"), setup_s=(1.25, "s"))
        out = self.complete(r, trace=False)
        self.assertEqual(list(out["metrics"]), ["setup_s", "op_p50_ms"])
        self.assertEqual(out["metrics"]["op_p50_ms"]["value"], 0.021)
        self.assertEqual(out["attempted"], 3)

    def test_missing_end_to_end_metric_fails(self):
        with self.assertRaises(SystemExit):
            self.complete(result(setup_s=(1.25, "s")), trace=False)

    def test_unreached_layer_is_zero(self):
        r = result(**{"core.read_p50_us": (23.9, "us"),
                      "obs.dropped_spans": (0, "count")})
        out = self.complete(r, trace=True)
        self.assertEqual(out["metrics"]["mpc.count_below_s"],
                         {"value": 0, "unit": "s"})
        self.assertEqual(out["metrics"]["core.read_p50_us"]["value"], 23.9)

    def test_unknown_metric_fails(self):
        r = result(setup_s=(1.25, "s"), op_p50_ms=(0.02, "ms"),
                   construct_s=(1.1, "s"))
        with self.assertRaises(SystemExit):
            self.complete(r, trace=False)

    def test_wrong_unit_fails(self):
        r = result(setup_s=(1.25, "s"), op_p50_ms=(21.0, "us"))
        with self.assertRaises(SystemExit):
            self.complete(r, trace=False)


class ManifestTest(unittest.TestCase):
    def test_every_workload_metric_is_in_the_manifest(self):
        """BENCHMARK.json, when present, names a unit for every metric."""
        if not os.path.isfile(run.MANIFEST):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        for trace in (False, True):
            names = [name for name, _ in run.manifest_metrics(trace)]
            self.assertEqual(len(names), len(set(names)))
        self.assertIn(("op_p50_ms", "ms"), run.manifest_metrics(False))


if __name__ == "__main__":
    unittest.main()
