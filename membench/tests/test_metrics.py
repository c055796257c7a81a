"""Self-tests of the benchmark's metric arithmetic.

    python3 -m unittest discover -s membench/tests
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [float(i) for i in range(40)]
        self.assertEqual(metrics.percentile(xs, 0.5), (19.5, 0.5))
        value, q = metrics.percentile([float(i) for i in range(11)], 0.0)
        self.assertEqual((value, q), (0.0, 0.0))

    def test_keeps_ten_samples_beyond_the_percentile(self):
        xs = [float(i) for i in range(2000)]
        self.assertEqual(metrics.percentile(xs, 0.99)[1], 0.99)
        # 100 samples support only p90 (ten samples beyond it).
        value, q = metrics.percentile(xs[:100], 0.99)
        self.assertAlmostEqual(q, 0.90)
        self.assertAlmostEqual(value, 0.90 * 99)
        self.assertEqual(sum(x > value for x in xs[:100]), 10)

    def test_too_few_samples_fall_back_to_the_minimum(self):
        self.assertEqual(metrics.percentile([5.0, 7.0, 9.0], 0.5), (5.0, 0.0))
        with self.assertRaises(ValueError):
            metrics.percentile([], 0.5)


class SelfTimeTest(unittest.TestCase):
    def test_subtracts_direct_children_only(self):
        spans = [
            ("child", 10, 20, 2),
            ("grandchild", 45, 5, 3),
            ("child", 40, 20, 2),
            ("parent", 0, 100, 1),
            ("after", 100, 7, 1),
        ]
        st = metrics.self_times(spans)
        self.assertEqual(st["parent"], {"count": 1, "total": 100, "self": 60})
        self.assertEqual(st["child"], {"count": 2, "total": 40, "self": 35})
        self.assertEqual(st["grandchild"]["self"], 5)
        self.assertEqual(st["after"]["self"], 7)

    def test_nesting_comes_from_intervals_not_depth(self):
        # A benchmark record (depth 0) around program spans of depth 1, and
        # a program span whose interval equals its child's: depth breaks the
        # tie, the shallower span is the parent.
        spans = [
            ("dcdm.join", 5, 10, 2),
            ("scmp.join", 5, 10, 1),
            ("bench.fail_link", 30, 4, 0),
            ("bench.run", 0, 50, 0),
        ]
        st = metrics.self_times(spans)
        self.assertEqual(st["bench.run"]["self"], 50 - 10 - 4)
        self.assertEqual(st["scmp.join"]["self"], 0)
        self.assertEqual(st["dcdm.join"]["self"], 10)


class NormalisationTest(unittest.TestCase):
    def test_per_op_and_rate(self):
        self.assertEqual(metrics.per_op(10, 4), 2.5)
        self.assertEqual(metrics.per_op(10, 0), 0.0)
        self.assertEqual(metrics.rate(300, 1.5), 200.0)
        with self.assertRaises(ValueError):
            metrics.rate(1, 0.0)

    def test_scales_times_by_the_bracketing_reference_runs(self):
        ref = metrics.REFERENCE_S
        # Repetition 1 ran while the host was twice as slow: the kernel
        # runs around it took twice as long, so it scales back to 1 s.
        times = metrics.normalised([1.0, 2.0, 1.5],
                                   [ref, ref, 2 * ref, 2 * ref * 0.5])
        self.assertEqual(times[0], 1.0)
        self.assertAlmostEqual(times[1], 2.0 / 1.5)
        self.assertAlmostEqual(times[2], 1.5 / 1.5)
        with self.assertRaises(ValueError):
            metrics.normalised([1.0], [ref])

    def test_end_to_end_normalises_per_operation_and_event(self):
        ref = metrics.REFERENCE_S
        result = {
            "ops": 1000, "membership_ops": 400,
            "run_s": [0.5, 0.4, 2.0], "setup_s": [0.2, 0.1, 0.3],
            "ref_s": [ref, ref, ref, ref],
            "checked_tx": {"bytes.JOIN": 3000, "bytes.ACK": 1000,
                           "bytes.DATA": 99999, "packets.JOIN": 50},
            "episodes": 200, "episodes_failed": 2,
            "tree_cost": 12.0, "tree_delay_ms": 3.0, "peak_rss_kb": 2048,
        }
        samples = [i / 1000.0 for i in range(1, 2001)]
        values, notes = metrics.end_to_end(result, samples, samples)
        self.assertAlmostEqual(values["ops_per_s"][0], 2000.0)
        self.assertAlmostEqual(values["setup_s"][0], 0.2)
        self.assertEqual(values["ctrl_bytes_per_event"], (10.0, "bytes/event"))
        self.assertEqual(values["peak_rss_mb"], (2.0, "MB"))
        self.assertAlmostEqual(values["converged_frac"][0], 0.99)
        self.assertAlmostEqual(notes["fail_frac"], 0.01)
        self.assertEqual(notes["converge_samples"], 2000)


class ContractTest(unittest.TestCase):
    """spec.json, run.py and BENCHMARK.json describe one benchmark."""

    @classmethod
    def setUpClass(cls):
        with open(BENCH / "spec.json") as f:
            cls.spec = json.load(f)
        with open(BENCH.parent / "BENCHMARK.json") as f:
            cls.contract = json.load(f)

    def test_workloads_agree(self):
        names = [w["name"] for w in self.contract["workloads"]]
        self.assertEqual(names, list(self.spec["workloads"]))
        self.assertEqual(tuple(names), run.WORKLOADS)

    def test_layer_table_names_every_per_layer_metric(self):
        listed = [m for layer in self.spec["layers"] for m in layer["metrics"]]
        declared = [m["name"] for m in self.contract["per_layer"]]
        self.assertEqual(listed, declared)

    def test_end_to_end_metrics_agree(self):
        self.assertEqual(list(self.spec["end_to_end"]),
                         [m["name"] for m in self.contract["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
