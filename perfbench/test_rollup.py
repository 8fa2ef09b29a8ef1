"""Tests of the benchmark's own statistics and span rollup.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import rollup
import run
from rollup import Span


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(rollup.percentile(values, 50), 50)
        self.assertEqual(rollup.percentile(values, 90), 90)
        self.assertEqual(rollup.percentile(values, 99), 99)
        self.assertEqual(rollup.percentile(values, 100), 100)

    def test_small_and_unsorted(self):
        self.assertEqual(rollup.percentile([3.0], 90), 3.0)
        self.assertEqual(rollup.percentile([5, 1, 4, 2, 3], 50), 3)
        # ceil(0.9 * 5) = 5th smallest.
        self.assertEqual(rollup.percentile([5, 1, 4, 2, 3], 90), 5)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            rollup.percentile([], 50)
        with self.assertRaises(ValueError):
            rollup.percentile([1.0], 0)

    def test_median(self):
        self.assertEqual(rollup.median([3, 1, 2]), 2)
        self.assertEqual(rollup.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            rollup.median([])


class WindowTest(unittest.TestCase):
    def test_split_at_window_ends(self):
        values = list(range(60))
        w = rollup.windows(values, [20, 40, 60])
        self.assertEqual([len(x) for x in w], [20, 20, 20])
        self.assertEqual(w[1][0], 20)

    def test_short_windows_join_the_next(self):
        values = list(range(50))
        # 0..5 is too short and joins 5..30; the 30..50 tail stands.
        w = rollup.windows(values, [5, 30, 50])
        self.assertEqual([len(x) for x in w], [30, 20])
        # A short tail joins the last full window.
        w = rollup.windows(values, [40, 45, 50])
        self.assertEqual([len(x) for x in w], [50])

    def test_fast_state_percentile(self):
        # Slow (1.5x), fast, slow, then fast again but 5% slower: the
        # percentiles pool both fast windows, where the whole run's
        # median would sit between the states.
        slow = [150.0 + i % 5 for i in range(40)]
        fast = [100.0 + i % 5 for i in range(40)]
        fast2 = [105.0 + i % 5 for i in range(40)]
        values = slow + fast + slow + fast2
        ends = [40, 80, 120, 160]
        self.assertEqual(rollup.fast_state_percentile(values, ends, 50), 104.0)
        self.assertEqual(rollup.fast_state_percentile(values, ends, 90), 108.0)
        self.assertEqual(rollup.percentile(values, 50), 109.0)
        # With no tolerance only the fastest window counts.
        self.assertEqual(rollup.fast_state_percentile(values, ends, 90, tol=1.0), 104.0)
        with self.assertRaises(ValueError):
            rollup.fast_state_percentile([], [], 50)


class RollupTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            Span("scheduler.build", 0, 0, 100),
            Span("scheduler.build_units", 0, 10, 40),
            Span("scheduler.stream_space", 0, 50, 70),
        ]
        r = rollup.rollup(spans)
        self.assertEqual(r["scheduler.build"]["count"], 1)
        self.assertAlmostEqual(r["scheduler.build"]["total_s"], 100e-9)
        self.assertAlmostEqual(r["scheduler.build"]["self_s"], 50e-9)
        self.assertAlmostEqual(r["scheduler.build_units"]["self_s"], 30e-9)

    def test_grandchildren_charge_only_their_parent(self):
        spans = [
            Span("a", 0, 0, 100),
            Span("b", 0, 10, 60),
            Span("c", 0, 20, 30),
        ]
        r = rollup.rollup(spans)
        self.assertAlmostEqual(r["a"]["self_s"], 50e-9)
        self.assertAlmostEqual(r["b"]["self_s"], 40e-9)
        self.assertAlmostEqual(r["c"]["self_s"], 10e-9)

    def test_threads_nest_separately(self):
        spans = [Span("a", 0, 0, 100), Span("b", 1, 10, 20)]
        r = rollup.rollup(spans)
        self.assertAlmostEqual(r["a"]["self_s"], 100e-9)
        self.assertTrue(spans[1].top_level)

    def test_lane_spans_attribute_to_enclosing_fleet_loop(self):
        spans = [
            Span("serve.fleet.loop", 0, 0, 100),
            Span("serve.batch.r1.b8", 101, 10, 30),
            Span("serve.batch.r2.b16", 102, 40, 50),
            # Outside every loop: stays on its lane, top level.
            Span("serve.batch.r0.b4", 100, 200, 210),
        ]
        r = rollup.rollup(spans)
        self.assertAlmostEqual(r["serve.fleet.loop"]["self_s"], 70e-9)
        self.assertEqual(r["serve.batch"]["count"], 3)
        self.assertAlmostEqual(r["serve.batch"]["total_s"], 40e-9)
        self.assertFalse(spans[1].top_level)
        self.assertTrue(spans[3].top_level)

    def test_prefix_rollup(self):
        self.assertEqual(rollup.rollup_name("wirer.strategy.bump"), "wirer.strategy")
        self.assertEqual(rollup.rollup_name("serve.batch.r0.b12"), "serve.batch")
        self.assertEqual(rollup.rollup_name("wirer.stage.libs"), "wirer.stage.libs")
        self.assertEqual(rollup.rollup_name("serve.batch.b12"), "serve.batch.b12")

    def test_straddling_span_is_not_a_child(self):
        spans = [Span("a", 0, 0, 50), Span("b", 0, 40, 80)]
        r = rollup.rollup(spans)
        self.assertAlmostEqual(r["a"]["self_s"], 50e-9)
        self.assertTrue(spans[1].top_level)

    def test_covered_time_unions_top_level_spans(self):
        spans = [
            Span("a", 0, 0, 30),
            Span("child", 0, 5, 10),
            Span("b", 0, 20, 50),
            Span("c", 0, 70, 90),
        ]
        rollup.rollup(spans)
        self.assertAlmostEqual(rollup.covered_ns(spans, 0, 100), 70)
        self.assertAlmostEqual(rollup.covered_ns(spans, 25, 80), 35)


class ParseTest(unittest.TestCase):
    def test_records(self):
        text = "\n".join([
            "scalar\tpass_s\t1.5",
            "samples\tsetup_s\t0.5\t0.25",
            "check\twarm.tier_l1\tok\t",
            "check\twire.config_fnv\tFAIL\tabc vs def",
            "span\tscheduler.build\t0\t10\t20",
            "counter\twire.minibatches\t758",
        ])
        rec = rollup.parse(text)
        self.assertEqual(rec.scalars["pass_s"], 1.5)
        self.assertEqual(rec.samples["setup_s"], [0.5, 0.25])
        self.assertEqual(rec.failed_checks(), [("wire.config_fnv", False, "abc vs def")])
        self.assertEqual(rec.spans[0].dur_ns, 10)
        self.assertEqual(rec.counters["wire.minibatches"], 758)


class ManifestTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(n, u) for n, u, _, _ in run.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
