#!/usr/bin/env python3
"""Self-test of the benchmark's own helpers and photorack_perfbench's digest.

    python3 perfbench/test_run.py

Builds photorack_perfbench on first use (as run.py does).
"""

import contextlib
import io
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def raw_record(mode="rack", layers=None, outcomes=None):
    """A minimal photorack_perfbench record as run.report() consumes it."""
    return {
        "mode": mode, "ops": [100, 100, 100], "host_s": [1.0, 2.0, 4.0],
        "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048, "digest": "0" * 16,
        "attempted": 300, "failed": 0, "checks_passed": 1, "checks_failed": [],
        "outcomes": outcomes or {"acceptance": 0.5, "wait_p99_ms": None,
                                 "slowdown_p99": {"q": 0.99, "value": 3.0, "count": 50},
                                 "energy_j_per_job": 2.0, "ml_step_p99_ms": None},
        "traced": None if layers is None else {"ops": 100, "host_s": 2.5, "layers": layers},
    }


def quiet_report(*args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        metrics = run.report(*args)
    return metrics, out.getvalue()


class Statistics(unittest.TestCase):
    def test_quartiles_and_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q1, 3.0, q3))
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertAlmostEqual(run.quartile_spread(values), (q3 - q1) / 3.0)
        self.assertEqual(run.quartile_spread([5.0] * 4), 0.0)

    def test_lower_decile_stays_within_the_values(self):
        self.assertAlmostEqual(run.lower_decile([100.0, 50.0, 25.0]), 30.0)
        self.assertAlmostEqual(run.lower_decile([float(v) for v in range(1, 22)]), 3.0)
        self.assertEqual(run.lower_decile([7.0]), 7.0)

    def test_reportable_needs_ten_samples_beyond(self):
        self.assertTrue(run.reportable(0.99, 1000))
        self.assertFalse(run.reportable(0.99, 999))
        self.assertTrue(run.reportable(0.5, 20))
        self.assertFalse(run.reportable(0.5, 19))

    def test_percentile_is_nearest_rank_or_na(self):
        self.assertEqual(run.percentile(list(range(1, 101)), 0.5), 50)
        self.assertIsNone(run.percentile(list(range(1, 101)), 0.99))
        self.assertEqual(run.percentile(list(range(1, 1001)), 0.99), 990)

    def test_resolve_applies_the_na_rule(self):
        self.assertEqual(run.resolve(None), (None, None))
        self.assertEqual(run.resolve(2.5), (2.5, None))
        self.assertEqual(run.resolve({"q": 0.99, "value": 7.0, "count": 1000}), (7.0, 1000))
        self.assertEqual(run.resolve({"q": 0.99, "value": 7.0, "count": 500}), (None, 500))
        self.assertEqual(run.resolve({"q": 0.5, "samples": [3.0] * 19}), (None, 19))


class Report(unittest.TestCase):
    def test_end_to_end_metrics(self):
        metrics, text = quiet_report("w", 1, 0, raw_record())
        # Lower decile of the rates 100, 50, 25; upper quartile of the set-ups.
        self.assertAlmostEqual(metrics["ops_per_s"]["value"], 30.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.3)
        self.assertEqual(metrics["peak_rss_mb"], {"value": 2.0, "unit": "MB"})
        self.assertRegex(text, r"slowdown_p99\s+n/a")   # 50 samples: p99 not reportable
        self.assertRegex(text, r"rows_per_s\s+n/a")      # a co-simulation workload

    def test_per_layer_na_prints_na_and_reads_zero(self):
        layers = {"net.self_share": None, "cosim.events": 42.0,
                  "cosim.slice_ms_p99": {"q": 0.99, "samples": [1.0] * 100}}
        metrics, text = quiet_report("w", 1, 1, raw_record(layers=layers))
        self.assertEqual(metrics["net.self_share"]["value"], 0)
        self.assertRegex(text, r"net\.self_share\s+n/a")
        self.assertEqual(metrics["cosim.events"]["value"], 42.0)
        self.assertEqual(metrics["cosim.slice_ms_p99"]["value"], 0)
        self.assertAlmostEqual(metrics["trace.overhead"]["value"], 50.0 / 40.0)
        _, layer_specs = run.load_metric_specs()
        self.assertEqual(set(metrics), {m["name"] for m in layer_specs})


class Merge(unittest.TestCase):
    def test_processes_must_agree_on_the_digest(self):
        same, other = raw_record(mode="sweep"), raw_record(mode="sweep")
        merged = run.merge([same, same])
        self.assertEqual(merged["ops"], same["ops"] * 2)
        self.assertEqual((merged["attempted"], merged["failed"]), (600, 0))
        self.assertEqual(merged["checks_failed"], [])
        other["digest"] = "1" * 16
        merged = run.merge([same, other])
        self.assertEqual((merged["attempted"], merged["failed"]), (600, 300))
        self.assertEqual(len(merged["checks_failed"]), 1)


class Digest(unittest.TestCase):
    """The digest repeats for a seed and changes with it."""

    SMALL = {"set": {"cosim.horizon_ms": "40", "cosim.admission": "queue"}}

    @classmethod
    def setUpClass(cls):
        run.build()

    def drive(self, mode, seed, trace=0):
        wl = dict(self.SMALL, mode=mode)
        if mode == "cluster":
            wl["set"] = dict(wl["set"], **{"cluster.racks": "3", "cluster.spill": "least"})
            wl["speedup_workers"] = 2
        raw = run.run_binary(run.binary_command(wl, seed, 0.01, trace, None))
        self.assertEqual(raw["failed"], 0, raw["checks_failed"])
        self.assertGreaterEqual(len(raw["ops"]), 2)
        return raw

    def test_same_seed_same_digest(self):
        self.assertEqual(self.drive("rack", 3)["digest"], self.drive("rack", 3)["digest"])

    def test_other_seed_other_digest(self):
        self.assertNotEqual(self.drive("rack", 3)["digest"], self.drive("rack", 4)["digest"])

    def test_cluster_digest_independent_of_workers(self):
        # The traced run books every 2-worker run against the 1-worker digest.
        if run.nproc() < 2:
            self.skipTest("needs two CPUs")
        raw = self.drive("cluster", 5, trace=1)
        self.assertGreater(raw["traced"]["layers"]["cluster.speedup"], 0)


if __name__ == "__main__":
    unittest.main()
