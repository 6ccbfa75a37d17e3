"""Self-test of the benchmark's own logic (run.py runs it before every run;
`python3 perfbench/run.py --self-test` runs it verbosely)."""

import json
import unittest
from pathlib import Path

import metrics

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def sample(latency, ok=True, **fields):
    record = {"key": "k", "cls": "solve", "episode": 0, "latency_s": latency,
              "advise_s": latency, "server_s": 0.0, "ok": ok, "cost": 10.0,
              "reference": 10.0, "nodes": 3, "lp_solves": 4,
              "iterations": 50, "factorizations": 2, "anneals": 0,
              "response_bytes": 100}
    record.update(fields)
    return record


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7], 90), 7)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(metrics.highest_tail_percentile(10))
        self.assertIsNone(metrics.highest_tail_percentile(99, (90,)))
        self.assertEqual(metrics.highest_tail_percentile(100), 90)
        self.assertEqual(metrics.highest_tail_percentile(200), 95)
        self.assertEqual(metrics.highest_tail_percentile(1000), 99)
        self.assertEqual(metrics.highest_tail_percentile(10000), 99.9)
        for n in range(1, 3000, 7):
            p = metrics.highest_tail_percentile(n)
            if p is not None:
                ranked = list(range(n))
                threshold = metrics.percentile(ranked, p)
                beyond = [v for v in ranked if v > threshold]
                self.assertGreaterEqual(len(beyond), 10, (n, p))

    def test_tail_latency_only_with_enough_samples(self):
        raw = {"samples": [sample(0.001 * i) for i in range(1, 100)]}
        self.assertEqual(metrics.tail_latency(raw), {})
        raw["samples"].append(sample(1.0))
        self.assertAlmostEqual(metrics.tail_latency(raw)["latency_p90_s"],
                               0.090)


class FailureCountTest(unittest.TestCase):
    def test_counts_every_not_ok_sample(self):
        samples = [sample(1), sample(1, ok=False, error="wrong"),
                   sample(1, ok=False), sample(1)]
        self.assertEqual(metrics.count_failures(samples), (4, 2))
        self.assertEqual(metrics.count_failures([]), (0, 0))

    def test_wrong_answers_leave_the_cost_ratio(self):
        raw = {"samples": [sample(1.0), sample(2.0, ok=False, cost=99.0)],
               "setup_s": [0.1, 0.3, 0.2], "loop_s": 3.0, "cpu_s": 2.0,
               "peak_rss_kb": 2048}
        e2e = metrics.end_to_end(raw)
        self.assertEqual(e2e["advice_cost_ratio"], 1.0)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["latency_p50_s"], 1.5)
        self.assertAlmostEqual(e2e["throughput_rps"], 2 / 3.0)
        self.assertEqual(e2e["cpu_per_request_s"], 1.0)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)

    def test_cost_ratio_needs_a_passing_answer(self):
        raw = {"samples": [sample(1.0, ok=False), sample(1.0, reference=None)],
               "setup_s": [0.1], "loop_s": 1.0, "cpu_s": 1.0,
               "peak_rss_kb": 1024}
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw)


class NamingTest(unittest.TestCase):
    def test_suffix_rules(self):
        self.assertTrue(metrics.name_matches_unit("latency_p50_s", "s"))
        self.assertFalse(metrics.name_matches_unit("latency_p50", "s"))
        self.assertFalse(metrics.name_matches_unit("latency_p50_ms", "s"))
        self.assertTrue(metrics.name_matches_unit("mip.nodes", "count"))
        self.assertFalse(metrics.name_matches_unit("mip.bnb_s", "count"))
        self.assertFalse(metrics.name_matches_unit("x_s", "furlongs"))

    def test_benchmark_json_names_carry_their_units(self):
        bench = json.loads(BENCHMARK.read_text())
        names = set()
        for group in ("end_to_end", "per_layer"):
            for metric in bench[group]:
                self.assertTrue(
                    metrics.name_matches_unit(metric["name"], metric["unit"]),
                    metric)
                self.assertNotIn(metric["name"], names)
                names.add(metric["name"])

    def test_every_declared_metric_is_produced(self):
        bench = json.loads(BENCHMARK.read_text())
        raw = {"samples": [sample(1.0)], "setup_s": [0.1], "loop_s": 1.0,
               "cpu_s": 1.0, "peak_rss_kb": 1024, "layers": [],
               "cold_baseline": []}
        produced = set(metrics.end_to_end(raw))
        self.assertEqual({m["name"] for m in bench["end_to_end"]}, produced)
        self.assertEqual({m["name"] for m in bench["per_layer"]},
                         set(metrics.per_layer(raw)))


class CountRepeatTest(unittest.TestCase):
    def test_drift_inside_a_run_is_flagged(self):
        raw = {"samples": [sample(1), sample(1, nodes=4)], "layers": [],
               "cold_baseline": []}
        _, drift = metrics.deterministic_counts(raw)
        self.assertTrue(any("nodes" in d for d in drift))

    def test_shape_seeded_serve_solves_are_held_to_repeat(self):
        raw = {"samples": [sample(1, cache="shape", expected_cache="shape"),
                           sample(1, nodes=9, cache="exact",
                                  expected_cache="exact")],
               "layers": [], "cold_baseline": [sample(1)]}
        counts, drift = metrics.deterministic_counts(raw)
        self.assertEqual(drift, ["e0.k.nodes: 3 != 9"])
        self.assertIn("real.k", counts)

    def test_drift_across_runs_is_flagged(self):
        raw = {"samples": [sample(1), sample(1)], "layers": [],
               "cold_baseline": []}
        counts, drift = metrics.deterministic_counts(raw)
        self.assertEqual(drift, [])
        self.assertEqual(metrics.compare_counts(counts, counts), [])
        changed = json.loads(json.dumps(counts))
        changed["e0.k"]["iterations"] += 1
        self.assertEqual(len(metrics.compare_counts(counts, changed)), 1)


if __name__ == "__main__":
    unittest.main()
