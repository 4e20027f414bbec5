#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from anywhere:

    python3 perfbench/test_perfbench.py

The digest tests build the benchmark first (as run.py does).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import report  # noqa: E402
import run  # noqa: E402

BENCH = report.load_benchmark(ROOT)
with open(os.path.join(HERE, "config.json")) as f:
    CONFIG = json.load(f)
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]
# Printed in the report but not gated: not every workload has them.
REPORTED_ONLY = {"p50_ms", "p99_ms", "open_p99_ms"}


def timed_raw(latencies=1000, open_loop=False):
    raw = {
        "setup_s": [0.2, 0.1, 0.3], "setup_once_s": 1.0,
        "suite_requests": 12, "pass_s": [2.0, 1.0, 3.0], "completed": 50, "window_s": 10.0,
        "latency_ms": [float(i) for i in range(1, latencies + 1)],
        "luts_total": 100, "depth_total": 10,
        "verdicts": {"checked": 12, "equivalent": 8},
        "peak_rss_mb": 12.5, "attempted": 50, "failed": 0,
    }
    if open_loop:
        raw["open"] = {"offered_rps": 100.0, "window_s": 5.0,
                       "latency_ms": [1.0] * 500, "late_ms": [0.5] * 500}
    return raw


def traced_raw():
    return {"trace": {
        "self_s": {"opt.extract": 3.0, "blif.parse": 1.0, "request": 1.0},
        "layers": {"opt.divisors": 7, "serve.parse_s": 0.002},
        "untraced_s": 2.0, "traced_s": 2.1,
    }}


class TailRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        self.assertIsNone(report.percentile(list(range(999)), 0.99))
        self.assertEqual(report.percentile(list(range(1, 1001)), 0.99), 990)

    def test_rule_at_other_quantiles(self):
        self.assertTrue(report.tail_allowed(100, 0.90))
        self.assertFalse(report.tail_allowed(99, 0.90))
        self.assertFalse(report.tail_allowed(12, 0.5))

    def test_report_withholds_unsupported_tails(self):
        extras = report.reported_extras(timed_raw(latencies=999,
                                                  open_loop=True))
        self.assertIsNone(extras["p99_ms"][0])
        self.assertEqual(extras["p99_ms"][2], 999)
        self.assertIsNone(extras["open_p99_ms"][0])  # 500 samples
        extras = report.reported_extras(timed_raw(latencies=1000))
        self.assertEqual(extras["p99_ms"][0], 990.0)

    def test_median_is_the_timing(self):
        metrics = report.end_to_end(timed_raw(latencies=3))
        self.assertEqual(metrics["suite_s"], 2.0)
        self.assertEqual(report.reported_extras(timed_raw(latencies=3))
                         ["p50_ms"][0], 2.0)
        self.assertEqual(metrics["setup_s"], 1.2)
        self.assertEqual(metrics["rps"], 6.0)  # 12 requests / 2.0 s


class FailedRatio(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(report.failed_ratio(10, 0), 0.0)
        self.assertEqual(report.failed_ratio(12, 3), 0.25)
        self.assertEqual(report.failed_ratio(7, 7), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            report.failed_ratio(0, 0)
        with self.assertRaises(ValueError):
            report.failed_ratio(5, 6)
        with self.assertRaises(ValueError):
            report.failed_ratio(5, -1)

    def test_result_line_keys(self):
        line = report.result_line(True, 4, 0, {"rps": 1.5}, {"rps": "1/s"})
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertEqual(line["metrics"]["rps"], {"value": 1.5,
                                                  "unit": "1/s"})


class Declarations(unittest.TestCase):
    def test_end_to_end_names_match(self):
        self.assertEqual(sorted(report.end_to_end(timed_raw())),
                         sorted(END_TO_END))

    def test_per_layer_names_match(self):
        metrics = report.per_layer(traced_raw(), PER_LAYER)
        self.assertEqual(sorted(metrics), sorted(PER_LAYER))
        self.assertEqual(metrics["opt.extract_s"], 3.0)
        self.assertEqual(metrics["opt.divisors"], 7)
        self.assertEqual(metrics["bdd.verify_s"], 0)
        self.assertAlmostEqual(metrics["trace.overhead"], 0.05)

    def test_every_layer_metric_says_what_it_moves(self):
        moves = CONFIG["per_layer_moves"]
        self.assertEqual(sorted(moves), sorted(PER_LAYER))
        workloads = {w["name"] for w in BENCH["workloads"]}
        for name, pairs in moves.items():
            for metric, workload in pairs:
                self.assertIn(metric, set(END_TO_END) | REPORTED_ONLY, name)
                self.assertIn(workload, workloads, name)

    def test_workloads_agree(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(names, run.WORKLOADS)

    def test_benchmark_json_shape(self):
        self.assertEqual(sorted(BENCH), sorted([
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"]))
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        seen = set()
        for entry in BENCH["workloads"]:
            self.assertEqual(sorted(entry), ["name", "why"])
            self.assertLessEqual(len(entry["why"]), 200)
        for entry in (BENCH["workloads"] + BENCH["end_to_end"]
                      + BENCH["per_layer"]):
            self.assertRegex(entry["name"], name)
            self.assertNotIn(entry["name"], seen)
            seen.add(entry["name"])
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Digest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        cls.binary = run.build()

    def digest(self, workload, seed):
        cmd = [self.binary, "--digest-only", "--workload", workload,
               "--seed", str(seed)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             text=True).stdout.strip()
        self.assertRegex(out, r"^[0-9a-f]{16}$")
        return out

    def test_same_seed_same_requests(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.digest(workload, 7),
                             self.digest(workload, 7), workload)

    def test_seed_changes_the_requests(self):
        for workload in ["serve_repeat", "serve_fresh"]:
            self.assertNotEqual(self.digest(workload, 7),
                                self.digest(workload, 8), workload)

    def test_fixed_suites_ignore_the_seed(self):
        # Their order only adds noise (flow_mcnc) or sets how the slowest
        # verifies share the connections (serve_signoff).
        for workload in ["flow_mcnc", "serve_signoff"]:
            self.assertEqual(self.digest(workload, 7),
                             self.digest(workload, 8), workload)


if __name__ == "__main__":
    unittest.main()
