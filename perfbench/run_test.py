#!/usr/bin/env python3
"""Tests of run.py's result validation and of the metric catalog.

    python3 perfbench/run_test.py

The metric catalog of rc4b_perfbench (metrics.h) and BENCHMARK.json must
list the same metrics with the same units, and a result line is accepted
only when it names every expected metric with its declared unit.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def catalog(array):
    text = (run.HERE / "metrics.h").read_text()
    body = text.split(array, 1)[1].split("}};", 1)[0]
    return dict(re.findall(r'\{"([^"]+)", "([^"]+)"\}', body))


def result_line(expected, **overrides):
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {n: {"value": 1.25, "unit": u}
                          for n, u in expected.items()}}
    result.update(overrides)
    return json.dumps(result)


class CatalogTest(unittest.TestCase):
    def test_catalog_matches_benchmark_json(self):
        self.assertEqual(catalog("kEndToEnd"), run.expected_metrics(BENCHMARK, 0))
        self.assertEqual(catalog("kPerLayer"), run.expected_metrics(BENCHMARK, 1))

    def test_setup_s_is_declared(self):
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in BENCHMARK["end_to_end"]))


class ValidateResultTest(unittest.TestCase):
    def setUp(self):
        self.expected = run.expected_metrics(BENCHMARK, 0)

    def test_accepts_every_metric_with_its_unit(self):
        result, error = run.validate_result(result_line(self.expected),
                                            self.expected)
        self.assertIsNone(error)
        self.assertEqual(set(result["metrics"]), set(self.expected))

    def test_rejects_missing_metric(self):
        line = json.loads(result_line(self.expected))
        del line["metrics"]["setup_s"]
        _, error = run.validate_result(json.dumps(line), self.expected)
        self.assertIn("setup_s", error)

    def test_rejects_unexpected_metric(self):
        line = json.loads(result_line(self.expected))
        line["metrics"]["bogus"] = {"value": 1, "unit": "s"}
        _, error = run.validate_result(json.dumps(line), self.expected)
        self.assertIn("bogus", error)

    def test_rejects_wrong_unit(self):
        line = json.loads(result_line(self.expected))
        line["metrics"]["setup_s"]["unit"] = "ms"
        _, error = run.validate_result(json.dumps(line), self.expected)
        self.assertIn("setup_s", error)

    def test_rejects_bad_counts_and_keys(self):
        for overrides in ({"attempted": 0}, {"failed": 4}, {"attempted": 1.5},
                          {"correct": "yes"}):
            _, error = run.validate_result(
                result_line(self.expected, **overrides), self.expected)
            self.assertIsNotNone(error, overrides)
        line = json.loads(result_line(self.expected))
        line["extra"] = 1
        _, error = run.validate_result(json.dumps(line), self.expected)
        self.assertIsNotNone(error)

    def test_rejects_non_finite_value(self):
        line = result_line(self.expected).replace("1.25", "NaN", 1)
        _, error = run.validate_result(line, self.expected)
        self.assertIn("finite", error)


if __name__ == "__main__":
    unittest.main()
