"""Self-tests of run.py's result check: python3 -m unittest discover -s perfbench"""

import json
import os
import re
import unittest

import run

EXPECTED = {"read_cpu_us": "us", "setup_s": "s"}


def line(**overrides):
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "read_cpu_us": {"value": 27.83, "unit": "us"},
            "setup_s": {"value": 0.5, "unit": "s"},
        },
    }
    result.update(overrides)
    return json.dumps(result)


class CheckResult(unittest.TestCase):
    def test_a_well_formed_line_passes(self):
        self.assertEqual(run.check_result(line(), EXPECTED), [])

    def test_the_benchmarks_own_format_parses(self):
        # The exact shape stats::result_line writes (see its unit test).
        emitted = ('{"correct": true, "attempted": 10, "failed": 0, "metrics": '
                   '{"read_cpu_us": {"value": 1.25, "unit": "us"}, '
                   '"setup_s": {"value": 3.0, "unit": "s"}}}')
        self.assertEqual(run.check_result(emitted, EXPECTED), [])

    def test_not_json(self):
        self.assertTrue(run.check_result("metric x 1.0", EXPECTED))

    def test_missing_and_undeclared_metrics(self):
        bad = line(metrics={"read_cpu_us": {"value": 1.0, "unit": "us"},
                            "other": {"value": 1.0, "unit": "ms"}})
        problems = run.check_result(bad, EXPECTED)
        self.assertIn("metric setup_s is missing", problems)
        self.assertIn("metric other is not declared", problems)

    def test_wrong_unit_and_types(self):
        bad = line(attempted=0, correct="yes",
                   metrics={"read_cpu_us": {"value": 1.0, "unit": "s"},
                            "setup_s": {"value": "fast", "unit": "s"}})
        problems = run.check_result(bad, EXPECTED)
        self.assertIn("attempted is below 1", problems)
        self.assertIn("correct is not a boolean", problems)
        self.assertIn("metric read_cpu_us has unit s, declared us", problems)
        self.assertIn("metric setup_s has no finite value", problems)

    def test_declared_metrics_match_the_program(self):
        # Every metric BENCHMARK.json declares is one a workload computes
        # (main.rs only lists them, and derives trace.overhead.*).
        with open(run.SPEC) as f:
            spec = json.load(f)
        sources = ""
        for name in ("churn.rs", "serve.rs", "stats.rs"):
            with open(os.path.join(run.HERE, "src", name)) as f:
                sources += f.read()
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                name = m["name"].removeprefix("trace.overhead.")
                self.assertIn(f'"{name}"', sources, f"{group} metric {m['name']}")

    def test_traced_list_matches_the_declaration(self):
        # main.rs's LAYER_METRICS (name, unit) is the declared per-layer list
        # without the trace.overhead.* entries main.rs derives.
        with open(run.SPEC) as f:
            spec = json.load(f)
        with open(os.path.join(run.HERE, "src", "main.rs")) as f:
            main = f.read()
        table = main[main.index("const LAYER_METRICS"):]
        table = table[:table.index("];")]
        listed = re.findall(r'\("([^"]+)", "([^"]+)"\)', table)
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]
                    if not m["name"].startswith("trace.overhead.")]
        self.assertEqual(listed, declared)


if __name__ == "__main__":
    unittest.main()
