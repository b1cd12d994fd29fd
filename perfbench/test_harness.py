"""Self-test of the benchmark harness (no CLI runs, a few seconds).

    python3 -m pytest perfbench/test_harness.py
    python3 perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _cohomology_report(m, degree, grades, corrupt=None):
    table = {}
    for grade in grades:
        cocycles, coboundaries, dim = gate.cohomology_counts(m, degree, grade)
        table[str(grade)] = {"cocycles": cocycles, "coboundaries": coboundaries, "dim": dim}
    if corrupt is not None:
        table[corrupt]["cocycles"] += 1
        table[corrupt]["dim"] += 1
    report = {"options": {"grades": list(grades)}, "passed": True, "table": table}
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


class OracleTest(unittest.TestCase):
    def test_lp_four_variables_degree_three(self):
        got = tuple(gate.cohomology_counts(4, 3, grade)[0] for grade in (1, 2, 3, 4))
        self.assertEqual(got, (69, 155, 125, 35))

    def test_functions_are_constants_and_higher_grades_are_exact(self):
        self.assertEqual(gate.cohomology_counts(4, 4, 0), (1, 0, 1))
        for m, degree in ((4, 4), (6, 2), (3, 3)):
            for grade in range(1, m + 1):
                self.assertEqual(gate.cohomology_counts(m, degree, grade)[2], 0)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.job = workloads.Job("lp", (), 0, {"passed": True}, oracle=(("table", 4, 4),))
        self.report = _cohomology_report(4, 4, (0, 1, 2))
        self.digest = gate.sha256(self.report)

    def test_clean_report_passes(self):
        self.assertEqual(gate.check_job(self.job, 0, self.report, self.digest, self.digest), [])

    def test_one_changed_byte_fails_the_pinned_digest_and_the_repetition(self):
        changed = self.report.replace(b'"passed": true', b'"passed": truE', 1)
        self.assertEqual(len(changed), len(self.report))
        problems = gate.check_job(self.job, 0, changed, self.digest, self.digest)
        self.assertTrue(any("pinned" in p for p in problems), problems)
        self.assertTrue(any("first repetition" in p for p in problems), problems)

    def test_wrong_exit_code_fails(self):
        problems = gate.check_job(self.job, 1, self.report, self.digest)
        self.assertEqual(problems, ["exit code 1, expected 0"])

    def test_table_against_the_oracle(self):
        wrong = _cohomology_report(4, 4, (0, 1, 2), corrupt="2")
        problems = gate.check_job(self.job, 0, wrong)
        self.assertEqual(len(problems), 1)
        self.assertIn("table grade 2", problems[0])

    def test_missing_report_fails(self):
        self.assertIn("no report written", gate.check_job(self.job, 0, None))


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_wrapped_children_and_counts_are_exact(self):
        import algebroid.cli  # noqa: F401
        from algebroid import linalg
        from algebroid.poly import Poly
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        started = perf_counter()
        try:
            p = (Poly.variable(0) + Poly.variable(1) + 1) ** 12
            self.assertEqual(linalg.rank([[1, 0, 2], [0, 0, 0]], 3), 1)
        finally:
            elapsed = perf_counter() - started
            tracer.uninstall()
        snap = tracer.snapshot()
        self.assertEqual(len(p.terms), 91)
        self.assertEqual(snap["stats"]["poly.pow"]["calls"], 1)
        # squarings b, b^2, b^4, b^8 and the products 1*b^4, b^4*b^8
        self.assertEqual(snap["stats"]["poly.mul"]["calls"], 6)
        self.assertEqual(snap["counts"]["poly.mul.terms_out"], 6 + 15 + 15 + 45 + 91 + 153)
        self.assertEqual(snap["stats"]["poly.add"]["calls"], 2)
        self.assertEqual(snap["counts"]["linalg.rank.cells"], 6)
        self.assertEqual(snap["counts"]["linalg.rank.nnz"], 2)
        self.assertNotIn("cohomology.columns", snap["counts"])
        # Each second is counted once: self times never add up past the wall.
        self.assertLessEqual(sum(s["self_s"] for s in snap["stats"].values()), elapsed)
        self.assertFalse(hasattr(linalg.rank, "__wrapped__"))


class CompareTest(unittest.TestCase):
    def test_results_from_different_backends_are_refused(self):
        before = {"workload": "cohomology", "trace": 0, "env": {"backend": "pure-python"}}
        after = {"workload": "cohomology", "trace": 0, "env": {"backend": "compiled"}}
        self.assertIn("backends", compare.refusal(before, after))
        self.assertIsNone(compare.refusal(before, before))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for entry in spec["workloads"]:
            self.assertEqual(entry["why"], workloads.WHY[entry["name"]])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
