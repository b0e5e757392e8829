#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_benchmark.py

Builds gpbench and gpbench_tests into .bench_build/ (as run.py does), runs
the C++ tests (percentile helper, seed purity, trigger map vs Server
ordinals), and checks BENCHMARK.json against gpbench and its format rules.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()

    def test_format_rules(self):
        s = self.spec
        self.assertEqual(sorted(s), ["command", "end_to_end", "paths", "per_layer",
                                     "run_seconds", "workloads"])
        self.assertEqual(s["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        names = []
        for w in s["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in s["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in s["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
            names.append(m["name"])
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertRegex(m["unit"], UNIT)
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertLessEqual(len(json.dumps(s)), 64 * 1024)

    def test_check_result_rejects_undeclared_and_missing_metrics(self):
        declared = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in self.spec["end_to_end"]}
        ok = {"correct": True, "attempted": 3, "failed": 0, "metrics": dict(declared)}
        self.assertEqual(run.check_result(ok, self.spec, trace=False), [])
        extra = dict(ok, metrics=dict(declared, bogus={"value": 1.0, "unit": "ms"}))
        self.assertTrue(run.check_result(extra, self.spec, trace=False))
        missing = dict(ok, metrics={k: v for k, v in declared.items() if k != "setup_s"})
        self.assertTrue(run.check_result(missing, self.spec, trace=False))


class Gpbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(("gpbench", "gpbench_tests")):
            raise RuntimeError("perfbench build failed")

    def test_every_printed_metric_is_declared(self):
        out = subprocess.run([run.BINARY, "--list-metrics"], capture_output=True, text=True,
                             check=True).stdout
        printed = {}
        for line in out.splitlines():
            name, unit, kind = line.split()
            printed[name] = (unit, kind)
        spec = run.load_spec()
        declared = {m["name"]: (m["unit"], "end_to_end") for m in spec["end_to_end"]}
        declared.update({m["name"]: (m["unit"], "per_layer") for m in spec["per_layer"]})
        self.assertEqual(printed, declared)

    def test_cpp_unit_tests(self):
        binary = os.path.join(run.BUILD_DIR, "gpbench_tests")
        result = subprocess.run([binary], capture_output=True, text=True)
        self.assertEqual(result.returncode, 0, result.stdout[-4000:])


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repo_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "offline", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
