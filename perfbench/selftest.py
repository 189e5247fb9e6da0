"""Tests of the benchmark itself, at the seconds-long small scale.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Run from the root of a checkout.  The file is not named ``test_*.py`` so
that the library's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


def run_child(workload: str, seed: int, env: dict | None = None) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--scale", "small",
         "--mode", "solve", "--src", str(ROOT / "src"), "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, env=env if env is not None else {**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTests(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failures(self):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
                    if trace:
                        self.assertEqual(result["metrics"]["failed_frac"]["value"], 0)

    def test_seed_permutes_queries_but_not_answers(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = run_child(workload, 1), run_child(workload, 2)
                self.assertEqual(first["failed"], 0)
                self.assertEqual(first["digest"], second["digest"])

    def test_wrong_oracle_is_counted_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            kronecker = copy / "src" / "suprschur" / "kronecker.py"
            source = kronecker.read_text()
            honest = "return g_oracle(lam, hook(sum(lam), d), nu)"
            self.assertIn(honest, source)
            kronecker.write_text(source.replace(honest, honest + " + 1"))
            code, result = run_bench("hook-census", 0, cwd=copy)
            self.assertEqual(code, 1)
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)

    def test_resource_limit_is_a_failure_of_its_own(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "SUPRSCHUR_BUDGET": "2"}
        record = run_child("congruence", 1, env=env)
        self.assertEqual(record["failures"]["resource_limit"], record["attempted"])
        self.assertEqual(record["failures"]["mismatch"], 0)
        self.assertEqual(record["failed"], record["attempted"])

    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", copy)
            shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            code, result = run_bench("congruence", 0, cwd=copy)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
