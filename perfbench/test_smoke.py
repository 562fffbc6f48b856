"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m unittest perfbench/test_smoke.py     (from the repository root)

Runs every workload of BENCHMARK.json untraced and traced, and checks that
each run is correct and prints every declared metric with its unit.  Also
checks that a curve that raises fails the run, and that the benchmark
refuses to run without the package source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Appended to a copy of the package: full_report raises on every curve with
# an even n, so about half of the curves fail.
INJECTED_FAILURE = """
_full_report = full_report


def full_report(c, with_oracle=False):
    if c.n % 2 == 0:
        raise ArithmeticError("injected")
    return _full_report(c, with_oracle)
"""


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class BenchmarkSmokeTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(BENCH), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        names = [w["name"] for w in BENCH["workloads"]]
        names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in BENCH["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))

    def check_run(self, workload: str, trace: int) -> None:
        proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--scale", "0.05")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_untraced_and_traced(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_a_curve_that_raises_fails_the_run(self):
        broken = HERE / "out" / "broken"
        shutil.rmtree(broken, ignore_errors=True)
        try:
            shutil.copytree(ROOT / "src", broken / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copytree(HERE, broken / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            with open(broken / "src" / "eventorsion" / "classifier.py", "a") as fh:
                fh.write(INJECTED_FAILURE)
            proc = run("--workload", "large-height", "--seed", "7", "--seconds", "1",
                       "--scale", "0.05", cwd=broken)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertLess(result["failed"], result["attempted"])
            self.assertEqual(result["metrics"], {})
            self.assertIn('"ArithmeticError"', proc.stdout)
        finally:
            shutil.rmtree(broken)

    def test_refuses_to_run_without_the_package(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run("--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                       "--seconds", "1", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
