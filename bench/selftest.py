"""
Tiny-size self-test of the benchmark: runs every workload end to end, untraced
and traced, with every output check on, and asserts no timings.

    python3 bench/selftest.py

It also checks that the printed metrics match BENCHMARK.json by name and unit,
and that the benchmark refuses to run, printing no result, in a directory
holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


class SelfTest(unittest.TestCase):
    def check_workload(self, name: str, trace: int) -> None:
        result = run(
            str(BENCH / "run.py"), "--workload", name, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny",
        )
        self.assertEqual(result.returncode, 0, result.stderr)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"], result.stdout)
        self.assertEqual(last["failed"], 0)
        self.assertGreaterEqual(last["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {name: m["unit"] for name, m in last["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for metric in last["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_workloads(self):
        self.assertEqual(
            {w["name"] for w in SPEC["workloads"]}, {"cohort_wide", "sessions_long", "loocv"}
        )
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_workload(workload["name"], trace)

    def test_refuses_without_program(self):
        bare = ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            result = run(*SPEC["command"], "--workload", "loocv", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
