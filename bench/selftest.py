#!/usr/bin/env python3
"""Fast self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload small (steady and burst at 1/20 of their requests,
zoo as packaged) for half a second, untraced and traced, and asserts
that every metric BENCHMARK.json names is reported with its unit, that
no simulation failed, and that the per-layer self times plus other.ms
add up to the traced wall time.  It also checks that a hook naming a
function that no longer exists is reported absent instead of crashing.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
         "--scale", "0.05"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def check_result(self, result: dict, declared: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_frac == 0
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            reported = result["metrics"][m["name"]]
            self.assertEqual(reported["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(reported["value"]), m["name"])

    def test_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_self_times_add_up(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                m = {k: v["value"] for k, v in result["metrics"].items()}
                for name in spans.SELF_TIME_METRICS:
                    self.assertGreaterEqual(m[name], 0.0, name)
                total = sum(m[name] for name in spans.SELF_TIME_METRICS)
                self.assertAlmostEqual(total, m["trace.wall_ms"],
                                       delta=1e-6 * m["trace.wall_ms"])
                self.assertGreater(m["models.parse.calls"], 0)
                self.assertGreater(m["engine.cycles"], 0)

    def test_missing_hook_is_absent(self):
        twillsim = run.import_twillsim()
        original = twillsim.engine.parse_model
        tracer = spans.Tracer(spans.HOOKS + (
            ("twillsim.engine", "no_such_function", "engine.gone"),
            ("twillsim.no_such_module", "anything", "gone.anything"),
        ))
        tracer.install()
        try:
            self.assertIsNot(twillsim.engine.parse_model, original)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.absent, ["engine.gone", "gone.anything"])
        self.assertIs(twillsim.engine.parse_model, original)


if __name__ == "__main__":
    unittest.main()
