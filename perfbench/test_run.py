#!/usr/bin/env python3
"""Smoke test of run.py: every workload, untraced and traced, at tiny size,
emits exactly the metrics BENCHMARK.json names, with their units.

    python3 perfbench/test_run.py
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, env=None):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                         check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class RunPyTest(unittest.TestCase):
    def test_every_metric_is_emitted_for_every_workload(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    prov, result = run(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    for key in ("host_cpus", "rustc", "profile", "git_commit", "seed",
                                "passes"):
                        self.assertIn(key, prov["provenance"])

    def test_builds_into_the_default_target_dir(self):
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        _, result = run("lossy_stream", 0, env)
        self.assertTrue(result["correct"])
        self.assertTrue((ROOT / ".bench_build" / "perfbench-default").is_file())

    def test_fails_without_printing_a_result_on_bad_input(self):
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "nope"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
