"""Smoke test of the benchmark at tiny input sizes (stdlib unittest).

    python3 -m unittest bench/test_smoke.py      # or: python3 -m pytest bench/test_smoke.py

Every workload must emit exactly the metrics BENCHMARK.json lists, with
no failed op; two traced runs on one seed must report the same
deterministic counters; and without the program's sources the
benchmark must exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result(workload, trace, seed=7):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res, lines = result(w, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
                self.assertIn(f"{w}: failed_ratio = 0 ratio", lines)

    def test_traced_counters_repeat(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first, _ = result(w, 1)
                second, _ = result(w, 1)
                for res in (first, second):
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)
                counters = [k for k in names
                            if not k.endswith(".self_s") and k != "trace.overhead_ratio"]
                self.assertEqual({k: first["metrics"][k] for k in counters},
                                 {k: second["metrics"][k] for k in counters})

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run("--workload", WORKLOADS[0], "--seconds", "0.5", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
