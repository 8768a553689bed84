#!/usr/bin/env python3
"""Self-test of the checkpoint-restart benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at self-test size (--tiny: small images, one
episode) through perfbench/run.py, untraced and traced, and checks that

  * the run is correct and exits 0,
  * every end-to-end metric (untraced) and every per-layer metric
    (traced) of BENCHMARK.json is emitted with its unit and is finite,
  * the traced pass reproduced every virtual-clock number of the
    untraced pass exactly.

The first run builds the benchmark binary into $CARGO_TARGET_DIR or
.bench_build/.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900, check=False)
    lines = r.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{r.stderr[-3000:]}"
    return r, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        got = result["metrics"]
        for m in wanted:
            with self.subTest(metric=m["name"]):
                self.assertIn(m["name"], got)
                self.assertEqual(got[m["name"]]["unit"], m["unit"])
                self.assertTrue(math.isfinite(got[m["name"]]["value"]))

    def test_workloads(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                r, res = run(name, 0)
                self.assertEqual(r.returncode, 0, r.stderr[-3000:])
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.check_metrics(res, SPEC["end_to_end"])
            with self.subTest(workload=name, trace=1):
                r, res = run(name, 1)
                self.assertEqual(r.returncode, 0, r.stderr[-3000:])
                self.assertTrue(res["correct"])
                self.check_metrics(res, SPEC["per_layer"])
                # The binary compares the traced pass with the untraced
                # one number by number and reports any difference.
                self.assertNotIn("virtual-clock numbers differ", r.stderr)
                self.assertIn("traced pass matches", r.stderr)

    def test_refuses_without_sources(self):
        """Outside a full checkout the benchmark fails without a result."""
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "bt1-cr",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                check=False)
            self.assertNotEqual(r.returncode, 0)
            self.assertNotIn('"metrics"', r.stdout)


if __name__ == "__main__":
    unittest.main()
