#!/usr/bin/env python3
"""The benchmark's own tests: tiny-scale smoke runs of every workload.

    python3 perfbench/tests/test_perfbench.py        (from the repository root)

Each smoke run goes through run.py (so the build path is exercised too) with
--tiny inputs and checks that:

  * the untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, the traced run every per-layer metric, and nothing else;
  * the same seed replays identical inputs (same input fingerprint) and
    another seed does not;
  * an injected wrong answer is caught: correct=false, failed>0, nonzero exit.

hotspot-cluster, the TcpTransport twin of hotspot-loopback, deadlocks under
concurrent readers and a writer with two pool workers (see NOTES.md). Its
smoke runs accept either a complete result or the watchdog's report of that
stall: exit code 3, correct=false, the unfinished ops counted as failed, and
the workload and phase named.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WATCHDOG_EXIT = 3


def run(workload, seed=1, trace=0, extra=()):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, result


def fingerprint(stdout):
    m = re.search(r"input_fingerprint=([0-9a-f]+)", stdout)
    return m.group(1) if m else None


class SmokeTest(unittest.TestCase):

    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            m = result["metrics"][name]
            self.assertEqual(m["unit"], unit, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def check_clean(self, workload, trace):
        p, result = run(workload, trace=trace)
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.check_metrics(result, LAYER if trace else E2E)
        for name in E2E:
            if trace == 0:
                self.assertGreater(result["metrics"][name]["value"], 0, name)
        return p

    def check_stalled(self, workload, p, result):
        # The documented hotspot-cluster deadlock: the watchdog must end the
        # run and report it rather than hang.
        self.assertEqual(p.returncode, WATCHDOG_EXIT, p.stderr[-2000:])
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertRegex(p.stdout, rf"watchdog fired: workload={workload} phase=\w")

    def test_fleet_churn(self):
        self.check_clean("fleet-churn", 0)
        self.check_clean("fleet-churn", 1)

    def test_scan_heavy(self):
        self.check_clean("scan-heavy", 0)
        self.check_clean("scan-heavy", 1)

    def test_hotspot_loopback(self):
        self.check_clean("hotspot-loopback", 0)
        self.check_clean("hotspot-loopback", 1)

    def test_same_seed_same_inputs(self):
        a, _ = run("fleet-churn", seed=7)
        b, _ = run("fleet-churn", seed=7)
        c, _ = run("fleet-churn", seed=8)
        self.assertIsNotNone(fingerprint(a.stdout))
        self.assertEqual(fingerprint(a.stdout), fingerprint(b.stdout))
        self.assertNotEqual(fingerprint(a.stdout), fingerprint(c.stdout))

    def test_oracle_catches_wrong_answer(self):
        for workload in ("fleet-churn", "scan-heavy", "hotspot-loopback"):
            p, result = run(workload, extra=["--inject-wrong"])
            self.assertNotEqual(p.returncode, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertIn("oracle mismatch", p.stderr, workload)

    def test_hotspot_cluster(self):
        p, result = run("hotspot-cluster", extra=["--inject-wrong"])
        if p.returncode == WATCHDOG_EXIT:
            self.check_stalled("hotspot-cluster", p, result)
            return
        # Completed: the injected wrong cached answer must be caught, and
        # every metric still printed.
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("oracle mismatch", p.stderr)
        self.assertEqual(set(result["metrics"]), set(E2E))

    def test_no_result_without_library(self):
        # A checkout holding only BENCHMARK.json and perfbench/ must fail
        # without printing a result.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=REPO / ".bench_build") as tmp:
            root = pathlib.Path(tmp)
            shutil.copy(REPO / "BENCHMARK.json", root)
            shutil.copytree(BENCH, root / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fleet-churn",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=180,
                env={"PATH": "/usr/bin:/bin", "CARGO_TARGET_DIR": ".bench_build"})
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
