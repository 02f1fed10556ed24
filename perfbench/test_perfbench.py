#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout. Builds into .bench_build/ like
run.py does, then checks:
  * the C++ unit checks (percentiles and self time against sorted and
    brute-force oracles, failures counted as infinite latency, span
    attribution, the value codec);
  * BENCHMARK.json and run.py name the same workloads and metrics;
  * killing the daemon mid-window ends the run quickly with failed
    operations and a non-zero exit instead of hanging;
  * a directory holding only the benchmark files fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

ROOT = run.ROOT


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        subprocess.run(["cmake", "--build", run.BUILD_TREE, "--target", "perfbench_selftest"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)

    def test_unit_checks(self):
        out = subprocess.run([os.path.join(run.BUILD_TREE, "perfbench_selftest")],
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)

    def test_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)
        self.assertEqual(tuple(m["name"] for m in spec["end_to_end"]), run.END_TO_END)
        self.assertEqual(tuple(m["name"] for m in spec["per_layer"]), run.PER_LAYER)

    def test_killed_daemon_ends_the_run_with_errors(self):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "durable-rw50",
             "--seed", "3", "--seconds", "20", "--trace", "0", "--kill-daemon-after-ms", "1000"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        elapsed = time.monotonic() - started
        self.assertNotEqual(out.returncode, 0)
        # Set-up plus one second of window, not the 20 s asked for.
        self.assertLess(elapsed, 60, out.stderr[-2000:])
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2])["report"]
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["end_to_end"]["error_ratio"]["value"], 0)

    def test_benchmark_files_alone_fail_without_result(self):
        bare = os.path.join(run.BUILD, "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cache-rd95", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in out.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
