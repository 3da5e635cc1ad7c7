#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark on first use (see run.py) and take about a minute
after that.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The smallest op count each workload reports its exact counts over.
MIN_OPS = {"firmware_build": 64, "coremark_exec": 4, "echo_load": 4, "fault_sweep": 240}
SEEDED = ("firmware_build", "echo_load", "fault_sweep")


def run(workload, seed, trace=0, ops=0, seconds=0.0):
    """Runs the benchmark; returns (report line, result line) as dicts."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if ops:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SameSeedTest(unittest.TestCase):
    def test_identical_digests_and_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a_report, a = run(w, 7, ops=MIN_OPS[w])
                b_report, b = run(w, 7, ops=MIN_OPS[w])
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(a["attempted"], b["attempted"])
                for key in ("all_ops_digest", "prefix_digest", "ops", "statements",
                            "input_digest"):
                    self.assertEqual(a_report["report"][key], b_report["report"][key], key)

    def test_identical_per_op_counts_in_traced_run(self):
        _, a = run("echo_load", 7, trace=1, ops=4)
        _, b = run("echo_load", 7, trace=1, ops=4)
        self.assertTrue(a["correct"] and b["correct"])
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for name in counts:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)


class ReferenceTest(unittest.TestCase):
    def test_recorded_seed_is_checked(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                report, result = run(w, 7, ops=MIN_OPS[w])
                self.assertTrue(result["correct"])
                self.assertEqual(report["report"]["seed_reference"], "match")

    def test_missing_canary_reference_fails(self):
        binary = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                              "perfbench")
        run("echo_load", 7, ops=4)  # builds the binary if needed
        proc = subprocess.run([binary, "--workload", "echo_load", "--seed", "7", "--seconds", "0",
                               "--trace", "0", "--ops", "4", "--references", os.devnull],
                              capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertIn("canary: no reference digest", " ".join(result["errors"]))


class DifferentSeedTest(unittest.TestCase):
    def test_inputs_differ(self):
        for w in SEEDED:
            with self.subTest(workload=w):
                a_report, _ = run(w, 1, ops=MIN_OPS[w])
                b_report, _ = run(w, 2, ops=MIN_OPS[w])
                self.assertNotEqual(a_report["report"]["input_digest"],
                                    b_report["report"]["input_digest"])
                self.assertNotEqual(a_report["report"]["prefix_digest"],
                                    b_report["report"]["prefix_digest"])


class ResultTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                report, result = run(w, 3, seconds=0.5)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(report["report"]["tail_samples_beyond"], 10)

    def test_metric_names_match_benchmark_json(self):
        _, plain = run("coremark_exec", 1, ops=4)
        self.assertEqual(set(plain), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({n: m["unit"] for n, m in plain["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        _, traced = run("coremark_exec", 1, trace=1, ops=16)
        self.assertTrue(traced["correct"])
        self.assertEqual({n: m["unit"] for n, m in traced["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        # The stage spans account for the AppRun build within the stated bound.
        self.assertLess(abs(traced["metrics"]["build.unattributed_pct"]["value"]), 15)

    def test_fails_without_sources(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "coremark_exec", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("\"correct\"", proc.stdout)


if __name__ == "__main__":
    unittest.main()
