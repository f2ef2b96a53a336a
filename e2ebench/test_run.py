#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself (not of vcgt).

    python3 e2ebench/test_run.py

- quick mode emits every metric named in BENCHMARK.json, for every workload,
  in both the untraced (end_to_end) and the traced (per_layer) pass;
- the output check fails, with a non-zero exit status, when a stored
  reference value is perturbed;
- a workload needing more threads than the CPUs available is refused;
- without the repository's sources the benchmark exits non-zero and prints
  no result.
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


def bench(*args, cwd=ROOT, preexec_fn=None):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900, preexec_fn=preexec_fn)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


class QuickMode(unittest.TestCase):
    def test_every_metric_for_every_workload(self):
        for w in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = bench("--workload", w["name"], "--seed", "3",
                                              "--seconds", "1", "--trace", str(trace), "--quick")
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(set(result["metrics"]), set(names))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], names[name])
                        self.assertIsInstance(m["value"], (int, float))
                    if trace:
                        self.assertEqual(result["metrics"]["trace.dropped"]["value"], 0)


class OutputCheck(unittest.TestCase):
    def test_perturbed_reference_fails(self):
        with open(os.path.join(HERE, "reference.json")) as f:
            ref = json.load(f)
        for rows in ref["workloads"]["row_halo4_implicit"].values():
            rows[0]["mdot_out"] *= 1.0 + 100 * ref["rel_tolerance"]
        tmp = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        try:
            json.dump(ref, tmp)
            tmp.close()
            code, result, _ = bench("--workload", "row_halo4_implicit", "--seed", "2",
                                    "--seconds", "1", "--trace", "0", "--quick",
                                    "--reference", tmp.name)
        finally:
            os.unlink(tmp.name)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_unperturbed_reference_passes(self):
        code, result, err = bench("--workload", "row_halo4_implicit", "--seed", "2",
                                  "--seconds", "1", "--trace", "0", "--quick")
        self.assertEqual(code, 0, err[-2000:])
        self.assertTrue(result["correct"])


class Refusals(unittest.TestCase):
    def test_more_threads_than_cpus_is_refused(self):
        code, result, err = bench("--workload", "row_halo4_implicit", "--seconds", "1", "--quick",
                                  preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        self.assertIn("threads", err)

    def test_without_sources_exits_nonzero_and_prints_nothing(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "e2ebench/run.py", "--workload",
                                   "rig2_explicit", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=d, capture_output=True, text=True,
                                  timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
