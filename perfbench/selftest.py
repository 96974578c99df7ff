"""Tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Covers: a small-size smoke run of every workload through ``run.py``; exact
repetition of traced counts and output digests at one seed; different
inputs for different seeds; the per-layer output of a traced run; and the
refusal to run in a directory that holds no program. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def scratch():
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


def traced_prefix(name, seed, workdir):
    """One traced worker over a single round; returns its result."""
    wd = tempfile.mkdtemp(dir=workdir)
    cfg = {"workload": name, "seed": seed, "mode": "prefix", "seconds": 0, "trace": True,
           "rounds": 1, "workdir": wd, "result": os.path.join(wd, "result.json")}
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                   check=True, timeout=180)
    with open(cfg["result"], encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(name, seed):
    """Everything a workload's first round is made from, as text."""
    wl = workloads.WORKLOADS[name]
    parts = [repr(wl.inputs(seed, 0))]
    if name == "cli":
        parts.append(repr(wl._fixtures(seed)))
    return "\n".join(parts)


class BenchmarkTests(unittest.TestCase):
    def setUp(self):
        self.workdir = scratch()

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_smoke_every_workload(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = bench("--workload", w["name"], "--seed", "7", "--seconds", "1", "--trace", "0")
                self.assertEqual(out.returncode, 0, out.stderr)
                *_, meta_line, last = out.stdout.strip().splitlines()
                result = json.loads(last)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], meta_line)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, names)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                meta = json.loads(meta_line)["meta"]
                for key in ("nproc", "cpu_model", "l2_per_core", "python", "numpy", "seed",
                            "src_lines"):
                    self.assertIn(key, meta)

    def test_traced_counts_and_digests_repeat(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                a = traced_prefix(w["name"], 11, self.workdir)
                b = traced_prefix(w["name"], 11, self.workdir)
                counts_a = {k: v for k, v in a["layers"].items() if not k.endswith("self_s")}
                counts_b = {k: v for k, v in b["layers"].items() if not k.endswith("self_s")}
                self.assertTrue(counts_a)
                self.assertEqual(counts_a, counts_b)
                self.assertEqual(a["digest"], b["digest"])
                self.assertEqual(a["failures"], [])

    def test_seed_decides_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.assertEqual(fingerprint(w["name"], 3), fingerprint(w["name"], 3))
                self.assertNotEqual(fingerprint(w["name"], 3), fingerprint(w["name"], 4))

    def test_traced_run_reports_every_layer_metric(self):
        out = bench("--workload", "sep-queries", "--seed", "5", "--seconds", "1", "--trace", "1")
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        self.assertGreater(result["metrics"]["separation.enumerate_paths.paths"]["value"], 0)

    def test_refuses_a_directory_without_the_program(self):
        bare = os.path.join(self.workdir, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = bench("--workload", "sep-queries", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("{", out.stdout)


if __name__ == "__main__":
    unittest.main()
