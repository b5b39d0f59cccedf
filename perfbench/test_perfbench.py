#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- a seconds-long tiny-size pass of every workload, plain and traced,
  checking the result line's shape, that the run is correct, and that
  every metric named in BENCHMARK.json is emitted with its unit;
- the Rust unit tests of the correctness checks (a corrupted aggregate or
  an out-of-order bound must fail them);
- the benchmark must fail, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.
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
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

META_KEYS = ("nproc", "cpu_model", "commit", "workload_seeds", "jobs_per_sweep", "graph_nodes", "graph_edges")


class TinyPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binaries = run.build()

    def check(self, workload, trace):
        code, lines = run.run_workload(self.binaries, workload, seed=3, seconds=1, trace=trace, tiny=True)
        self.assertEqual(code, 0, lines)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], f"{workload} trace={trace} failed its checks")
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, f"{workload}: {m['name']} must never be 0")
        meta = json.loads(lines[-2])["meta"]
        for key in META_KEYS:
            self.assertIn(key, meta)
        return result["metrics"]

    def test_sweep_small(self):
        self.check("sweep_small", 0)
        layers = self.check("sweep_small", 1)
        for name in ("api.het_us", "api.sim_us", "engine.hash_ms", "engine.aggregate_us",
                     # the traced run's fleet and persistence cycle
                     "engine.disk_store_us", "engine.journal_record_us", "engine.disk_bytes_per_job",
                     "dist.rx_bytes_per_job", "dist.worker_balance"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_graph_1m(self):
        self.check("graph_1m", 0)
        layers = self.check("graph_1m", 1)
        for name in ("api.sampled_ms", "api.anytime_ms", "core.transform_ms", "dag.nodes"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_serve_mixed(self):
        self.check("serve_mixed", 0)
        layers = self.check("serve_mixed", 1)
        for name in ("serve.accept_ms", "serve.exec_ms", "serve.frames_per_sweep", "engine.wire_encode_us"):
            self.assertGreater(layers[name]["value"], 0, name)

    def test_unknown_workload_is_refused(self):
        code, lines = run.run_workload(self.binaries, "no_such_workload", seed=1, seconds=1, trace=0)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class CorrectnessChecks(unittest.TestCase):
    def test_rust_unit_tests(self):
        env = dict(os.environ, CARGO_TARGET_DIR=run.target_dir())
        cmd = ["cargo", "test", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
        self.assertEqual(subprocess.run(cmd, cwd=ROOT, env=env).returncode, 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        os.makedirs(run.target_dir(), exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.target_dir())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            out = subprocess.run(BENCH["command"] + ["--workload", "sweep_small", "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"],
                                 cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"metrics"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
