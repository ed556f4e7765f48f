"""Self-test of the benchmark's own code at tiny sizes.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both trace modes and on every workload, and that a corrupted output trips
the gates and raises failed_share.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import time
import unittest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def tiny_output(test: unittest.TestCase, workload: str, seed: int = 0):
    """Spec and outputs of one tiny repetition, run in a fresh interpreter."""
    spec = workloads.make_spec(workload, seed, "tiny")
    if workload == "sweep-j3-cli":
        workdir = os.path.join(run.BENCH_DIR, ".work", f"selftest-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        test.addCleanup(shutil.rmtree, workdir, True)
        n = len(spec["calls"])
        spec["outputs"] = [os.path.join(workdir, f"pool_{i}.csv") for i in range(n)]
        spec["reference_outputs"] = [os.path.join(workdir, f"serial_{i}.csv") for i in range(n)]
        run.run_child(dict(spec, workers=1, outputs=spec["reference_outputs"]), time.monotonic() + 600)
        spec["workers"] = min(2, run.nproc())
    out, _ = run.run_child(spec, time.monotonic() + 600)
    return spec, out


class MetricsEmitted(unittest.TestCase):
    def setUp(self):
        self._samples = run.SETUP_SAMPLES
        run.SETUP_SAMPLES = 1

    def tearDown(self):
        run.SETUP_SAMPLES = self._samples

    def test_every_metric_with_its_unit(self):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for w in BENCHMARK["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    res = run.run(w["name"], 5, 0.0, trace, size="tiny")["result"]
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    json.dumps(res, allow_nan=False)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))


class GatesCatchCorruption(unittest.TestCase):
    def test_sweep_tau(self):
        spec, out = tiny_output(self, "sweep-tau")
        self.assertEqual(workloads.gate(spec, out), [])
        bad = copy.deepcopy(out)
        cols = bad["tables"][0]["columns"]
        bad["tables"][0]["data"][1][cols.index("beta0")] += 1e-6
        bad["tables"][1]["data"][0][cols.index("C")] = bad["tables"][1]["data"][0][cols.index("I")] + 1e-9
        bad["tables"][0]["data"][2][cols.index("I")] += 1e-5
        self.assertEqual(len(workloads.gate(spec, bad)), 3)

    def test_j3(self):
        spec, out = tiny_output(self, "sweep-j3-cli")
        self.assertEqual(workloads.gate(spec, out), [])
        with open(spec["outputs"][0], "rb") as fh:
            data = bytearray(fh.read())
        data[-3] = ord("9") if data[-3] != ord("9") else ord("8")  # last digit of the last row
        with open(spec["outputs"][0], "wb") as fh:
            fh.write(bytes(data))
        self.assertEqual(len(workloads.gate(spec, out)), 1)
        bad = dict(out, exit_codes=[3] + out["exit_codes"][1:])
        self.assertEqual(len(workloads.gate(spec, bad)), spec["rows_per_call"])

    def test_decohere(self):
        spec, out = tiny_output(self, "decohere-revival")
        reference = list(out["trace"]["D"])
        self.assertEqual(workloads.gate(spec, out, reference), [])
        bad = copy.deepcopy(out)
        bad["trace"]["D"][1] += 2e-6
        bad["trace"]["Q"][2] += 1e-6
        bad["trace"]["Cnc"][3] += 1e-6
        self.assertEqual(len(workloads.gate(spec, bad, reference)), 3)
        bad = copy.deepcopy(out)
        bad["trace"]["max_step_drift"] = 1e-7
        self.assertEqual(len(workloads.gate(spec, bad, reference)), len(reference))

    def test_luo_matches_optimizer(self):
        from spinquench.central import qubit_state
        from spinquench.xstate import discord

        for a, d in ((0.9, 0.0), (0.9, 0.3), (0.5, 0.8), (1.0, 1.0)):
            root = a * d**0.5
            self.assertAlmostEqual(workloads.luo_discord(root, -root, a), discord(qubit_state(a, d)), 8)

    def test_failed_share_rises(self):
        real = run.run_child

        def corrupting(spec, deadline):
            out, elapsed = real(spec, deadline)
            if spec["workload"] == "sweep-tau":
                cols = out["tables"][0]["columns"]
                out["tables"][0]["data"][0][cols.index("beta0")] += 1e-3
            return out, elapsed

        run.run_child = corrupting
        run.SETUP_SAMPLES, samples = 1, run.SETUP_SAMPLES
        try:
            report = run.run("sweep-tau", 5, 0.0, False, size="tiny")
        finally:
            run.run_child, run.SETUP_SAMPLES = real, samples
        self.assertFalse(report["result"]["correct"])
        self.assertEqual(report["result"]["failed"], 1)
        self.assertGreater(report["failed_share"], 0.0)


if __name__ == "__main__":
    unittest.main()
