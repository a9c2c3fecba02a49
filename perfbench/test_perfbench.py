#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke length (one second per run).

    python3 perfbench/test_perfbench.py

Builds the driver on first use, exactly as perfbench/run.py does, then runs
every workload untraced and traced. Checks that each run is correct with
no failed operation, that it emits every metric BENCHMARK.json names with
that metric's unit (in a traced run, that the driver itself reports every
layer its workload owns), and that the deterministic metrics repeat
exactly across two runs of one seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import LAYERS  # noqa: E402

SMOKE_SECONDS = "1"
WORKLOADS = ("sweep", "serve", "native", "megadag")
DRIVER_PREFIX = "driver result: "


def run_both(workload, seed, trace):
    """The checked result run.py prints last, and the driver's own result
    before run.py filled anything in."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stdout}")
    lines = proc.stdout.strip().split("\n")
    driver = [json.loads(line[len(DRIVER_PREFIX):]) for line in lines
              if line.startswith(DRIVER_PREFIX)]
    if len(driver) != 1:
        raise AssertionError(f"{workload}: no driver result line")
    return json.loads(lines[-1]), driver[0]


def run(workload, seed, trace):
    return run_both(workload, seed, trace)[0]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)

    def test_every_workload_emits_every_metric(self):
        s = spec()
        self.assertEqual([w["name"] for w in s["workloads"]], list(WORKLOADS))
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                r = run(w, 1, 0)
                self.check(r, s["end_to_end"])
                self.assertTrue(all(m["value"] != 0
                                    for m in r["metrics"].values()))
            with self.subTest(workload=w, trace=1):
                final, driver = run_both(w, 1, 1)
                self.check(final, s["per_layer"])
                units = {m["name"]: m["unit"] for m in s["per_layer"]}
                self.assertEqual(set(driver["metrics"]), set(LAYERS[w]))
                for name, m in driver["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)

    def test_every_layer_has_an_owner(self):
        declared = {m["name"] for m in spec()["per_layer"]}
        owned = set()
        for w in WORKLOADS:
            self.assertLessEqual(set(LAYERS[w]), declared, w)
            owned |= set(LAYERS[w])
        self.assertEqual(owned, declared)

    def test_held_out_seed(self):
        s = spec()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check(run(w, 424242, 0), s["end_to_end"])

    def test_deterministic_metrics_repeat_exactly(self):
        exact_e2e = ("no_sync_fraction", "norm_completion")
        a, b = run("sweep", 7, 0), run("sweep", 7, 0)
        for name in exact_e2e:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)

        exact_layer = ("opt.tuples_removed_per_seed",
                       "barrier.dag_builds_per_seed", "barrier.psi_hit_ratio",
                       "sched.repair_ratio")
        a, b = run("sweep", 7, 1), run("sweep", 7, 1)
        for name in exact_layer:
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)

        a, b = run("serve", 7, 1), run("serve", 7, 1)
        self.assertEqual(a["metrics"]["serve.hit_ratio"]["value"], 0.8)
        self.assertEqual(b["metrics"]["serve.hit_ratio"]["value"], 0.8)


if __name__ == "__main__":
    unittest.main()
