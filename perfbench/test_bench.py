#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the checkout:

    python3 perfbench/test_bench.py

Each workload runs at tiny scale, untraced and traced; every metric
BENCHMARK.json names must be printed with its unit.  Planted faults (a
corrupted campaign report, a flipped stability verdict, a perturbed exact
sweep, a corrupted server reply) must lower ok_frac and mark the run
incorrect.  Counts read from the library's counters must repeat exactly
for a seed, and pool.efficiency may never exceed 1.  The traced run's
layer self times and untracked time must add up to no more than its wall
time, and each workload must measure the layers it calls.
"""

import functools
import json
import os
import shutil
import subprocess
import tempfile
import unittest

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


# Metrics of layers each workload calls: they must read above 0 there.
REACHED = {
    "campaign": ["layer.dynamics.self_ms", "layer.runner.self_ms", "trial.build_us",
                 "dynamics.run_ms.p50", "incr.apply_move_us", "checkpoint.append_ms",
                 "aggregate.add_us", "protocol.parse_us", "handlers.run_unit_us.p50",
                 "served.p50_ms", "net.rtt_us", "dynamics.activations", "pool.efficiency"],
    "certify": ["layer.stability.self_ms", "layer.exhaustive.self_ms", "stability.scan_ms.max",
                "stability.nodes_checked", "exhaustive.profiles_per_s", "csr.sources_per_s",
                "eval.social_cost_ms", "best_response.exact_us.p50", "pool.efficiency"],
    "bigbench": ["layer.approx.self_ms", "gen.build_ns_per_node", "approx.ms_per_landmark",
                 "csr.sources_per_s", "eval.social_cost_ms", "pool.efficiency"],
}


def cpus():
    return len(os.sched_getaffinity(0))


def run(workload, trace, *extra, seed=3, cwd=ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ] + list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def tiny_run(workload, trace):
    return run(workload, trace, "--tiny")


def tiny_result(workload, trace):
    return result(tiny_run(workload, trace))


def result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = proc.stdout.strip().splitlines()[-1]
    d = json.loads(line)
    assert set(d) == {"correct", "attempted", "failed", "metrics"}, d.keys()
    return d


class Metrics(unittest.TestCase):
    def check_metrics(self, d, expected):
        self.assertEqual(set(d["metrics"]), set(expected))
        for name, unit in expected.items():
            m = d["metrics"][name]
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], unit, name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_metric_printed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d = tiny_result(w, 0)
                self.assertTrue(d["correct"])
                self.assertEqual(d["failed"], 0)
                self.assertGreaterEqual(d["attempted"], 1)
                self.check_metrics(d, END_TO_END)
                self.assertEqual(d["metrics"]["ok_frac"]["value"], 1.0)
                t = tiny_result(w, 1)
                self.assertTrue(t["correct"])
                self.check_metrics(t, PER_LAYER)
                self.assertLessEqual(t["metrics"]["pool.efficiency"]["value"], 1.0)

    def test_layers_called_are_measured(self):
        for w in WORKLOADS:
            m = tiny_result(w, 1)["metrics"]
            for name in REACHED[w]:
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m[name]["value"], 0)

    @unittest.skipIf(cpus() < 2, "needs two CPUs, so pool workers open spans")
    def test_layer_time_within_wall(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                m = tiny_result(w, 1)["metrics"]
                covered = m["untracked_ms"]["value"] + sum(
                    v["value"] for k, v in m.items() if k.startswith("layer."))
                self.assertLessEqual(covered, m["trace.wall_ms"]["value"] * (1 + 1e-9))

    def test_counts_repeat(self):
        w = WORKLOADS[0]
        a = tiny_result(w, 1)["metrics"]
        b = result(run(w, 1, "--tiny"))["metrics"]
        for name, unit in PER_LAYER.items():
            if unit == "count" and not name.startswith(("engine.", "server.")):
                self.assertEqual(a[name]["value"], b[name]["value"], name)


class PlantedFaults(unittest.TestCase):
    def test_wrong_answer_counted(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d = result(run(w, 0, "--tiny", "--plant-fault", "answer"))
                self.assertFalse(d["correct"])
                self.assertGreater(d["failed"], 0)
                self.assertLess(d["metrics"]["ok_frac"]["value"], 1.0)

    def test_corrupted_server_reply_counted(self):
        d = result(run("campaign", 1, "--tiny", "--plant-fault", "reply"))
        self.assertFalse(d["correct"])
        self.assertGreater(d["failed"], 0)


class Stamp(unittest.TestCase):
    def test_stamp_records_machine_and_jobs(self):
        lines = tiny_run(WORKLOADS[0], 0).stdout.strip().splitlines()
        stamp = json.loads(lines[0])["stamp"]
        for key in ("cpu_model", "recommended_domain_count", "ocaml_version", "git_rev",
                    "lib_digest"):
            self.assertIn(key, stamp)
        # One domain and one connection per CPU the process may use, never more.
        self.assertEqual(stamp["nproc"], cpus())
        self.assertEqual(stamp["jobs"], cpus())
        self.assertEqual(stamp["connections"], cpus())


class Refusals(unittest.TestCase):
    def test_fails_without_the_program(self):
        scratch = os.path.join(ROOT, "perfbench", "_work")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path),
                                ignore=shutil.ignore_patterns("_work"))
            p = run(WORKLOADS[0], 0, cwd=d)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
