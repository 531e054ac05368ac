"""Tests of the campaign benchmark's own arithmetic, metric derivation and
result schema. No build needed:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Arithmetic(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(stats.geomean([2, 8, 4]), 4.0)
        self.assertAlmostEqual(stats.geomean([5.5]), 5.5)
        with self.assertRaises(ValueError):
            stats.geomean([])
        with self.assertRaises(ValueError):
            stats.geomean([1, 0])

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics(self):
        xs = list(range(1, 11))
        self.assertEqual(stats.quartiles(xs), (2.75, 5.5, 8.25))
        ys = [0.9, 1.3, 1.1, 1.0, 1.2, 0.95, 1.05]
        self.assertEqual(list(stats.quartiles(ys)),
                         statistics.quantiles(ys, n=4))
        with self.assertRaises(ValueError):
            stats.quartiles([1])

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(list(range(1, 11))),
                               (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([7, 7, 7, 7]), 0.0)

    def test_tail_percentile_needs_ten_beyond(self):
        # n samples: the chosen percentile's nearest rank leaves >= 10
        # samples beyond it, and no higher ladder entry does.
        for n, p in ((20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
                     (1000, 99.0), (2000, 99.5), (10000, 99.9),
                     (100000, 99.99)):
            xs = list(range(n))
            got_p, value = stats.tail_percentile(xs)
            self.assertEqual(got_p, p, n)
            self.assertGreaterEqual(n - (value + 1), 10)
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_tail_percentile_value_unsorted(self):
        xs = [5, 1, 9, 3, 7] * 20  # 100 samples, p90 -> rank 90
        p, v = stats.tail_percentile(xs)
        self.assertEqual(p, 90.0)
        self.assertEqual(v, sorted(xs)[89])

    def test_timing_summary(self):
        s = stats.timing_summary(list(range(1, 101)))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["p90"], 90)
        self.assertEqual(stats.timing_summary([]), {"n": 0})


def result(metric_names, **over):
    r = {"correct": True, "attempted": 3, "failed": 0,
         "metrics": {n: {"value": 1.5, "unit": "s"} for n in metric_names}}
    r.update(over)
    return r


class Schema(unittest.TestCase):
    names = ["a", "b"]

    def test_valid(self):
        self.assertEqual(stats.check_result(result(self.names), self.names),
                         [])

    def test_wrong_keys(self):
        r = result(self.names)
        r["extra"] = 1
        self.assertTrue(stats.check_result(r, self.names))
        del r["extra"], r["failed"]
        self.assertTrue(stats.check_result(r, self.names))

    def test_counts(self):
        for bad in ({"attempted": 0}, {"attempted": 2.5}, {"failed": -1},
                    {"attempted": True}, {"correct": 1}):
            self.assertTrue(stats.check_result(result(self.names, **bad),
                                               self.names), bad)

    def test_metrics_exact_and_finite(self):
        r = result(["a"])
        self.assertTrue(stats.check_result(r, self.names))
        r = result(self.names)
        r["metrics"]["a"]["value"] = math.nan
        self.assertTrue(stats.check_result(r, self.names))
        r = result(self.names)
        r["metrics"]["b"] = {"value": 1}
        self.assertTrue(stats.check_result(r, self.names))


class BenchmarkFile(unittest.TestCase):
    """BENCHMARK.json lists exactly what metrics.py computes."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(sorted(self.spec),
                         sorted(["command", "paths", "run_seconds",
                                 "workloads", "end_to_end", "per_layer"]))
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertEqual(self.spec["command"][1], "perfbench/run.py")

    def test_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         metrics.WORKLOADS)
        for w in self.spec["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)

    def test_end_to_end(self):
        got = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in self.spec["end_to_end"]]
        self.assertEqual(got, list(metrics.END_TO_END))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_per_layer(self):
        got = [(m["name"], m["unit"], m["better"])
               for m in self.spec["per_layer"]]
        self.assertEqual(got, metrics.per_layer_defs())
        self.assertLessEqual(len(got), 128)

    def test_names_and_units(self):
        all_m = self.spec["end_to_end"] + self.spec["per_layer"]
        names = [m["name"] for m in all_m] + \
            [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in all_m:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))


REF = metrics.REF_PROBE_S


def fake_doc(trace):
    """A harness document with round numbers, for the derivations."""
    subs = []
    for i, name in enumerate(metrics.SUBJECTS):
        s = {"name": name, "ok": True, "execs": 1000, "edges": 10 + i,
             "bugs": 1, "queue": 12, "wall_s": [0.02, 0.01, 0.03],
             "probe_s": [REF, REF / 2, REF],
             "ckpt_bytes": [1024, 3072]}
        if trace:
            s["traced_wall_s"] = 0.011
            s["traced_probe_s"] = REF
            s["replay_probe_s"] = REF
            # the two replayed inputs ran 3 and 12 steps; the campaign's
            # histogram matches that mix, so the weights are even
            s["replay_steps"] = [3, 12]
            s["steps_hist"] = [0, 0, 5, 0, 5] + [0] * 59
            s["jit_code_bytes"] = 2048
            s["counts"] = {
                "seeds": 2, "seeds_kept": 2, "ctr.execs": 1000,
                "selective": 1, "ctr.vm.selective.replays": 99,
                "crashes": 5, "hangs": 0, "queue_adds": 12,
                "cull_passes": 4, "checkpoints": 0,
                "hist.exec.steps.sum": 5000, "hist.exec.steps.count": 1000,
                "ctr.vm.jit.bailouts": 5, "density_sum": 30,
                "density_n": 10,
            }
            s["samples_ns"] = {
                "lang.compile_ms": [1e6, 3e6, 2e6],
                "instrument.ms": [1e6],
                "vm.image_ms": [1e6],
                "vm.jit_compile_ms": [1e6],
                "vm.full_exec_us": [2000, 4000],   # mean 3 us
                "vm.cheap_exec_us": [1000],        # 1 us
                "cov.reset_us": [1000],
                "cov.classify_us": [1000],
                "cov.novelty_us": [1000],
                "cov.checksum_us": [10000],
                "fuzz.havoc_us": [1000, 1000, 1000],
                "fuzz.splice_us": [4000],
                "fuzz.queue_add_us": [500],
                "fuzz.cull_us": [2500],
            }
        subs.append(s)
    return {"subjects": subs, "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_kb": 2048, "attempted": 54, "failed": 0}


class Derivation(unittest.TestCase):
    def test_end_to_end(self):
        m = metrics.end_to_end(fake_doc(False))
        self.assertEqual(sorted(m), sorted(n for n, *_ in
                                           metrics.END_TO_END))
        # wall times scaled to the reference probe: 0.02, 0.02, 0.03
        self.assertAlmostEqual(m["execs_per_sec"]["value"], 1000 / 0.02)
        self.assertEqual(m["setup_s"]["value"], 0.2)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(m["edges_covered"]["value"],
                         sum(10 + i for i in range(18)))
        self.assertEqual(m["bugs_found"]["value"], 18)
        self.assertEqual(m["ckpt_kb"]["value"], 2.0)
        raw = metrics.raw_figures(fake_doc(False))
        self.assertAlmostEqual(raw["raw_execs_per_sec"], 1000 / 0.02)
        self.assertAlmostEqual(raw["probe_ms"], REF * 1e3)
        # scaled passes run 0.02, 0.02, 0.03 s on every subject
        steady = metrics.pass_steadiness(fake_doc(False))
        self.assertAlmostEqual(steady["median"], 1000 / 0.02)
        self.assertAlmostEqual(steady["q1"], 1000 / 0.03)
        self.assertAlmostEqual(steady["spread"],
                               (50000 - 1000 / 0.03) / 50000)

    def test_per_layer(self):
        m, detail = metrics.per_layer(fake_doc(True))
        v = {k: x["value"] for k, x in m.items()}
        self.assertEqual(sorted(m), sorted(n for n, *_ in
                                           metrics.per_layer_defs()))
        self.assertAlmostEqual(v["lang.compile_ms"], 18 * 2.0)
        self.assertAlmostEqual(v["vm.jit_code_kb"], 18 * 2.0)
        # selective: full = replays + seeds, cheap = execs - seeds
        self.assertEqual(v["vm.full_execs"], 18 * 101)
        self.assertEqual(v["vm.cheap_execs"], 18 * 998)
        self.assertAlmostEqual(v["vm.replay_rate"], 99 / 998)
        self.assertAlmostEqual(v["vm.full_exec_us"], 3.0)
        self.assertAlmostEqual(v["cov.novel_rate"], 10 / 99)
        self.assertAlmostEqual(v["cov.density"], 3.0)
        self.assertAlmostEqual(v["vm.steps_per_exec"], 5.0)
        self.assertEqual(v["strategy.checkpoints"], 0)
        self.assertEqual(v["fuzz.snapshot_ms"], 0)
        # attributed ns per campaign: execute 101*3000 + 998*1000,
        # map 101*1000 + 101*2000 + 12*10000, queue 12*500 + 4*2500,
        # mutate 998 * (0.75*1000 + 0.25*4000)
        per = (101 * 3000 + 998 * 1000 + 101 * 1000 + 101 * 2000 +
               12 * 10000 + 12 * 500 + 4 * 2500 + 998 * 1750)
        wall = 0.02e9
        self.assertAlmostEqual(v["fuzz.unattributed_us_per_exec"],
                               (wall - per) / 1000 / 1e3)
        self.assertAlmostEqual(v["fuzz.attributed_pct"], 100 * per / wall)
        self.assertAlmostEqual(v["trace.overhead_pct"], -45.0)
        self.assertAlmostEqual(v["subject.cflow.execs_per_sec"], 50000)
        self.assertAlmostEqual(sum(detail["layer_share_pct"].values()),
                               100 * per / wall)


if __name__ == "__main__":
    unittest.main()
