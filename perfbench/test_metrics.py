"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The span-stack self-time arithmetic of the C++ probes is tested by
src/probe_test.cc (ctest in the benchmark's build directory).
"""

import json
import math
import os
import unittest

import metrics
import run


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 98), 98)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 98), 7.0)
        self.assertEqual(metrics.percentile([3, 1, 2], 50), 2)

    def test_empty(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_tail_rule(self):
        # 624 points (the fig10 quick grid): rank 612 of 624 is p98,
        # leaving 12 samples beyond it.
        self.assertEqual(metrics.samples_beyond(624, 98), 12)
        self.assertTrue(metrics.tail_supported(624, 98))
        # 500 is the smallest count that leaves 10 beyond p98.
        self.assertTrue(metrics.tail_supported(500, 98))
        self.assertFalse(metrics.tail_supported(499, 98))
        # 48 reference points support p50 but not p98.
        self.assertTrue(metrics.tail_supported(48, 50))
        self.assertFalse(metrics.tail_supported(48, 98))


class PaperIpcErr(unittest.TestCase):
    def test_hand_computed(self):
        # 2x over and 2x under the target both miss by ln 2; an exact
        # match adds 0: mean = 2 ln 2 / 3.
        pairs = [(2.0, 1.0), (0.5, 1.0), (1.3, 1.3)]
        self.assertAlmostEqual(metrics.paper_ipc_err(pairs),
                               2 * math.log(2) / 3)

    def test_seed_average_before_error(self):
        # Programs of one (benchmark, width) are averaged first, as
        # the figure harnesses average seeds: mean IPC 1.0 hits 1.0.
        # Only Base points count, and a failed one (IPC 0) is left
        # out.
        def pt(bench, scheme, ipc, paper):
            return {"bench": bench, "width": 4, "scheme": scheme,
                    "ipc": ipc, "paper_ipc": paper}
        raw = {"points": [
            pt("gcc", "Base", 0.5, 1.0),
            pt("gcc", "Base", 1.5, 1.0),
            pt("gcc", "PRI-refcount+ckptcount", 3.0, 1.0),
            pt("mcf", "Base", 0.2, 0.4),
            pt("mcf", "Base", 0.0, 0.4),
        ]}
        pairs = sorted(metrics.paper_pairs(raw))
        self.assertEqual(pairs, [(0.2, 0.4), (1.0, 1.0)])
        self.assertAlmostEqual(metrics.paper_ipc_err(pairs),
                               math.log(2) / 2)

    def test_no_base_points(self):
        raw = {"points": [{"bench": "gcc", "width": 8,
                           "scheme": "PRI-refcount+ckptcount",
                           "ipc": 1.2, "paper_ipc": 1.0}]}
        self.assertEqual(metrics.paper_pairs(raw), [])

    def test_empty(self):
        with self.assertRaises(ValueError):
            metrics.paper_ipc_err([])


class TraceOverhead(unittest.TestCase):
    def test_overhead(self):
        self.assertAlmostEqual(metrics.trace_overhead(800.0, 1000.0), 0.2)
        self.assertAlmostEqual(metrics.trace_overhead(1000.0, 1000.0), 0.0)
        # A traced run that happens to read faster gives a negative
        # overhead; it is reported as measured.
        self.assertAlmostEqual(metrics.trace_overhead(1100.0, 1000.0),
                               -0.1)


REF = metrics.REFERENCE_BURST_NS


class Kips(unittest.TestCase):
    def test_point_time_basis(self):
        # Every repeat at the reference host speed.
        raw = {"points": [{"committed": 100000}, {"committed": 50000}],
               "point_ms": [[100.0, 400.0, 100.0], [50.0, 60.0, None]],
               "ref_ns": [[REF]] * 3}
        # means 200 ms and 55 ms: 150k inst / 255 ms.
        self.assertEqual(metrics.point_means_ms(raw), [200.0, 55.0])
        self.assertAlmostEqual(metrics.kips(raw), 150000 / 255.0)

    def test_point_without_samples(self):
        # A point that failed in every repeat has no samples: it is
        # left out of kips and of the point-time percentiles.
        raw = {"points": [{"committed": 100000}, {"committed": 50000}],
               "point_ms": [[100.0, 300.0], [None, None]],
               "ref_ns": [[REF], [REF]]}
        self.assertEqual(metrics.point_means_ms(raw), [200.0])
        self.assertAlmostEqual(metrics.kips(raw), 100000 / 200.0)

    def test_every_point_failed(self):
        # No timed point: the run reports no time metrics (and is not
        # correct), instead of failing to report at all.
        raw = {"points": [{"committed": 0, "scheme": "Base", "ipc": 0.0,
                           "bench": "gcc", "width": 4, "paper_ipc": 1.0}],
               "point_ms": [[None]], "setup_s": [[0.5]],
               "setup_ref_ns": [[REF]], "ref_ns": [[2 * REF]],
               "peak_rss_kb": 2048, "repeats": [{"wall_s": 1.0}]}
        self.assertEqual(metrics.end_to_end(raw),
                         {"setup_s": 0.5, "peak_rss_mb": 2.0})
        self.assertEqual(metrics.reported(raw),
                         {"batch_wall_s": 1.0, "setup_host_speed": 1.0})

    def test_batch_wall(self):
        raw = {"repeats": [{"wall_s": 1.0}, {"wall_s": 4.0},
                           {"wall_s": 2.0}]}
        self.assertEqual(metrics.batch_wall_s(raw), 2.0)

    def test_setup_sums_program_medians(self):
        raw = {"setup_s": [[0.010, 0.050, 0.012], [0.020, 0.021, 0.022]],
               "setup_ref_ns": [[REF]] * 3}
        self.assertAlmostEqual(metrics.setup_seconds(raw), 0.012 + 0.021)


class HostSpeed(unittest.TestCase):
    G = metrics.SPEED_EXPONENT

    def test_speed(self):
        self.assertAlmostEqual(metrics.host_speed([REF] * 5), 1.0)
        # Bursts 25% slower than the reference: the simulator is
        # taken to be 1.25 ** G slower. A burst stretched 100-fold by a
        # descheduled vCPU does not count.
        slow = [1.25 * REF] * 4 + [125 * REF]
        self.assertAlmostEqual(metrics.host_speed(slow), 0.8 ** self.G)
        with self.assertRaises(ValueError):
            metrics.host_speed([])

    def test_times_scaled_to_reference_speed(self):
        # Bursts twice as long: the same work reads 2 ** G times as
        # long, and is reported as at the reference speed.
        def run(burst_scale):
            t = burst_scale ** self.G
            return {"points": [{"committed": 100000},
                               {"committed": 50000}],
                    "point_ms": [[100.0 * t], [50.0 * t]],
                    "setup_s": [[0.02 * t], [0.01 * t]],
                    "setup_ref_ns": [[REF * burst_scale] * 2],
                    "ref_ns": [[REF * burst_scale] * 2],
                    "peak_rss_kb": 1024}
        fast, slow = metrics.end_to_end(run(1)), metrics.end_to_end(run(2))
        for name in ("kips", "setup_s", "point_ms_p50"):
            self.assertAlmostEqual(fast[name], slow[name], msg=name)
        self.assertAlmostEqual(fast["kips"], 150000 / 150.0)
        self.assertAlmostEqual(fast["setup_s"], 0.03)
        self.assertAlmostEqual(metrics.kips(run(2), scaled=False),
                               150000 / 150.0 / 2 ** self.G)
        self.assertAlmostEqual(metrics.run_speed(run(2)), 0.5 ** self.G)

    def test_each_repeat_by_its_own_bursts(self):
        # A point timed 100 ms in a repeat at reference speed and
        # 100 / s ms in one at speed s (bursts twice as long, an
        # outlier ignored) took 100 ms at reference speed both times.
        # Round by round the same holds for set-up.
        s = 0.5 ** self.G
        raw = {"points": [{"committed": 1000}],
               "point_ms": [[100.0, 100.0 / s]],
               "ref_ns": [[REF, REF, 30 * REF], [2 * REF] * 3],
               "setup_s": [[0.01, 0.01 / s, 0.03]],
               "setup_ref_ns": [[REF], [2 * REF], [REF]]}
        self.assertEqual(metrics.point_means_ms(raw), [100.0])
        self.assertAlmostEqual(metrics.point_means_ms(raw, scaled=False)[0],
                               (100.0 + 100.0 / s) / 2)
        self.assertAlmostEqual(metrics.run_speed(raw),
                               200.0 / (100.0 + 100.0 / s))
        self.assertAlmostEqual(metrics.setup_seconds(raw), 0.01)
        self.assertAlmostEqual(metrics.setup_seconds(raw, scaled=False),
                               0.01 / s)


class Names(unittest.TestCase):
    def test_valid(self):
        for name in ("kips", "setup_s", "rename.ckpt_create_ns",
                     "pri8-ref", "9lives", "a" * 64):
            self.assertTrue(metrics.valid_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "a b", "kips/s", "naïve",
                     "x" * 65, "latency(ms)"):
            self.assertFalse(metrics.valid_name(name), name)

    def test_benchmark_json_agrees_with_run(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for kind, units in (("end_to_end", run.END_TO_END_UNITS),
                            ("per_layer", run.PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in bench[kind]}
            self.assertEqual(declared, units, kind)
        for name in names + list(run.END_TO_END_UNITS) + \
                list(run.PER_LAYER_UNITS):
            self.assertTrue(metrics.valid_name(name), name)


class Identity(unittest.TestCase):
    def test_mismatches(self):
        a = {"points": [
            {"key": "k1", "cycles": 10, "insts": 5, "committed": 7,
             "arch_sig": "ab"},
            {"key": "k2", "cycles": 20, "insts": 5, "committed": 7,
             "arch_sig": "cd"}]}
        b = json.loads(json.dumps(a))
        self.assertEqual(metrics.simulation_mismatches(a, b), [])
        b["points"][1]["arch_sig"] = "ce"
        self.assertEqual(metrics.simulation_mismatches(a, b), ["k2"])
        b["points"].pop()
        self.assertEqual(metrics.simulation_mismatches(a, b), ["k2"])


if __name__ == "__main__":
    unittest.main()
