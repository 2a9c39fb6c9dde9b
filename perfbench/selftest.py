"""The benchmark's own tests: tail percentile choice, self-time arithmetic,
whole rounds, medians over rounds, gauge scaling and failure counting.  Needs
no abplab sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import statistics
import unittest

import gauge
import harness
import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TailTests(unittest.TestCase):
    def test_no_tail_below_forty(self):
        for n in (1, 8, 25, 39):
            self.assertIsNone(harness.tail_rank(n))
            self.assertIsNone(harness.tail_value(list(range(n))))

    def test_ten_beyond_the_tail(self):
        for n in (40, 100, 500, 1234):
            times = [float(t) for t in range(n, 0, -1)]
            tail = harness.tail_value(times)
            self.assertEqual(sum(t > tail for t in times), 10)

    def test_percentile_named_in_readme(self):
        self.assertEqual(harness.tail_percentile(500), 98.0)
        self.assertEqual(harness.tail_percentile(40), 75.0)

    def test_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(harness.quartile_spread(values), (q3 - q1) / med)


class SelfTimeTests(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = tracing.Tracer(clock=self.clock)

    def test_self_time_excludes_children(self):
        clock, tr = self.clock, self.tracer
        inner = tr.wrap(lambda: clock.advance(2.0), "m.inner", "inner_s")

        def body():
            clock.advance(1.0)
            inner()
            clock.advance(0.5)
            inner()
            clock.advance(0.25)

        outer = tr.wrap(body, "m.outer", "outer_s")
        outer()
        selfs = tracing.self_times(tr.spans)
        self.assertEqual(selfs["outer_s"], 1.75)
        self.assertEqual(selfs["inner_s"], 4.0)
        root = [s for s in tr.spans if s[1] is None]
        self.assertEqual(len(root), 1)
        self.assertEqual(root[0][5] - root[0][4], sum(selfs.values()))
        self.assertTrue(all(s[1] == root[0][0] for s in tr.spans if s is not root[0]))

    def test_counter_work_is_not_program_time(self):
        clock, tr = self.clock, self.tracer

        def counter(tracer, args, out):
            clock.advance(3.0)
            tracer.counts["calls"] += 1
            tracer.counts["n"] += args["n"]

        def leaf(n):
            clock.advance(1.0)
            return n

        leaf_t = tr.wrap(leaf, "m.leaf", "leaf_s", counter)
        outer = tr.wrap(lambda: leaf_t(n=7), "m.outer", "outer_s")
        outer()
        selfs = tracing.self_times(tr.spans)
        self.assertEqual(selfs["leaf_s"], 1.0)
        self.assertEqual(selfs["outer_s"], 0.0)
        self.assertEqual(tr.counts["n"], 7)

    def test_suspended_calls_leave_no_span(self):
        tr = self.tracer
        inner = tr.wrap(lambda: None, "m.inner", "inner_s")
        tr.wrap(lambda: None, "m.leaf", "leaf_s", lambda t, a, o: inner())()
        self.assertEqual([s[2] for s in tr.spans], ["m.leaf"])

    def test_layer_metrics_add_setup_and_mean_round(self):
        spans = [(0, None, "geometry.build_polar_grid", "geometry.grid_build_s", 0, 2, 2.0)]
        rounds = [(1, None, "contact.compute_contact_set", "contact.scan_s", 0, 4, 4.0),
                  (2, None, "contact.compute_contact_set", "contact.scan_s", 4, 8, 4.0)]
        m = tracing.layer_metrics((spans, {"geometry.grid_nodes": 100}),
                                  (rounds, {"contact.scan_pairs": 80,
                                            "contact.scan_calls": 2}), 2)
        self.assertEqual(m["geometry.grid_build_s"][0], 2.0)
        self.assertEqual(m["contact.scan_s"][0], 4.0)
        self.assertEqual(m["contact.scan_pairs_per_s"][0], 10.0)
        self.assertEqual(m["geometry.grid_nodes"][0], 100)
        self.assertEqual(m["jacobi.rk4_steps_per_s"][0], 0.0)

    def test_every_group_is_reported(self):
        groups = {g for gs in tracing.GROUPS.values() for g in gs.values()}
        m = tracing.layer_metrics(([], {}), ([], {}), 1)
        self.assertLessEqual(groups, set(m))


class RoundTests(unittest.TestCase):
    def test_whole_rounds(self):
        rounds = harness.run_rounds([lambda: 1, lambda: 2, lambda: 3], 4)
        self.assertEqual(len(rounds), 4)
        self.assertTrue(all(rd.results == [1, 2, 3] for rd in rounds))

    def test_round_count_depends_on_run_length_alone(self):
        self.assertEqual(harness.round_count(30, 10.0), 3)
        self.assertEqual(harness.round_count(30, 6.0), 5)
        self.assertEqual(harness.round_count(1, 10.0), 1)

    def test_medians_over_rounds(self):
        rounds = [harness.Round(0.0, 1.0, [0.1, 0.5, 0.2]),
                  harness.Round(1.0, 3.0, [0.3, 0.4, 0.2]),
                  harness.Round(3.0, 6.0, [0.2, 0.9, 0.2])]
        self.assertEqual(harness.median_verdict_times(rounds), [0.2, 0.5, 0.2])
        m = harness.time_metrics(rounds)
        self.assertEqual(m["wall_s"][0], 2.0)
        self.assertEqual(m["verdict_p50_s"][0], 0.2)
        self.assertEqual(m["verdict_tail_s"][0], 0.2)   # no tail below 40 verdicts

    def test_tail_of_verdict_medians(self):
        rounds = [harness.Round(0.0, 1.0, [float(t + k) for t in range(100)]) for k in range(3)]
        rounds[0].times[0] = 1000.0       # one slow moment in one round moves no verdict
        self.assertEqual(harness.time_metrics(rounds)["verdict_tail_s"][0], 90.0)

    def test_raising_verdict_is_recorded(self):
        rd = harness.run_rounds([lambda: 1 / 0], 1)[0]
        self.assertIsInstance(rd.results[0], harness.VerdictError)

    def test_failure_count(self):
        class Workload:
            @staticmethod
            def check(inputs, results):
                return [None, None, "disagrees", None]

            passed = staticmethod(lambda r: r != "fail")
            key = staticmethod(lambda r: r)

        r1 = harness.Round(0.0, 1.0, [0.1] * 4, ["a", "fail", "c", "d"])
        r2 = harness.Round(1.0, 2.0, [0.1] * 4, ["a", "fail", "c", "changed"])
        failed, lines = harness.count_failed(Workload, None, [r1, r2])
        # verdict 1 fails twice, verdict 2 twice (its check), verdict 3 once
        self.assertEqual(failed, 5)
        self.assertEqual(len(lines), 3)


class FakeGauge:
    """Readings from a list; the reference time is 1."""
    reference = 1.0
    scale = gauge.Gauge.scale

    def __init__(self, readings):
        self.readings = iter(readings)

    def read(self):
        return next(self.readings)


class GaugeTests(unittest.TestCase):
    def test_scale_is_reference_over_mean_reading(self):
        g = FakeGauge([])
        self.assertEqual(g.scale([0.5, 1.5]), 1.0)
        self.assertEqual(g.scale([0.25]), 4.0)
        self.assertEqual(g.scale([]), 1.0)

    def test_verdicts_scaled_by_the_points_around_their_block(self):
        # points before verdict 0, after verdict 1 (every 2) and after the last
        g = FakeGauge([0.5, 1.5, 0.25, 0.25])
        rd = harness.run_rounds([lambda: 1, lambda: 2, lambda: 3], 1, g, every=2)[0]
        self.assertEqual(rd.gauge, [0.5, 1.5, 0.25])
        self.assertEqual(rd.scales, [1.0, 1.0, 1.0 / 0.875])

    def test_scaled_wall_uses_the_time_weighted_scale(self):
        rd = harness.Round(0.0, 2.5, [1.0, 1.0], [1, 2], gauge=[0.5], scales=[2.0, 1.0])
        self.assertEqual(rd.wall, 2.0)
        self.assertEqual(rd.scaled_times, [2.0, 1.0])
        self.assertEqual(rd.scaled_wall, 3.0)
        self.assertEqual(harness.time_metrics([rd])["wall_s"][0], 3.0)

    def test_no_gauge_means_scale_one(self):
        rd = harness.run_rounds([lambda: 1], 1)[0]
        self.assertEqual(rd.scales, [])
        self.assertEqual(rd.scaled_wall, rd.wall)


if __name__ == "__main__":
    unittest.main()
