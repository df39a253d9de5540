"""Tests of the benchmark's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import os
import random
import statistics
import tempfile
import unittest

import benchlib as bl


class StatisticsTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_module(self):
        values = [random.Random(7).random() for _ in range(10)]
        self.assertEqual(bl.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_iqr_spread_is_share_of_median(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bl.iqr_spread(values), (q3 - q1) / q2)
        self.assertEqual(bl.iqr_spread([0, 0, 0]), 0.0)

    def test_percentile_needs_ten_samples_beyond_it(self):
        self.assertIsNone(bl.max_supported_percentile(9))
        self.assertAlmostEqual(bl.max_supported_percentile(1000), 99.0)
        values = list(range(1, 1001))
        self.assertEqual(bl.percentile(values, 99), 990)
        self.assertEqual(bl.percentile(values, 50), 500)
        with self.assertRaises(ValueError):
            bl.percentile(values[:999], 99)
        self.assertEqual(bl.percentile(list(range(1, 501)), 98), 490)
        with self.assertRaises(ValueError):
            bl.percentile(list(range(1, 501)), 99)

    def test_failed_requests_count_as_misses(self):
        values = [1.0] * 989 + [math.inf] * 11
        self.assertEqual(bl.percentile(values, 99), math.inf)

    def test_a_failed_request_keeps_p99_computable(self):
        # 1000 requests, one refused: every tail statistic is still taken
        # over 1000 samples, the refused one as +inf.
        rows = [{"ok": 1, "due_ns": 0, "done_ns": 2_000_000,
                 "t_total_ms": 1.5} for _ in range(999)]
        rows.append({"ok": 0, "due_ns": 0, "done_ns": 0, "t_total_ms": 0.0})
        lat = bl.latencies_ms(rows)
        self.assertEqual(len(lat), 1000)
        self.assertEqual(lat[-1], math.inf)
        self.assertEqual(bl.percentile(lat, 99), 2.0)
        compute = bl.ok_or_inf(rows, lambda r: r["t_total_ms"])
        self.assertEqual(bl.percentile(compute, 99), 1.5)


class LadderTest(unittest.TestCase):
    def test_stops_at_first_failing_rung(self):
        calls = []

        def passes(rate):
            calls.append(rate)
            return rate <= 50
        best, tried = bl.ladder_search((25, 50, 100, 200), passes)
        self.assertEqual(best, 50)
        self.assertEqual(calls, [25, 50, 100])
        self.assertEqual(tried, [(25, True), (50, True), (100, False)])

    def test_nothing_passes(self):
        self.assertEqual(bl.ladder_search((25, 50), lambda r: False),
                         (0, [(25, False)]))

    def test_backlog(self):
        self.assertFalse(bl.backlog_grows([1.0] * 100, slack_ms=5))
        self.assertTrue(bl.backlog_grows([float(i) for i in range(100)],
                                         slack_ms=5))


class DigestTest(unittest.TestCase):
    def test_digest_and_check(self):
        with tempfile.TemporaryDirectory() as d:
            a = os.path.join(d, "a.csv")
            b = os.path.join(d, "b.csv")
            with open(a, "w") as f:
                f.write("t,x\n1,2\n")
            with open(b, "w") as f:
                f.write("t,x\n1,3\n")
            da = bl.file_digest(a)
            db = bl.file_digest(b)
            self.assertNotEqual(da, db)
            self.assertEqual(bl.file_digest(a, chunk=3), da)
        ref = {"ks": 10, "state_sha256": da}
        self.assertEqual(bl.check_against(ref, dict(ref)), [])
        self.assertEqual(bl.check_against(ref, {"ks": 10,
                                                "state_sha256": db}),
                         ["state_sha256"])
        self.assertEqual(bl.check_against(ref, {}), ["ks", "state_sha256"])


CATALOG = """# ivt signal catalog v1
message M0 bus=FC id=1 protocol=CAN size=8
  signal a0 start=0 len=8
    value 0 off
  signal a1 start=8 len=8
message M1 bus=K-LIN id=2 protocol=LIN size=8
  signal b0 start=0 len=8
"""


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        names = ["s%d" % i for i in range(36)]
        self.domains = {"FC": names[:20], "DC": names[20:]}
        self.traces = [("J1", 0, 10**9), ("J2", 5, 2 * 10**9)]

    def test_catalog_domains(self):
        self.assertEqual(bl.parse_catalog_domains(CATALOG),
                         {"FC": ["a0", "a1"], "K-LIN": ["b0"]})

    def test_groups_are_seeded_and_sized(self):
        g1 = bl.signal_groups(self.domains, 3, random.Random(5))
        g2 = bl.signal_groups(self.domains, 3, random.Random(5))
        g3 = bl.signal_groups(self.domains, 3, random.Random(6))
        self.assertEqual(g1, g2)
        self.assertNotEqual(g1, g3)
        self.assertEqual([len(s) for _, s in g1], [10, 13, 16, 10, 15, 20])
        for bus, signals in g1:
            self.assertTrue(set(signals) <= set(self.domains[bus]))

    def test_zipf_is_seeded_and_skewed(self):
        a = bl.Zipf(20, 1.0, random.Random(3))
        b = bl.Zipf(20, 1.0, random.Random(3))
        xs = [a.sample() for _ in range(5000)]
        self.assertEqual(xs, [b.sample() for _ in range(5000)])
        self.assertGreater(xs.count(0), xs.count(19) * 5)

    def test_schedule_is_deterministic(self):
        groups = bl.signal_groups(self.domains, 2, random.Random(0))
        s1 = bl.make_schedule(9, 2, self.traces, groups, 30, 200)
        s2 = bl.make_schedule(9, 2, self.traces, groups, 30, 200)
        self.assertEqual(s1, s2)
        self.assertEqual(s1[30]["due_us"], 1000000)
        # Another seed moves the slices, not the (pair, op) sequence.
        s3 = bl.make_schedule(10, 2, self.traces, groups, 30, 200)
        key = [(r["trace"], r["signals"], r["op"]) for r in s1]
        self.assertEqual(key, [(r["trace"], r["signals"], r["op"])
                               for r in s3])
        self.assertNotEqual([r["min_t"] for r in s1],
                            [r["min_t"] for r in s3])
        for r in s1:
            if r["min_t"] is not None:
                lo, hi = {"J1": (0, 10**9), "J2": (5, 2 * 10**9)}[r["trace"]]
                self.assertTrue(lo <= r["min_t"] < r["max_t"] <= hi)
            self.assertEqual(len(bl.schedule_line(r).split("\t")), 8)

    def test_sample_indices(self):
        self.assertEqual(bl.sample_indices(100, 5, 1),
                         bl.sample_indices(100, 5, 1))
        self.assertEqual(bl.sample_indices(3, 5, 1), [0, 1, 2])


if __name__ == "__main__":
    unittest.main()
