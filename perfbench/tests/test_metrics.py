"""Tests for the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import metrics as m  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_picks_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        p, value, beyond = m.tail_percentile(samples)
        self.assertEqual((p, value, beyond), (90.0, 90, 10))

    def test_exactly_ten_beyond_qualifies(self):
        self.assertEqual(m.tail_percentile(list(range(20))), (50.0, 9, 10))
        self.assertEqual(m.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(m.tail_percentile(list(range(10000))), (99.9, 9989, 10))

    def test_nine_beyond_does_not(self):
        self.assertIsNone(m.tail_percentile(list(range(19))))
        self.assertEqual(m.tail_percentile(list(range(999)))[0], 95.0)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
        self.assertEqual(m.tail_percentile(samples), m.tail_percentile(sorted(samples)))
        self.assertEqual(m.tail_percentile(samples), (75.0, 4.0, 10))


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(m.median([3, 1, 2]), 2)
        self.assertEqual(m.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            m.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(m.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(m.quartiles(values), (2.75, 5.5, 8.25))

    def test_relative_spread(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(m.relative_spread(values), (8.25 - 2.75) / 5.5)
        self.assertEqual(m.relative_spread([2.0] * 10), 0.0)


class Scaling(unittest.TestCase):
    def test_scaling_eff_nt(self):
        # 4 threads at 8 trials/s against 2 trials/s at one thread: perfect.
        self.assertEqual(m.scaling_efficiency(8.0, 2.0, 4), 1.0)
        self.assertEqual(m.scaling_efficiency(6.0, 2.0, 4), 0.75)

    def test_dist_scaling_eff(self):
        # Two dist workers reaching 3 trials/s against 2 trials/s in-process.
        self.assertEqual(m.scaling_efficiency(3.0, 2.0, 2), 0.75)

    def test_idle_share(self):
        self.assertEqual(m.idle_share(2.0, 6.0, 4), 0.25)
        self.assertEqual(m.idle_share(1.0, 4.0, 4), 0.0)

    def test_latencies_from_completions(self):
        self.assertEqual(m.latencies_from_completions([0.5, 1.25, 2.0]), [0.5, 0.75, 0.75])


def span(i, parent, start, end, name="a.b"):
    return {"id": i, "parent": parent, "start": start, "end": end, "name": name}


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(m.self_times([span(0, -1, 1.0, 3.5)]), {0: 2.5})

    def test_nested_children(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 1, 2.0, 3.0)]
        selfs = m.self_times(spans)
        self.assertEqual(selfs, {0: 7.0, 1: 2.0, 2: 1.0})
        # Self times partition the root interval.
        self.assertEqual(sum(selfs.values()), 10.0)

    def test_overlapping_children_count_once(self):
        # Parallel trials: [1,4] and [3,6] cover [1,6].
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0)]
        self.assertEqual(m.self_times(spans)[0], 5.0)
        identical = [span(0, -1, 0.0, 10.0)] + [span(i, 0, 2.0, 8.0) for i in (1, 2, 3)]
        self.assertEqual(m.self_times(identical)[0], 4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 9.0, 12.0), span(2, 0, -3.0, -1.0)]
        self.assertEqual(m.self_times(spans)[0], 9.0)

    def test_by_layer(self):
        spans = [span(0, -1, 0.0, 10.0, "runtime.run_supervised"),
                 span(1, 0, 1.0, 4.0, "faults.run_trial"),
                 span(2, 0, 3.0, 6.0, "faults.run_trial")]
        self.assertEqual(m.self_time_by_layer(spans), {"runtime": 5.0, "faults": 6.0})

    def test_union_length(self):
        self.assertEqual(m.union_length([(0, 1), (2, 3), (2.5, 4), (5, 5)]), 3.0)
        self.assertEqual(m.union_length([]), 0.0)


if __name__ == "__main__":
    unittest.main()
