"""Tests of the comparator's decision rule (run: python3 -m unittest
test_compare, from this directory, or `run.py --self-test`)."""

import json
import pathlib
import tempfile
import unittest

import compare


class DecideTest(unittest.TestCase):
    PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_identical_sets_are_unchanged(self):
        verdict, _ = compare.decide(self.PARENT, list(self.PARENT), "lower",
                                    0.1)
        self.assertEqual(verdict, "unchanged")

    def test_clear_gain_is_improved(self):
        change = [v * 0.8 for v in self.PARENT]
        verdict, d = compare.decide(self.PARENT, change, "lower", 0.1)
        self.assertEqual(verdict, "improved")
        self.assertEqual(d["wins"], 10)

    def test_gain_needs_nine_of_ten_pairs(self):
        change = [v * 0.8 for v in self.PARENT]
        change[0] = change[1] = 20.0  # two pairs lost: 8 of 10 wins
        verdict, _ = compare.decide(self.PARENT, change, "lower", 0.5)
        self.assertEqual(verdict, "unchanged")

    def test_gain_within_parent_spread_is_not_claimed(self):
        change = [v - 0.05 for v in self.PARENT]  # wins all, but tiny
        verdict, _ = compare.decide(self.PARENT, change, "lower", 0.1)
        self.assertEqual(verdict, "unchanged")

    def test_worse_by_more_than_bound_is_regressed(self):
        change = [v * 1.2 for v in self.PARENT]
        verdict, d = compare.decide(self.PARENT, change, "lower", 0.1)
        self.assertEqual(verdict, "regressed")
        self.assertAlmostEqual(d["worse_by"], 0.2, places=6)

    def test_worse_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.PARENT]
        verdict, _ = compare.decide(self.PARENT, change, "lower", 0.1)
        self.assertEqual(verdict, "unchanged")

    def test_higher_is_better_direction(self):
        verdict, _ = compare.decide(self.PARENT, [v * 0.8 for v in
                                                  self.PARENT], "higher", 0.1)
        self.assertEqual(verdict, "regressed")
        verdict, _ = compare.decide(self.PARENT, [v * 1.3 for v in
                                                  self.PARENT], "higher", 0.1)
        self.assertEqual(verdict, "improved")

    def test_noisy_parent_is_unresolved(self):
        noisy = [5, 15, 8, 12, 6, 14, 7, 13, 9, 11]
        change = [v * 1.05 for v in noisy]
        verdict, d = compare.decide(noisy, change, "lower", 0.1)
        self.assertGreater(d["parent_spread"], 0.1)
        self.assertEqual(verdict, "unresolved")

    def test_noisy_parent_but_every_change_run_better(self):
        noisy = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19.0]
        # Better than every parent run, but by less than the parent's
        # quartile spread (5.5): resolved, yet no gain to claim.
        verdict, _ = compare.decide(noisy, [9.0] * 10, "lower", 0.1)
        self.assertEqual(verdict, "unchanged")
        verdict, _ = compare.decide(noisy, [8.0] * 10, "lower", 0.1)
        self.assertEqual(verdict, "improved")


def write_run(directory, name, workload, seed, value, correct=True,
              failed=0):
    meta = {"workload": workload, "seed": seed, "trace": False}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {"latency_ms": {"value": value, "unit": "ms"}}}
    (directory / name).write_text("header\nmeta %s\n%s\n" %
                                  (json.dumps(meta), json.dumps(result)))


class MainTest(unittest.TestCase):
    def run_main(self, parent_values, change_values, correct=True,
                 change_failed=0):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            bench = tmp / "BENCHMARK.json"
            bench.write_text(json.dumps({"end_to_end": [
                {"name": "latency_ms", "unit": "ms", "better": "lower",
                 "bound": 0.1}]}))
            for side, values in (("parent", parent_values),
                                 ("change", change_values)):
                (tmp / side).mkdir()
                for seed, v in enumerate(values):
                    write_run(tmp / side, "w-%d.out" % seed, "w", seed, v,
                              correct or side == "parent",
                              change_failed if side == "change" else 0)
            return compare.main([str(tmp / "parent"), str(tmp / "change"),
                                 "--bench", str(bench)])

    def test_exit_status(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        self.assertEqual(self.run_main(base, base), 0)
        self.assertEqual(self.run_main(base, [v * 1.5 for v in base]), 1)
        self.assertEqual(self.run_main(base, base, correct=False), 1)

    def test_more_failed_requests_regress(self):
        base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
        # Failures that leave every latency median where it was.
        self.assertEqual(self.run_main(base, base, change_failed=1), 1)
        self.assertEqual(self.run_main(base, [v * 0.5 for v in base],
                                       change_failed=1), 1)

    def test_failed_share_sums_over_runs(self):
        entries = [(1, {"attempted": 10, "failed": 0}),
                   (2, {"attempted": 30, "failed": 2})]
        self.assertAlmostEqual(compare.failed_share(entries), 0.05)

    def test_pairs_by_seed(self):
        parent = [(1, "a"), (2, "b")]
        change = [(1, "x"), (2, "y")]
        self.assertEqual(compare.pairs(parent, change),
                         [("a", "x"), ("b", "y")])


if __name__ == "__main__":
    unittest.main()
