"""Tests for the benchmark's own arithmetic (perfbench/stats.py) and its
correctness gate (run.gate).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import run
import stats


STAT_LINE = ("4242 (snowkit server) S 1 4242 4242 0 -1 4194560 2000 0 0 0 "
             "137 42 0 0 20 0 5 0 100 1000000 500 18446744073709551615")

STATUS = """Name:\tsnowkit_server
State:\tS (sleeping)
Threads:\t5
voluntary_ctxt_switches:\t120
nonvoluntary_ctxt_switches:\t7
"""

PROC_STAT = """cpu  100 5 50 800 10 1 2 32 0 0
cpu0 25 1 12 200 3 0 1 8 0 0
intr 12345
"""


class Percentiles(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 4.0)
        self.assertAlmostEqual(stats.percentile(xs, 50), 2.5)
        self.assertAlmostEqual(stats.percentile(xs, 99), 3.97)

    def test_order_of_input_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.5], 99), 7.5)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_summary_carries_its_sample_count(self):
        s = stats.summarize(list(range(1, 101)))
        self.assertEqual(s["n"], 100)
        self.assertAlmostEqual(s["p50"], 50.5)
        self.assertAlmostEqual(s["p99"], 99.01)
        self.assertEqual(s["max"], 100)
        self.assertEqual(stats.summarize([])["n"], 0)


class FailedFrac(unittest.TestCase):
    def test_share_of_attempts(self):
        self.assertEqual(stats.failed_frac(200, 0), 0.0)
        self.assertEqual(stats.failed_frac(200, 50), 0.25)

    def test_undrained_transactions_count_as_failed(self):
        completed, undrained, guard_trips = 97, 2, 1
        attempted = completed + undrained + guard_trips
        self.assertAlmostEqual(stats.failed_frac(attempted, undrained + guard_trips), 0.03)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_frac(10, 11)


class ProcParsing(unittest.TestCase):
    def test_pid_stat_skips_a_comm_with_spaces(self):
        self.assertEqual(stats.proc_pid_cpu(STAT_LINE), (137, 42))

    def test_pid_stat_comm_with_parenthesis(self):
        line = STAT_LINE.replace("(snowkit server)", "(a) b)")
        self.assertEqual(stats.proc_pid_cpu(line), (137, 42))

    def test_ctx_switches_sum_both_kinds(self):
        self.assertEqual(stats.proc_pid_ctx_switches(STATUS), 127)

    def test_host_stat_aggregate_line(self):
        cpu = stats.proc_stat_cpu(PROC_STAT)
        self.assertEqual(cpu["user"], 100)
        self.assertEqual(cpu["steal"], 32)

    def test_host_shares(self):
        before = stats.proc_stat_cpu(PROC_STAT)
        after = dict(before, user=before["user"] + 30, idle=before["idle"] + 50,
                     steal=before["steal"] + 20)
        steal, busy = stats.host_shares(before, after)
        self.assertAlmostEqual(steal, 0.2)
        self.assertAlmostEqual(busy, 0.3)

    def test_host_shares_without_elapsed_ticks(self):
        cpu = stats.proc_stat_cpu(PROC_STAT)
        self.assertEqual(stats.host_shares(cpu, cpu), (0.0, 0.0))


class Calm(unittest.TestCase):
    def test_sets_aside_items_above_the_limit(self):
        self.assertEqual(stats.calm([0.004, 0.08, 0.019, 0.021], 0.02), [0, 2])

    def test_keeps_everything_when_nothing_is_calm(self):
        self.assertEqual(stats.calm([0.05, 0.09], 0.02), [0, 1])


class Reconciliation(unittest.TestCase):
    def test_layers_scale_with_rounds(self):
        layers = stats.read_layers(10, 5, 2.0, 40, 3, 30)
        self.assertEqual(layers["request_transit"], 80)
        self.assertEqual(layers["server_handle"], 6)
        self.assertEqual(sum(layers.values()), 10 + 5 + 80 + 6 + 60)

    def test_unexplained_share(self):
        layers = stats.read_layers(10, 10, 1.0, 30, 20, 10)  # sums to 80
        self.assertAlmostEqual(stats.unexplained_share(layers, 100), 0.2)
        self.assertAlmostEqual(stats.unexplained_share(layers, 80), 0.0)
        self.assertLess(stats.unexplained_share(layers, 50), 0)

    def test_needs_a_positive_median(self):
        with self.assertRaises(ValueError):
            stats.unexplained_share({"x": 1}, 0)


def raw_run(unexpected_seeds=None, incomplete=0):
    """A minimal perfbench_client result: one clean fleet and one fuzz tally
    per protocol, with the given violating seeds per protocol."""
    unexpected_seeds = unexpected_seeds or {}
    fleet = {"protocol": "algo-b", "traced": False, "history_txns": 100,
             "history_incomplete": incomplete, "attempted": 90,
             "completed": 90 - incomplete, "daemons_clean": True,
             "tag_order_ok": True, "tag_order_msg": ""}
    fuzz = {}
    for p in run.TRIO:
        seeds = unexpected_seeds.get(p, [])
        fuzz[p] = {"cases": 1000, "guard_trips": 0, "nondeterministic": 0,
                   "unexpected": len(seeds), "unexpected_seeds": seeds}
    return {"fleets": [fleet], "setup_probes_clean": True, "fuzz": fuzz}


class Gate(unittest.TestCase):
    def test_clean_run_passes_and_counts_attempts(self):
        problems, attempted, failed = run.gate(raw_run())
        self.assertEqual(problems, [])
        self.assertEqual((attempted, failed), (100 + 3 * 1000, 0))

    def test_known_violations_pass(self):
        problems, _, _ = run.gate(raw_run({"algo-c": [1854, 3949, 19484]}))
        self.assertEqual(problems, [])

    def test_any_other_violation_fails(self):
        for seeds in ({"algo-c": [1854, 7]}, {"algo-b": [1854]}, {"adaptive": [3949]}):
            problems, _, _ = run.gate(raw_run(seeds))
            self.assertEqual(len(problems), 1, seeds)

    def test_undrained_transactions_fail(self):
        problems, attempted, failed = run.gate(raw_run(incomplete=4))
        self.assertEqual(len(problems), 1)
        self.assertEqual(failed, 4)
        self.assertAlmostEqual(stats.failed_frac(attempted, failed), 4 / 3100)


if __name__ == "__main__":
    unittest.main()
