#!/usr/bin/env python3
"""Tests for tools/bench_check.py, focused on the scaling gate.

Written against stdlib unittest so they run on the bare CI image
(pytest also discovers and runs them unchanged):

    python3 -m unittest discover -s tools -p "*_test.py"
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_check  # noqa: E402


def doc(results, scaling_valid=None, bench="concurrent_cracking"):
    out = {"bench": bench, "context": {}, "results": results}
    if scaling_valid is not None:
        out["scaling_valid"] = scaling_valid
    return out


def qps(name, value):
    return {"name": name, "value": value, "unit": "qps"}


class CheckScalingTest(unittest.TestCase):
    def test_good_scaling_passes(self):
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0),
                 qps("warm_batch_4t_qps", 3100.0)], scaling_valid=True))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 1)
        self.assertEqual(skipped, 0)

    def test_flat_scaling_fails(self):
        failures, checked, _ = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0),
                 qps("warm_batch_4t_qps", 1100.0)], scaling_valid=True))
        self.assertEqual(len(failures), 1)
        self.assertEqual(checked, 1)
        self.assertIn("measured 1.100x", failures[0])
        self.assertIn("threshold >= 2.000x", failures[0])

    def test_exactly_at_threshold_passes(self):
        failures, _, _ = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0),
                 qps("warm_batch_4t_qps", 2000.0)], scaling_valid=True))
        self.assertEqual(failures, [])

    def test_scaling_invalid_is_skipped_not_failed(self):
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0),
                 qps("warm_batch_4t_qps", 1000.0)], scaling_valid=False))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 1)

    def test_missing_flag_treated_as_invalid(self):
        # Old result documents predate the flag; they must never gate.
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0),
                 qps("warm_batch_4t_qps", 1000.0)]))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 1)

    def test_bench_without_thread_ladder_has_nothing_to_gate(self):
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("lookup_qps", 5000.0)], scaling_valid=True))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 0)

    def test_capped_ladder_without_4t_rung_has_nothing_to_gate(self):
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 1000.0)], scaling_valid=True))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 0)

    def test_zero_single_thread_qps_is_skipped(self):
        failures, checked, skipped = bench_check.check_scaling(
            doc([qps("warm_batch_1t_qps", 0.0),
                 qps("warm_batch_4t_qps", 1000.0)], scaling_valid=True))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 1)


class CheckAbsoluteTest(unittest.TestCase):
    """The per-bench ABSOLUTE_MIN floors (server cache sanity)."""

    def rec(self, name, value, unit):
        return {"name": name, "value": value, "unit": unit}

    def server_doc(self, hit_ratio, warm_over_cold):
        return doc([self.rec("warm_cache_hit_ratio", hit_ratio, "ratio"),
                    self.rec("warm_over_cold", warm_over_cold, "x")],
                   bench="server_throughput")

    def test_healthy_server_doc_passes(self):
        failures, checked = bench_check.check_absolute(
            self.server_doc(1.0, 120.0))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 2)

    def test_low_hit_ratio_fails(self):
        failures, checked = bench_check.check_absolute(
            self.server_doc(0.4, 120.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("warm_cache_hit_ratio", failures[0])
        self.assertEqual(checked, 2)

    def test_slow_cache_path_fails(self):
        failures, _ = bench_check.check_absolute(self.server_doc(1.0, 2.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("warm_over_cold", failures[0])

    def test_other_bench_is_not_gated(self):
        # Same record names in a different bench's document: no gate.
        other = doc([self.rec("warm_cache_hit_ratio", 0.0, "ratio")])
        failures, checked = bench_check.check_absolute(other)
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)

    def test_missing_records_are_not_failures(self):
        failures, checked = bench_check.check_absolute(
            doc([], bench="server_throughput"))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)


class CheckAbsoluteMaxTest(unittest.TestCase):
    """The per-bench ABSOLUTE_MAX ceilings (resilience invariants)."""

    def rec(self, name, value, unit):
        return {"name": name, "value": value, "unit": unit}

    def server_doc(self, expired, miss_ratio):
        return doc(
            [self.rec("warm_expired_in_queue", expired, "count"),
             self.rec("loaded_deadline_miss_ratio", miss_ratio, "ratio")],
            bench="server_throughput")

    def test_healthy_resilience_doc_passes(self):
        failures, checked = bench_check.check_absolute(
            self.server_doc(0.0, 0.0))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 2)

    def test_warm_queue_expiry_fails(self):
        failures, _ = bench_check.check_absolute(self.server_doc(1.0, 0.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("warm_expired_in_queue", failures[0])

    def test_high_deadline_miss_ratio_fails(self):
        failures, _ = bench_check.check_absolute(self.server_doc(0.0, 0.5))
        self.assertEqual(len(failures), 1)
        self.assertIn("loaded_deadline_miss_ratio", failures[0])

    def test_miss_ratio_at_threshold_passes(self):
        failures, _ = bench_check.check_absolute(self.server_doc(0.0, 0.2))
        self.assertEqual(failures, [])

    def test_other_bench_is_not_gated(self):
        other = doc([self.rec("warm_expired_in_queue", 99.0, "count")])
        failures, checked = bench_check.check_absolute(other)
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)


class FailLineFormatTest(unittest.TestCase):
    """Every gate failure is one greppable line carrying the metric
    name, the measured value, and the threshold (with its direction)."""

    FAILING_DOCS = [
        # (doc, check) pairs that must each yield exactly one failure.
        (doc([{"name": "warm_cache_hit_ratio", "value": 0.5,
               "unit": "ratio"}], bench="server_throughput"),
         bench_check.check_absolute),
        (doc([{"name": "net_error_ratio", "value": 0.25,
               "unit": "ratio"}], bench="net_throughput"),
         bench_check.check_absolute),
    ]

    def test_fail_line_carries_name_value_and_threshold(self):
        line = bench_check.fail_line("net_warm_over_cold", 1.234, ">=",
                                     2.0, "x", context="absolute floor")
        self.assertEqual(
            line,
            "net_warm_over_cold: measured 1.234x, threshold >= 2.000x "
            "(absolute floor)")

    def test_fail_line_is_single_line_even_with_hostile_context(self):
        line = bench_check.fail_line("m", 1.0, "<=", 2.0, "us",
                                     context="a\nb")
        self.assertNotIn("\n", line)

    def test_every_gate_failure_matches_the_one_line_format(self):
        for failing_doc, check in self.FAILING_DOCS:
            failures, _ = check(failing_doc)
            self.assertEqual(len(failures), 1)
            line = failures[0]
            name = failing_doc["results"][0]["name"]
            self.assertNotIn("\n", line)
            self.assertIn(f"{name}: ", line)
            self.assertIn("measured ", line)
            self.assertRegex(line, r"threshold (<=|>=) ")


class NetGateTest(unittest.TestCase):
    """The net_throughput absolute gates (satellite of DESIGN.md §6i)."""

    def rec(self, name, value, unit):
        return {"name": name, "value": value, "unit": unit}

    def net_doc(self, warm_over_cold, error_ratio, hit_ratio=1.0):
        return doc([self.rec("net_warm_over_cold", warm_over_cold, "x"),
                    self.rec("net_error_ratio", error_ratio, "ratio"),
                    self.rec("net_warm_cache_hit_ratio", hit_ratio,
                             "ratio")],
                   bench="net_throughput")

    def test_healthy_net_doc_passes(self):
        failures, checked = bench_check.check_absolute(
            self.net_doc(60.0, 0.0))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 3)

    def test_compressed_warm_over_cold_fails(self):
        failures, _ = bench_check.check_absolute(self.net_doc(1.2, 0.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("net_warm_over_cold", failures[0])

    def test_any_dropped_call_fails(self):
        failures, _ = bench_check.check_absolute(self.net_doc(60.0, 0.001))
        self.assertEqual(len(failures), 1)
        self.assertIn("net_error_ratio", failures[0])

    def test_cold_socket_cache_path_fails(self):
        failures, _ = bench_check.check_absolute(
            self.net_doc(60.0, 0.0, hit_ratio=0.3))
        self.assertEqual(len(failures), 1)
        self.assertIn("net_warm_cache_hit_ratio", failures[0])


class SpeedupGateTest(unittest.TestCase):
    """The SPEEDUP_MIN floors (SIMD kernel dispatch engagement)."""

    def rec(self, value):
        return {"name": "dispatched_over_portable", "value": value,
                "unit": "x"}

    def test_healthy_speedup_passes(self):
        failures, checked, skipped = bench_check.check_speedup(
            doc([self.rec(1.4)], scaling_valid=True,
                bench="micro_distance_kernels"))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 1)
        self.assertEqual(skipped, 0)

    def test_disengaged_fast_path_fails(self):
        failures, checked, _ = bench_check.check_speedup(
            doc([self.rec(0.97)], scaling_valid=True,
                bench="micro_distance_kernels"))
        self.assertEqual(len(failures), 1)
        self.assertEqual(checked, 1)
        self.assertIn("dispatched_over_portable", failures[0])
        self.assertIn("measured 0.970x", failures[0])
        self.assertIn("threshold >= 1.050x", failures[0])

    def test_exactly_at_floor_passes(self):
        failures, _, _ = bench_check.check_speedup(
            doc([self.rec(1.05)], scaling_valid=True,
                bench="micro_distance_kernels"))
        self.assertEqual(failures, [])

    def test_scaling_invalid_is_skipped_not_failed(self):
        failures, checked, skipped = bench_check.check_speedup(
            doc([self.rec(0.5)], scaling_valid=False,
                bench="micro_distance_kernels"))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 1)

    def test_missing_flag_treated_as_invalid(self):
        failures, checked, skipped = bench_check.check_speedup(
            doc([self.rec(0.5)], bench="micro_distance_kernels"))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 1)

    def test_other_bench_is_not_gated(self):
        failures, checked, skipped = bench_check.check_speedup(
            doc([self.rec(0.5)], scaling_valid=True))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 0)

    def test_missing_record_is_not_a_failure(self):
        failures, checked, skipped = bench_check.check_speedup(
            doc([], scaling_valid=True, bench="micro_distance_kernels"))
        self.assertEqual(failures, [])
        self.assertEqual(checked, 0)
        self.assertEqual(skipped, 0)


class CheckFileTest(unittest.TestCase):
    """End-to-end over real files: baseline ratio gates + scaling gate."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def test_scaling_failure_surfaces_through_check_file(self):
        results = [qps("warm_batch_1t_qps", 1000.0),
                   qps("warm_batch_4t_qps", 1200.0)]
        new = self.write("BENCH_new.json", doc(results, scaling_valid=True))
        base = self.write("BENCH_base.json", doc(results))
        failures, checked, _ = bench_check.check_file(new, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("warm_4t_over_1t_scaling", failures[0])
        # Two qps ratio comparisons + one scaling gate.
        self.assertEqual(checked, 3)

    def test_throughput_collapse_fails_ratio_gate(self):
        base = self.write(
            "BENCH_base.json", doc([qps("warm_batch_1t_qps", 9000.0)]))
        new = self.write(
            "BENCH_new.json",
            doc([qps("warm_batch_1t_qps", 100.0)], scaling_valid=False))
        failures, _, _ = bench_check.check_file(new, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("warm_batch_1t_qps", failures[0])

    def test_healthy_run_passes(self):
        results = [qps("warm_batch_1t_qps", 1000.0),
                   qps("warm_batch_4t_qps", 3500.0)]
        new = self.write("BENCH_new.json", doc(results, scaling_valid=True))
        base = self.write("BENCH_base.json", doc(results))
        failures, checked, _ = bench_check.check_file(new, base)
        self.assertEqual(failures, [])
        self.assertEqual(checked, 3)

    def test_context_mismatch_is_one_failure_not_n_ratio_failures(self):
        def timed(scale, entities, value):
            payload = doc([{"name": f"kernel_{i}_ms", "value": value,
                            "unit": "ms"} for i in range(8)])
            payload["context"] = {"scale_factor": scale,
                                  "num_entities": entities}
            return payload
        base = self.write("BENCH_base.json", timed(0.1, 10000, 10.0))
        new = self.write("BENCH_new.json", timed(1.0, 100000, 300.0))
        failures, checked, _ = bench_check.check_file(new, base)
        self.assertEqual(len(failures), 1)
        self.assertIn("scale_factor: measured 1.000", failures[0])
        self.assertIn("num_entities 100000 vs baseline 10000", failures[0])
        self.assertEqual(checked, 0)
        # A key missing on one side is a mismatch too.
        bare = doc([{"name": "kernel_0_ms", "value": 10.0, "unit": "ms"}])
        failures, _, _ = bench_check.check_file(
            self.write("BENCH_bare.json", bare), base)
        self.assertEqual(len(failures), 1)
        # The same config compares record by record as before.
        same = self.write("BENCH_same.json", timed(0.1, 10000, 11.0))
        failures, checked, _ = bench_check.check_file(same, base)
        self.assertEqual(failures, [])
        self.assertEqual(checked, 8)


if __name__ == "__main__":
    unittest.main()
