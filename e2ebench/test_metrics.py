"""Tests of the benchmark's own code: run with
python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import math
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))

SERVE_CFG = {"model": "mnist", "mix": {"single": 3, "batch": 1, "sharded": 1}, "batch": 4,
             "rate": 2.5, "jitter": 0.5, "connections": 4}


class PercentileRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(10000), 99.9)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(200), 95.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(99), 85.0)
        self.assertEqual(metrics.tail_percentile(67), 85.0)
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertIsNone(metrics.tail_percentile(19))

    def test_interpolated_percentile(self):
        self.assertEqual(metrics.percentile([5, 1, 3, 2, 4], 50), 3)
        self.assertAlmostEqual(metrics.percentile([1, 2, 3, 4], 90), 3.7)
        self.assertEqual(metrics.percentile([7], 90), 7)
        self.assertEqual(metrics.percentile(list(range(101)), 90), 90)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = metrics.make_schedule(7, 20, SERVE_CFG)
        self.assertEqual(a, metrics.make_schedule(7, 20, SERVE_CFG))
        self.assertNotEqual(a["requests"], metrics.make_schedule(8, 20, SERVE_CFG)["requests"])

    def test_open_loop_arrivals_at_the_configured_rate(self):
        s = metrics.make_schedule(3, 40, SERVE_CFG)
        times = [r["t"] for r in s["requests"]]
        self.assertEqual(times, sorted(times))
        self.assertTrue(all(0 <= t < 40 for t in times))
        gaps = [b - a for a, b in zip(times, times[1:])]
        self.assertTrue(all(0.5 / 2.5 - 1e-12 <= g <= 1.5 / 2.5 + 1e-12 for g in gaps))
        self.assertAlmostEqual(len(times) / 40, 2.5, delta=0.25)

    def test_fixed_mix_and_inputs(self):
        s = metrics.make_schedule(5, 40, SERVE_CFG)
        kinds = [r["kind"] for r in s["requests"]]
        n = len(kinds)
        self.assertAlmostEqual(kinds.count("single"), 0.6 * n, delta=1)
        self.assertAlmostEqual(kinds.count("batch"), 0.2 * n, delta=1)
        self.assertAlmostEqual(kinds.count("sharded"), 0.2 * n, delta=1)
        for r in s["requests"] + s["warmup"]:
            self.assertEqual(len(r["seeds"]), 4 if r["kind"] == "batch" else 1)
        self.assertEqual([r["kind"] for r in s["warmup"]], ["single", "batch", "sharded"])
        seeds = [x for r in s["requests"] for x in r["seeds"]]
        self.assertEqual(len(seeds), len(set(seeds)))


class LatencyAccountingTest(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send(self):
        # The generator sent 0.3 s late (every connection was busy); that
        # wait belongs to the request's latency and shows as send lag.
        t = metrics.request_timing({"t_sched": 10.0, "t_send": 10.3, "t_done": 10.8})
        self.assertAlmostEqual(t["latency_s"], 0.8)
        self.assertAlmostEqual(t["send_lag_s"], 0.3)
        self.assertAlmostEqual(t["in_flight_s"], 0.5)

    def test_a_stall_is_charged_to_every_request_behind_it(self):
        # One connection, requests due every 0.1 s, the first takes 1 s: the
        # later ones leave late, and their latency includes the stall.
        ops, free = [], 0.0
        for i in range(5):
            sched = 0.1 * i
            send = max(sched, free)
            done = send + (1.0 if i == 0 else 0.05)
            free = done
            ops.append({"t_sched": sched, "t_send": send, "t_done": done})
        lat = [metrics.request_timing(op)["latency_s"] for op in ops]
        self.assertAlmostEqual(lat[1], 1.0 - 0.1 + 0.05)
        # Each later request waited ~0.8 s or more although it proved in 0.05 s.
        self.assertTrue(all(x >= 0.8 for x in lat))
        in_flight = [metrics.request_timing(op)["in_flight_s"] for op in ops[1:]]
        self.assertTrue(all(abs(x - 0.05) < 1e-9 for x in in_flight))

    def test_early_send_is_not_negative_lag(self):
        t = metrics.request_timing({"t_sched": 1.0, "t_send": 0.999, "t_done": 1.5})
        self.assertEqual(t["send_lag_s"], 0.0)


def span(i, parent, name, start, end, op=0):
    return {"id": i, "parent": parent, "name": name, "op": op, "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_duration_minus_children(self):
        spans = [span(0, -1, "zkml.cold", 0, 10), span(1, 0, "plonk.keygen", 1, 4),
                 span(2, 0, "plonk.prove", 5, 9), span(3, 2, "prover.quotient", 5, 7)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[0], 3)
        self.assertAlmostEqual(st[1], 3)
        self.assertAlmostEqual(st[2], 2)
        self.assertAlmostEqual(st[3], 2)
        self.assertAlmostEqual(sum(st.values()), 10)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [span(0, -1, "zkml.x", 0, 10), span(1, 0, "pcs.a", 2, 6),
                 span(2, 0, "pcs.b", 4, 8), span(3, 0, "pcs.c", 9, 12)]
        self.assertAlmostEqual(metrics.self_times(spans)[0], 10 - 6 - 1)

    def test_layer_split_sums_to_the_wall_per_operation(self):
        spans = [span(0, -1, "zkml.cold", 0, 10, op=0), span(1, 0, "optimizer.search", 0, 1, op=0),
                 span(2, 0, "plonk.prove", 1, 9, op=0), span(3, 2, "prover.quotient", 2, 5, op=0),
                 span(4, -1, "zkml.cold", 20, 24, op=1), span(5, 4, "pcs.srs", 20, 22, op=1),
                 span(6, -1, "optimizer.sweep", 30, 99, op=-1)]
        split = metrics.layer_split(spans)
        self.assertAlmostEqual(sum(split.values()), (10 + 4) / 2)
        self.assertAlmostEqual(split["plonk"], (5 + 3) / 2)
        self.assertAlmostEqual(split["optimizer"], 0.5)
        self.assertAlmostEqual(metrics.layer_split(spans, units=1)["zkml"], 1 + 2)

    def test_phase_sum_leaves_out_the_glue_between_layer_calls(self):
        # Layer calls cover 7 of the root's 10 s; the 3 s no layer span
        # covers must not count, and auxiliary spans (op -1) stay out.
        spans = [span(0, -1, "zkml.cold", 0, 10), span(1, 0, "plonk.keygen", 1, 4),
                 span(2, 0, "plonk.prove", 5, 9), span(3, 2, "prover.quotient", 5, 7),
                 span(4, -1, "pcs.lagrange_basis", 20, 25, op=-1)]
        self.assertAlmostEqual(metrics.phase_sum(spans), 7)

    def test_serve_spans_leave_the_daemon_overhead_as_root_self_time(self):
        op = {"index": 3, "ok": True, "t_sched": 1.0, "t_send": 1.1,
              "t_done": 2.0, "queue_s": 0.2, "prove_s": 0.5}
        split = metrics.layer_split(metrics.serve_spans([op]))
        self.assertAlmostEqual(split["bench"], 0.1)
        self.assertAlmostEqual(split["zkml"], 0.5)
        self.assertAlmostEqual(split["serve"], 0.2 + 0.2)


class AccountingTest(unittest.TestCase):
    def test_serve_mix_counts_each_daemon_warm_up_but_not_a_replaced_daemon(self):
        raw = {"ops": [{"ok": True, "error": ""}, {"ok": False, "error": "verify: bad"}],
               "setups": [{"layout_flip": True, "ok": False, "error": "verify: other layout"},
                          {"layout_flip": False, "ok": True, "error": ""},
                          {"layout_flip": False, "ok": False, "error": "output differs"}],
               "verify_block_ok": True}
        attempted, failed, messages = metrics.failures(raw, "serve-mix")
        self.assertEqual((attempted, failed), (2 + 2 + 1, 2))
        self.assertEqual(messages, ["verify: bad", "output differs"])
        self.assertEqual(metrics.rejected_daemons(raw), 1)

    def test_a_replaced_daemon_counts_when_it_is_the_last(self):
        flip = {"layout_flip": True, "ok": False, "error": "runs other layouts"}
        raw = {"ops": [{"ok": True, "error": ""}], "setups": [flip, flip], "verify_block_ok": True}
        self.assertEqual(metrics.failures(raw, "serve-mix"), (3, 1, ["runs other layouts"]))

    def test_flips_compare_each_timed_pick_with_the_expected_layout(self):
        raw = {"ops": [{"model": "mnist", "optimizer_pick": "26x9"},
                       {"model": "dlrm", "optimizer_pick": "8x11"},
                       {"model": "mnist", "optimizer_pick": "8x11"}]}
        cfg = {"layouts": {"mnist": "26x9", "dlrm": "8x11"}}
        self.assertEqual(metrics.flips(raw, "cold-start", cfg), 1)


class ResultSchemaTest(unittest.TestCase):
    names = [n for n, _ in metrics.END_TO_END]

    def line(self, **over):
        values = {n: 1.5 for n in self.names}
        units = dict(metrics.END_TO_END)
        args = dict(correct=True, attempted=12, failed=0)
        args.update(over)
        return metrics.result_line(args["correct"], args["attempted"], args["failed"],
                                   values, units)

    def test_round_trip(self):
        doc = metrics.parse_result_line(self.line(), self.names)
        self.assertEqual(list(doc), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(doc["metrics"]["verify_ms"], {"value": 1.5, "unit": "ms"})
        self.assertEqual(doc["attempted"], 12)

    def test_rejects_malformed_lines(self):
        good = json.loads(self.line())
        bad = [dict(good, extra=1), dict(good, attempted=0), dict(good, failed=True),
               dict(good, correct="yes"),
               dict(good, metrics={k: v for k, v in good["metrics"].items() if k != "setup_s"}),
               dict(good, metrics=dict(good["metrics"], setup_s={"value": 1.0}))]
        for doc in bad:
            with self.assertRaises(ValueError):
                metrics.parse_result_line(json.dumps(doc), self.names)
        nan = self.line().replace("1.5", "NaN", 1)
        with self.assertRaises(ValueError):
            metrics.parse_result_line(nan, self.names)


class DeclaredMetricsTest(unittest.TestCase):
    def test_benchmark_json_declares_what_the_runner_prints(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(metrics.PER_LAYER))
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(metrics.REDUCERS))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in bench["end_to_end"]))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]))
        self.assertTrue(math.isclose(len(metrics.PER_LAYER), len(set(metrics.PER_LAYER))))


if __name__ == "__main__":
    unittest.main()
