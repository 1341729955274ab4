"""Tests of the benchmark's own arithmetic and load generator.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import socket
import struct
import sys
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import loadgen  # noqa: E402


class TailRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(benchlib.tail(range(1, 201))[0], 95.0)    # 10 beyond p95
        self.assertEqual(benchlib.tail(range(1, 200))[0], 90.0)    # p95 has 9
        self.assertEqual(benchlib.tail(range(1, 1001))[0], 99.0)   # 10 beyond p99
        self.assertEqual(benchlib.tail(range(1, 10001))[0], 99.9)

    def test_value_and_count(self):
        pct, value, beyond = benchlib.tail(range(1, 201))
        self.assertEqual((pct, value, beyond), (95.0, 190.0, 10))
        self.assertEqual(sum(1 for v in range(1, 201) if v > value), beyond)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(benchlib.tail([3, 1, 2]), (100.0, 3.0, 0))

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2.0)
        self.assertEqual(benchlib.median([4, 1, 2, 3]), 2.5)


class Schedule(unittest.TestCase):
    MIX = [(40, {"algo": "split"}), (30, {"algo": "mis"}), (20, {"algo": "color"}),
           (10, {"algo": "mis", "params": [("ids", "random")]})]

    def test_same_seed_same_schedule(self):
        a = benchlib.schedule(7, "busy", 80.0, 300, self.MIX)
        b = benchlib.schedule(7, "busy", 80.0, 300, self.MIX)
        self.assertEqual(a, b)
        self.assertNotEqual(a, benchlib.schedule(8, "busy", 80.0, 300, self.MIX))
        self.assertNotEqual(a, benchlib.schedule(7, "light", 80.0, 300, self.MIX))

    def test_offered_rate_and_mix(self):
        reqs = benchlib.schedule(1, "busy", 50.0, 2000, self.MIX)
        dues = [r["due_s"] for r in reqs]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(0 <= dues[0] and dues[-1] < 2000 / 50.0)
        share = sum(1 for r in reqs if r["algo"] == "split") / 2000.0
        self.assertAlmostEqual(share, 0.4, delta=0.04)
        self.assertEqual(len({r["seed"] for r in reqs}), 2000)  # fresh run seeds


class DueTime(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        latency, lag = benchlib.due_latency_ms(1_000_000, 3_000_000, 10_000_000)
        self.assertEqual((latency, lag), (9.0, 2.0))


class FakeDaemon:
    """Answers one request per connection, one at a time, after `service_s`
    each - a single-worker server whose queue shows in due-time latency."""

    def __init__(self, service_s):
        self.service_s = service_s
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self.loop, daemon=True)
        self.thread.start()

    def loop(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn:
                head = b""
                while len(head) < loadgen.HEADER.size:
                    head += conn.recv(loadgen.HEADER.size - len(head))
                nwords = loadgen.HEADER.unpack(head)[3]
                body = b""
                while len(body) < 8 * nwords:
                    body += conn.recv(8 * nwords - len(body))
                req_id = struct.unpack_from("<QQ", body)[1]
                time.sleep(self.service_s)
                words = [loadgen.SERVE_VERSION, req_id, 0, 0xABC, 3, 1000] + loadgen.pack_string("ok")
                conn.sendall(loadgen.HEADER.pack(loadgen.FRAME_MAGIC, loadgen.FRAME_RESPONSE, 0,
                                                 len(words)) + struct.pack("<%dQ" % len(words), *words))

    def close(self):
        self.listener.close()


class LoadGenerator(unittest.TestCase):
    def test_queueing_shows_in_latency_and_slot_waits_in_lag(self):
        daemon = FakeDaemon(0.05)
        try:
            reqs = [{"id": i + 1, "due_s": 0.0, "algo": "mis", "seed": i, "params": []}
                    for i in range(3)]
            start = time.monotonic_ns() + 5_000_000
            recs = loadgen.run(daemon.port, reqs, start, timeout_s=5, max_connections=1)
        finally:
            daemon.close()
        self.assertEqual([r["status"] for r in recs], ["ok"] * 3)
        self.assertEqual(recs[0]["digest"], "abc")
        lat = sorted(benchlib.due_latency_ms(r["due_ns"], r["send_ns"], r["done_ns"])[0]
                     for r in recs)
        lag = sorted(benchlib.due_latency_ms(r["due_ns"], r["send_ns"], r["done_ns"])[1]
                     for r in recs)
        # One connection: the second and third wait for the slot (lag), and
        # every latency counts from the common due time.
        for i, (l, g) in enumerate(zip(lat, lag)):
            self.assertGreaterEqual(l, 50.0 * (i + 1) - 1)
            self.assertGreaterEqual(g, 50.0 * i - 1)

    def test_unanswered_request_times_out(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            recs = loadgen.run(listener.getsockname()[1],
                               [{"id": 1, "due_s": 0.0, "algo": "mis", "seed": 1, "params": []}],
                               time.monotonic_ns(), timeout_s=0.2)
        finally:
            listener.close()
        self.assertEqual((recs[0]["status"], recs[0]["error"]), ("error", "timed out"))

    def test_request_encoding(self):
        frame = loadgen.encode_request(5, "mis", 9, [("ids", "random")])
        magic, ftype, seq, nwords = loadgen.HEADER.unpack_from(frame)
        self.assertEqual((magic, ftype, seq), (loadgen.FRAME_MAGIC, loadgen.FRAME_REQUEST, 0))
        words = struct.unpack_from("<%dQ" % nwords, frame, loadgen.HEADER.size)
        self.assertEqual(words[:5], (1, 5, 9, 1, 3))  # version, id, seed, params, len("mis")


class Backlog(unittest.TestCase):
    def test_steady_queue(self):
        lat = [10.0 + (i % 7) for i in range(300)]
        self.assertFalse(benchlib.backlog_growing(lat, 100.0))
        self.assertTrue(benchlib.rung_ok(lat, 0, 100.0))

    def test_growing_queue(self):
        lat = [10.0 + i for i in range(300)]
        self.assertTrue(benchlib.backlog_growing(lat, 100.0))
        self.assertFalse(benchlib.rung_ok(lat, 0, 400.0))

    def test_failures_and_tail_miss_the_bar(self):
        lat = [10.0] * 300
        self.assertFalse(benchlib.rung_ok(lat, 1, 100.0))
        self.assertFalse(benchlib.rung_ok(lat[:-20] + [500.0] * 20, 0, 100.0))


class SelfTime(unittest.TestCase):
    def spans(self):
        # process [0, 100): load [5, 15), execute [20, 90) with rounds
        # [30, 50) and [50, 80); round 1 holds send [30, 40).
        return {
            "P": {"start_ns": 0, "end_ns": 100, "parent": None},
            1: {"start_ns": 5, "end_ns": 15, "parent": "P"},
            2: {"start_ns": 20, "end_ns": 90, "parent": "P"},
            3: {"start_ns": 30, "end_ns": 50, "parent": 2},
            4: {"start_ns": 50, "end_ns": 80, "parent": 2},
            5: {"start_ns": 30, "end_ns": 40, "parent": 3},
        }

    def test_self_is_duration_minus_children(self):
        selfs = benchlib.self_times(self.spans())
        self.assertEqual(selfs, {"P": 20, 1: 10, 2: 20, 3: 10, 4: 30, 5: 10})

    def test_self_times_add_up(self):
        spans = self.spans()
        selfs = benchlib.self_times(spans)
        self.assertEqual(sum(selfs.values()), 100)
        self.assertEqual(benchlib.subtree_ns(spans, selfs, 2), 70)

    def test_overlap_and_clipping(self):
        self.assertEqual(benchlib.covered_ns([(0, 10), (5, 20), (30, 40)], 0, 100), 30)
        self.assertEqual(benchlib.covered_ns([(-5, 10), (95, 120)], 0, 100), 15)


if __name__ == "__main__":
    unittest.main()
