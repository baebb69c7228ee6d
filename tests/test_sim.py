"""Tests for the discrete-event engine, latency models, King matrix,
message size model and stats."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.king import synthetic_king_matrix, king_latency_model
from repro.sim.messages import (
    ResultEntry,
    ResultMessage,
    query_message_size,
    result_message_size,
)
from repro.sim.network import ConstantLatency, CoordinateLatency, MatrixLatency
from repro.sim.stats import QueryStats, StatsCollector


def _storm_workload(sim, n_ops, fan_out=8):
    """Retry-storm schedule: each operation arms ``fan_out`` cancelable
    30-second deadline timers, then completes 1 ms later, cancelling them
    all and starting the next operation — the lifecycle pattern that piles
    up dead timers with due times ~30 simulated seconds away."""
    completed = 0
    timed_out = 0

    def deadline():
        nonlocal timed_out
        timed_out += 1

    def complete(handles):
        nonlocal completed
        completed += 1
        for h in handles:
            h.cancel()
        if completed < n_ops:
            start_op()

    def start_op():
        handles = [
            sim.schedule_cancelable_in(30.0, deadline) for _ in range(fan_out)
        ]
        sim.schedule_in(0.001, complete, handles)

    start_op()
    sim.run()
    assert (completed, timed_out) == (n_ops, 0)


class TestEngine:
    def test_order(self):
        sim = Simulator()
        out = []
        sim.schedule_in(2.0, out.append, "late")
        sim.schedule_in(1.0, out.append, "early")
        sim.run()
        assert out == ["early", "late"]
        assert sim.now == 2.0

    def test_fifo_at_same_time(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule_at(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def fire():
            out.append(sim.now)
            if sim.now < 3:
                sim.schedule_in(1.0, fire)

        sim.schedule_in(1.0, fire)
        sim.run()
        assert out == [1.0, 2.0, 3.0]

    def test_run_until(self):
        sim = Simulator()
        out = []
        sim.schedule_in(1.0, out.append, "a")
        sim.schedule_in(5.0, out.append, "b")
        sim.run(until=2.0)
        assert out == ["a"]
        assert sim.now == 2.0
        assert sim.pending() == 1
        sim.run()
        assert out == ["a", "b"]

    def test_max_events(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule_in(float(i + 1), out.append, i)
        sim.run(max_events=3)
        assert len(out) == 3

    def test_no_past_scheduling(self):
        sim = Simulator()
        sim.schedule_in(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_in(-1.0, lambda: None)

    def test_reset(self):
        sim = Simulator()
        sim.schedule_in(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending() == 0

    def test_every_rearms_until_falsy(self):
        sim = Simulator()
        out = []

        def tick():
            out.append(sim.now)
            return len(out) < 3

        sim.every(1.0, tick)
        sim.run()
        assert out == [1.0, 2.0, 3.0]
        assert sim.pending() == 0  # a falsy return really stops the chain

    def test_every_matches_handrolled_digest(self):
        def handrolled():
            sim = Simulator()
            sim.digest_enabled = True

            def tick():
                if sim.now < 3:
                    sim.schedule_in(1.0, tick)

            sim.schedule_in(1.0, tick)
            sim.run()
            return sim.schedule_digest

        def via_every():
            sim = Simulator()
            sim.digest_enabled = True
            sim.every(1.0, lambda: sim.now < 3)
            sim.run()
            return sim.schedule_digest

        # the sanctioned periodic hook must not perturb replay fingerprints
        assert handrolled() == via_every()

    def test_compaction_prunes_cancelled_timers(self):
        """With digests off, the engine compacts cancelled deadline timers
        out of the heap instead of dragging (nearly) all 8 * n_ops of them
        to their due times."""
        sim = Simulator()
        n_ops, fan_out = 5_000, 8
        _storm_workload(sim, n_ops, fan_out)
        cancelled = n_ops * fan_out
        assert sim.tombstones_skipped < cancelled * 0.05, (
            f"compaction ineffective: {sim.tombstones_skipped}/{cancelled} "
            "tombstones still popped"
        )

    def test_pending_live_leaves_tombstones_out(self):
        sim = Simulator()
        sim.schedule_in(1.0, lambda: None)
        handles = [sim.schedule_cancelable_in(2.0, lambda: None) for _ in range(3)]
        handles[0].cancel()
        handles[1].cancel()
        handles[1].cancel()  # idempotent
        assert (sim.pending(), sim.pending_live()) == (4, 2)
        sim.run(until=1.5)
        assert (sim.pending(), sim.pending_live()) == (3, 1)
        handles[2].cancel()
        assert (sim.pending(), sim.pending_live()) == (3, 0)
        marker = [].append
        sim.schedule_in(1.0, marker, 1)
        sim.schedule_in(1.0, print)
        sim.schedule_cancelable_in(1.0, marker, 2)
        assert (sim.pending_live(), sim.pending_live(ignore=marker)) == (3, 1)

    def test_digest_mode_keeps_exact_tombstone_accounting(self):
        """With digests on (replay), compaction must stay off: every
        cancelled timer is popped, counted and folded into the digest."""
        sim = Simulator()
        sim.digest_enabled = True
        n_ops, fan_out = 500, 8
        _storm_workload(sim, n_ops, fan_out)
        assert sim.tombstones_skipped == n_ops * fan_out
        assert sim.events_processed == n_ops * (fan_out + 1)


class TestLatencyModels:
    def test_constant(self):
        lat = ConstantLatency(4, delay=0.05)
        assert lat.latency(0, 1) == 0.05
        assert lat.latency(2, 2) == 0.0

    def test_matrix(self):
        m = np.array([[0.0, 0.1], [0.2, 0.0]])
        lat = MatrixLatency(m)
        assert lat.latency(0, 1) == pytest.approx(0.1)
        assert lat.latency(1, 0) == pytest.approx(0.2)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            MatrixLatency(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            MatrixLatency(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_matrix_row(self):
        m = np.array([[0.0, 0.1, 0.3], [0.2, 0.0, 0.4], [0.1, 0.1, 0.0]])
        lat = MatrixLatency(m)
        np.testing.assert_allclose(lat.latency_row(1, np.array([0, 2])), [0.2, 0.4])

    def test_euclidean(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        lat = CoordinateLatency(coords, seconds_per_unit=0.01, floor=0.001)
        assert lat.latency(0, 1) == pytest.approx(0.051)
        assert lat.latency(0, 0) == 0.0
        np.testing.assert_allclose(lat.latency_row(0, np.array([0, 1])), [0.0, 0.051])

    def test_mean_rtt_estimate(self):
        lat = ConstantLatency(50, delay=0.09)
        assert lat.mean_rtt() == pytest.approx(0.18)


class TestKingMatrix:
    def test_shape_and_diagonal(self):
        m = synthetic_king_matrix(n_hosts=100, seed=0)
        assert m.shape == (100, 100)
        np.testing.assert_array_equal(np.diag(m), 0.0)

    def test_symmetric(self):
        m = synthetic_king_matrix(n_hosts=80, seed=1)
        np.testing.assert_allclose(m, m.T)

    def test_mean_rtt_calibrated_to_paper(self):
        """Mean RTT must be the paper's 180 ms."""
        m = synthetic_king_matrix(n_hosts=200, seed=2)
        n = 200
        mean_one_way = m.sum() / (n * (n - 1))
        assert 2 * mean_one_way == pytest.approx(0.180, rel=1e-6)

    def test_positive_off_diagonal(self):
        m = synthetic_king_matrix(n_hosts=60, seed=3)
        off = m[~np.eye(60, dtype=bool)]
        assert off.min() > 0

    def test_heavy_tail(self):
        """King-like latencies have a right tail: p95 >> median."""
        m = synthetic_king_matrix(n_hosts=150, seed=4)
        off = m[~np.eye(150, dtype=bool)]
        assert np.percentile(off, 95) > 1.5 * np.median(off)

    def test_model_wrapper(self):
        lat = king_latency_model(n_hosts=50, seed=5)
        assert lat.n_hosts == 50
        assert lat.latency(0, 1) > 0


class TestMessageSizes:
    def test_query_size_formula(self):
        """Paper: 20 + 4 + n (2*2*k + 8 + 1)."""
        assert query_message_size(1, 10) == 20 + 4 + (40 + 9)
        assert query_message_size(3, 5) == 20 + 4 + 3 * (20 + 9)
        assert query_message_size(0, 10) == 24

    def test_result_size_formula(self):
        """Paper: 20 + 6 per entry."""
        assert result_message_size(0) == 20
        assert result_message_size(10) == 80

    def test_message_objects(self):
        rm = ResultMessage(qid=1, entries=[ResultEntry(3, 0.5)] * 4)
        assert rm.size == result_message_size(4)
        # one per reply and one per hit: slotted, so no per-instance __dict__
        assert not hasattr(rm, "__dict__") and not hasattr(rm.entries[0], "__dict__")


class TestStats:
    def test_response_and_max_latency(self):
        qs = QueryStats(qid=0, issued_at=10.0)
        qs.record_result_message(26, at=10.5)
        qs.record_result_message(26, at=12.0)
        qs.record_result_message(26, at=11.0)
        assert qs.response_time == pytest.approx(0.5)
        assert qs.max_latency == pytest.approx(2.0)

    def test_unanswered_query(self):
        qs = QueryStats(qid=0, issued_at=1.0)
        assert qs.response_time is None
        assert qs.max_latency is None

    def test_hops_is_max(self):
        qs = QueryStats(qid=0)
        qs.record_index_node(1, 3)
        qs.record_index_node(2, 7)
        qs.record_index_node(3, 5)
        assert qs.max_hops == 7
        assert qs.index_nodes == {1, 2, 3}

    def test_bandwidth_split(self):
        qs = QueryStats(qid=0)
        qs.record_query_message(100)
        qs.record_query_message(50)
        qs.record_result_message(26, at=1.0)
        assert qs.query_bytes == 150
        assert qs.result_bytes == 26
        assert qs.total_bytes == 176
        assert qs.query_messages == 2
        assert qs.result_messages == 1

    def test_collector_aggregates(self):
        c = StatsCollector()
        for qid, (hops, rt) in enumerate([(2, 0.1), (4, 0.3)]):
            qs = c.for_query(qid)
            qs.issued_at = 0.0
            qs.record_index_node(qid, hops)
            qs.record_result_message(26, at=rt)
        assert c.mean_hops() == pytest.approx(3.0)
        assert c.mean_response_time() == pytest.approx(0.2)
        summary = c.summary()
        assert summary["queries"] == 2.0
        assert summary["result_bytes"] == pytest.approx(26.0)

    def test_for_query_idempotent(self):
        c = StatsCollector()
        assert c.for_query(5) is c.for_query(5)
        assert len(c) == 1

    def test_empty_collector(self):
        c = StatsCollector()
        assert c.mean_hops() == 0.0
        assert np.isnan(c.mean_response_time())
