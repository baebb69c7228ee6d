"""Transport layer: delivery semantics, fault injection, and parity between
transport-level, span-level and per-query accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency
from repro.sim.transport import DROPPED_DEAD, FaultConfig, Transport


class _Node:
    """Minimal endpoint: transport only needs id / host / alive."""

    def __init__(self, id, host, alive=True):
        self.id = id
        self.host = host
        self.alive = alive


def _pair(latency=None, faults=None):
    sim = Simulator()
    tp = Transport(sim=sim, latency=latency, faults=faults)
    return sim, tp, _Node(1, 0), _Node(2, 1)


class TestFaultConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(jitter=-1.0)

    def test_nan_jitter_is_refused(self):
        with pytest.raises(ValueError):
            FaultConfig(jitter=float("nan"))

    def test_partitions_normalised(self):
        cfg = FaultConfig(partitions=[[0, 1], {2, 3}])
        assert cfg.partitions == (frozenset({0, 1}), frozenset({2, 3}))

    def test_active(self):
        assert not FaultConfig().active
        assert FaultConfig(loss_rate=0.1).active
        assert FaultConfig(jitter=0.01).active
        assert FaultConfig(partitions=[{0}]).active


class TestDelivery:
    def test_send_after_latency(self):
        sim, tp, a, b = _pair(latency=ConstantLatency(4, delay=0.05))
        got = []
        tp.send(a, b, lambda: got.append(sim.now), kind="t", size=40)
        sim.run()
        assert got == [0.05]
        assert tp.stats.sent == 1 and tp.stats.delivered == 1
        assert tp.stats.bytes == 40 and tp.stats.dropped == 0

    def test_send_to_self_immediate_and_unfaulted(self):
        # local hand-off: even loss_rate=1 must not touch it
        sim, tp, a, _ = _pair(
            latency=ConstantLatency(4, delay=0.05), faults=FaultConfig(loss_rate=1.0)
        )
        got = []
        assert tp.send(a, a, got.append, "x")
        sim.run()
        assert got == ["x"] and sim.now == 0.0

    def test_dead_destination_dropped_at_delivery(self):
        sim, tp, a, b = _pair(latency=ConstantLatency(4, delay=0.05))
        got, drops = [], []
        tp.send(a, b, got.append, "x", on_drop=drops.append)
        b.alive = False  # crashes while the message is in flight
        sim.run()
        assert got == []
        assert tp.stats.dropped_dead == 1
        assert drops == [DROPPED_DEAD]

    def test_control_roundtrip_and_dead(self):
        _, tp, a, b = _pair()
        assert tp.control(a, b, size=28)
        b.alive = False
        assert not tp.control(a, b, size=28)
        # bytes are counted for dropped messages too (they were sent)
        assert tp.stats.bytes == 56
        assert tp.stats.delivered == 1 and tp.stats.dropped_dead == 1


class TestFaultInjection:
    def _drop_pattern(self, seed, n=300, loss=0.3, jitter=0.0):
        sim, tp, a, b = _pair(faults=FaultConfig(loss_rate=loss, jitter=jitter, seed=seed))
        return [tp.send(a, b, lambda: None) for _ in range(n)]

    def test_same_seed_same_drops(self):
        assert self._drop_pattern(seed=7) == self._drop_pattern(seed=7)

    def test_different_seed_different_drops(self):
        assert self._drop_pattern(seed=7) != self._drop_pattern(seed=8)

    def test_loss_rate_extremes(self):
        assert all(self._drop_pattern(seed=0, loss=0.0))
        assert not any(self._drop_pattern(seed=0, loss=1.0))

    def test_jitter_does_not_perturb_loss_stream(self):
        # independent generators: toggling jitter keeps the drop pattern
        assert self._drop_pattern(seed=3, jitter=0.0) == self._drop_pattern(
            seed=3, jitter=0.1
        )

    def test_jitter_delays_delivery(self):
        sim, tp, a, b = _pair(
            latency=ConstantLatency(4, delay=0.05),
            faults=FaultConfig(jitter=0.5, seed=1),
        )
        arrivals = []
        for _ in range(50):
            tp.send(a, b, lambda: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 50
        assert all(t >= 0.05 for t in arrivals)
        assert max(arrivals) > 0.05  # some draw added real extra delay


class TestPartitions:
    def test_cross_partition_dropped(self):
        faults = FaultConfig(partitions=[{0, 1}, {2}])
        sim = Simulator()
        tp = Transport(sim=sim, faults=faults)
        a, b, c, d = _Node(1, 0), _Node(2, 1), _Node(3, 2), _Node(4, 3)
        got = []
        assert tp.send(a, b, got.append, "same-side")  # same partition
        assert not tp.send(a, c, got.append, "cross")  # different partitions
        assert not tp.send(a, d, got.append, "outside")  # host 3 in no set
        sim.run()
        assert got == ["same-side"]
        assert tp.stats.dropped_partition == 2
        assert not tp.partitioned(0, 1)
        assert tp.partitioned(0, 2) and tp.partitioned(0, 3)

    def test_control_respects_partitions(self):
        tp = Transport(faults=FaultConfig(partitions=[{0}, {1}]))
        a, b = _Node(1, 0), _Node(2, 1)
        assert not tp.control(a, b)
        assert tp.stats.dropped_partition == 1


def _tiny_platform(faults=None, obs=None, n_nodes=24, seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(3, 5))
    data = np.clip(
        centers[rng.integers(0, 3, size=400)] + rng.normal(0, 4, size=(400, 5)), 0, 100
    )
    latency = ConstantLatency(n_nodes, delay=0.02)
    ring = ChordRing.build(n_nodes, m=24, seed=seed, latency=latency, pns=False)
    p = IndexPlatform(ring, faults=faults, obs=obs)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=5), k=3, sample_size=200, seed=3
    )
    return p, data


class TestQueryIntegration:
    """End-to-end checks that protocol accounting matches the transport's."""

    def test_trace_accounting_matches_query_stats(self):
        # every byte the per-query stats attribute to a query must appear in
        # the transport's counters and in the query's send / result spans,
        # and vice versa
        obs = Observability(tracing=True)
        p, data = _tiny_platform(obs=obs)
        proto, stats = p.protocol("t")
        index = p.indexes["t"]
        q = index.make_query(data[0], 12.0, qid=0)
        proto.issue(q, p.ring.nodes()[0])
        p.sim.run()
        st, ts = stats.for_query(0), p.transport.stats
        sends = obs.span_memory.by_kind("send")
        charged = [s for s in sends if s.attrs["charged"]]
        results = obs.span_memory.by_kind("result")
        assert sum(s.attrs["size"] for s in sends) == ts.bytes
        assert ts.bytes == st.query_bytes + st.result_bytes
        assert sum(s.attrs["size"] for s in charged) == st.query_bytes == ts.query_bytes
        assert sum(s.attrs["size"] for s in results) == st.result_bytes == ts.result_bytes
        assert len(charged) == st.query_messages
        assert len(results) == st.result_messages
        assert ts.sent == ts.delivered == len(sends)
        assert not obs.span_memory.by_kind("drop") and ts.dropped == 0

    def test_dead_node_drop_parity(self):
        # messages arriving at crashed nodes: the transport's dropped_dead
        # counter and the per-query dropped_messages must agree (the old
        # per-protocol liveness checks counted the latter)
        p, data = _tiny_platform()
        proto, stats = p.protocol("t")
        index = p.indexes["t"]
        nodes = p.ring.nodes()
        for i in range(8):
            q = index.make_query(data[i], 20.0, qid=i)
            proto.issue(q, nodes[0])
        # crash half the ring (not the source) with queries in flight
        for n in nodes[1::2]:
            n.alive = False
        p.sim.run()
        per_query = sum(stats.for_query(i).dropped_messages for i in range(8))
        assert per_query == p.transport.stats.dropped_dead
        assert per_query > 0

    def test_query_degrades_gracefully_under_loss(self):
        # acceptance: with loss injected, runs still complete, recall only
        # degrades, and the drops are visible in the stats
        def run(faults):
            p, data = _tiny_platform(faults=faults)
            proto, stats = p.protocol("t")
            index = p.indexes["t"]
            for i in range(12):
                q = index.make_query(data[i], 15.0, qid=i)
                proto.issue(q, p.ring.nodes()[i % 4])
            p.sim.run()
            entries = sum(len(stats.for_query(i).entries) for i in range(12))
            return p, stats, entries

        _, _, clean_entries = run(None)
        p, stats, lossy_entries = run(FaultConfig(loss_rate=0.25, seed=5))
        assert p.transport.stats.dropped_loss > 0
        assert sum(s.dropped_messages for s in stats.queries.values()) > 0
        assert 0 < lossy_entries <= clean_entries

    def test_fault_determinism_end_to_end(self):
        def run():
            p, data = _tiny_platform(faults=FaultConfig(loss_rate=0.3, seed=9))
            proto, stats = p.protocol("t")
            index = p.indexes["t"]
            for i in range(10):
                q = index.make_query(data[i], 15.0, qid=i)
                proto.issue(q, p.ring.nodes()[i % 5])
            p.sim.run()
            s = p.transport.stats
            drops = tuple(stats.for_query(i).dropped_messages for i in range(10))
            return (s.sent, s.delivered, s.dropped_loss, s.bytes, drops)

        assert run() == run()

    def test_inactive_faults_equal_no_faults(self):
        def totals(faults):
            p, data = _tiny_platform(faults=faults)
            proto, stats = p.protocol("t")
            index = p.indexes["t"]
            q = index.make_query(data[0], 15.0, qid=0)
            proto.issue(q, p.ring.nodes()[0])
            p.sim.run()
            st = stats.for_query(0)
            return (
                st.query_messages,
                st.result_messages,
                st.query_bytes,
                st.result_bytes,
                st.max_hops,
                st.max_latency,
            )

        assert totals(None) == totals(FaultConfig())
