"""Tests for the Chord stabilisation protocol, churn repair and piggybacking."""

import numpy as np

from repro.dht.ring import ChordRing
from repro.dht.stabilize import (
    CONTROL_MESSAGE_BYTES,
    MaintenanceConfig,
    StabilizationProtocol,
)
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency


def _setup(n=24, m=20, seed=0, config=None):
    latency = ConstantLatency(n, delay=0.01)
    ring = ChordRing.build(n, m=m, seed=seed, latency=latency, pns=False)
    sim = Simulator()
    proto = StabilizationProtocol(ring, sim, config=config or MaintenanceConfig(), seed=seed)
    return ring, sim, proto


class TestSteadyState:
    def test_oracle_ring_already_consistent(self):
        _, _, proto = _setup()
        assert proto.ring_consistent()
        assert proto.finger_accuracy() == 1.0

    def test_stabilize_preserves_consistency(self):
        ring, sim, proto = _setup()
        proto.start(duration=200.0)
        sim.run(until=200.0)
        assert proto.ring_consistent()
        assert proto.stats.messages > 0

    def test_maintenance_cost_accumulates(self):
        ring, sim, proto = _setup()
        proto.start(duration=100.0)
        sim.run(until=100.0)
        assert proto.stats.bytes == proto.stats.messages * CONTROL_MESSAGE_BYTES


class TestJoin:
    def test_join_converges(self):
        ring, sim, proto = _setup(n=16)
        proto.start(duration=2000.0)
        bootstrap = ring.nodes()[0]
        new_id = 12345
        while new_id in ring.nodes_by_id:
            new_id += 1
        node = proto.join(new_id, bootstrap, name="joiner", host=0)
        assert len(ring) == 17
        # before stabilisation the predecessor's successor may be stale...
        sim.run(until=500.0)
        # ...after a few rounds the ring is consistent again
        assert proto.ring_consistent()
        # and the new node has a predecessor
        assert node.predecessor is not None

    def test_many_joins_converge(self):
        ring, sim, proto = _setup(n=12, m=20)
        proto.start(duration=5000.0)
        rng = np.random.default_rng(0)
        t = 10.0
        for i in range(8):
            nid = int(rng.integers(0, 2**20))
            while nid in ring.nodes_by_id:
                nid = int(rng.integers(0, 2**20))
            bootstrap = ring.nodes()[int(rng.integers(0, len(ring)))]
            sim.schedule_at(t, proto.join, nid, bootstrap, f"j{i}", 0)
            t += 50.0
        sim.run(until=3000.0)
        assert len(ring) == 20
        assert proto.ring_consistent()
        assert proto.stats.joins == 8

    def test_fingers_converge_after_join(self):
        ring, sim, proto = _setup(n=12, m=16, config=MaintenanceConfig(stabilize_interval=5.0))
        proto.start(duration=5000.0)
        proto.join(54321 % (1 << 16), ring.nodes()[0], host=0)
        sim.run(until=3000.0)
        assert proto.finger_accuracy() > 0.95


class TestLeaveAndCrash:
    def test_graceful_leave_repairs_immediately(self):
        ring, sim, proto = _setup(n=16)
        victim = ring.nodes()[5]
        proto.leave(victim, graceful=True)
        assert proto.ring_consistent()
        assert proto.stats.leaves == 1

    def test_crash_repaired_by_stabilization(self):
        ring, sim, proto = _setup(n=16)
        proto.start(duration=2000.0)
        victim = ring.nodes()[5]
        sim.schedule_at(10.0, proto.leave, victim, False)
        sim.run(until=500.0)
        assert proto.stats.crashes == 1
        assert proto.ring_consistent()

    def test_multiple_crashes_survive_successor_list(self):
        ring, sim, proto = _setup(n=24)
        proto.start(duration=5000.0)
        victims = ring.nodes()[3:7]  # four consecutive nodes (< list length)
        for i, v in enumerate(victims):
            sim.schedule_at(10.0 + i, proto.leave, v, False)
        sim.run(until=1000.0)
        assert proto.ring_consistent()

    def test_local_lookup_correct_after_churn(self):
        ring, sim, proto = _setup(n=20)
        proto.start(duration=5000.0)
        sim.schedule_at(10.0, proto.leave, ring.nodes()[3], False)
        sim.schedule_at(20.0, proto.join, 999999 % (1 << 20), ring.nodes()[0], "x", 0)
        sim.run(until=2000.0)
        rng = np.random.default_rng(1)
        for _ in range(30):
            key = int(rng.integers(0, 2**20))
            start = ring.nodes()[int(rng.integers(0, len(ring)))]
            owner, _ = proto.local_lookup(start, key)
            assert owner is ring.successor_of(key)


class TestPiggybacking:
    def test_piggyback_saves_bytes(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=60.0)
        ring, sim, proto = _setup(config=cfg)
        # simulate query traffic on all links used by stabilisation
        for node in ring.nodes():
            proto.note_query_traffic(node.host, node.successor.host, at=0.0)
            proto.note_query_traffic(node.successor.host, node.host, at=0.0)
        proto.start(duration=50.0)
        sim.run(until=50.0)
        assert proto.stats.piggybacked > 0
        assert proto.stats.bytes_saved > 0

    def test_no_piggyback_without_traffic(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=5.0)
        ring, sim, proto = _setup(config=cfg)
        proto.start(duration=50.0)
        sim.run(until=50.0)
        assert proto.stats.piggybacked == 0

    def test_window_expiry(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=1.0)
        ring, sim, proto = _setup(config=cfg)
        node = ring.nodes()[0]
        proto.note_query_traffic(node.host, node.successor.host, at=0.0)
        sim.run(until=10.0)  # advance the clock past the window
        before = proto.stats.piggybacked
        proto.stabilize(node)
        assert proto.stats.piggybacked == before

    def test_piggyback_costs_less_than_standalone(self):
        runs = {}
        for piggyback in (False, True):
            cfg = MaintenanceConfig(piggyback=piggyback, piggyback_window=1e9)
            ring, sim, proto = _setup(config=cfg, seed=3)
            for node in ring.nodes():
                for other in ring.nodes():
                    proto.note_query_traffic(node.host, other.host, at=0.0)
            proto.start(duration=100.0)
            sim.run(until=100.0)
            runs[piggyback] = proto.stats.bytes
        assert runs[True] < runs[False]


class TestQueryProtocolIntegration:
    def test_query_traffic_feeds_piggybacking(self):
        import numpy as np

        from repro.core.platform import IndexPlatform
        from repro.metric.vector import EuclideanMetric

        latency = ConstantLatency(16, delay=0.01)
        ring = ChordRing.build(16, m=20, seed=2, latency=latency, pns=False)
        platform = IndexPlatform(ring)
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 100, size=(300, 4))
        platform.create_index(
            "idx", data, EuclideanMetric(box=(0, 100), dim=4), k=3, seed=0
        )
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=1e9)
        maint = StabilizationProtocol(ring, platform.sim, config=cfg, seed=0)
        proto, stats = platform.protocol("idx", maintenance=maint)
        index = platform.indexes["idx"]
        for qid in range(20):
            proto.issue(index.make_query(data[qid], 60.0, qid=qid), ring.nodes()[qid % 16])
        platform.sim.run()
        assert maint._link_query_time  # traffic recorded
        maint.start(duration=50.0)
        platform.sim.run(until=platform.sim.now + 50.0)
        assert maint.stats.piggybacked > 0
