"""Additional edge cases for load balancing and stabilisation internals."""

import numpy as np

from repro.core.loadbalance import _split_point, dynamic_load_migration
from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.dht.stabilize import StabilizationProtocol
from repro.metric.vector import EuclideanMetric
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency
from repro.sim.transport import Transport

DIM = 3
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _platform(n_nodes=10, n_obj=200, seed=0, skew=True):
    rng = np.random.default_rng(seed)
    if skew:
        center = rng.uniform(40, 60, size=(1, DIM))
        data = np.clip(center + rng.normal(0, 2, (n_obj, DIM)), 0, 100)
    else:
        data = rng.uniform(0, 100, size=(n_obj, DIM))
    ring = ChordRing.build(n_nodes, m=20, seed=seed, latency=ConstantLatency(n_nodes, 0.01))
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, METRIC, k=2, sample_size=100, seed=seed)
    return platform


class TestSplitPoint:
    def test_returns_key_in_heavy_range(self):
        platform = _platform()
        idx = platform.indexes["idx"]
        heavy = max(idx.shards, key=lambda n: idx.shards[n].load)
        split = _split_point(platform, heavy)
        assert split is not None
        # the split point must fall in the heavy node's ownership interval
        from repro.dht.idspace import in_interval_open_closed

        assert in_interval_open_closed(split, heavy.predecessor.id, heavy.id, 20) or split != heavy.id

    def test_none_for_empty_node(self):
        platform = _platform()
        idx = platform.indexes["idx"]
        empty = min(idx.shards, key=lambda n: idx.shards[n].load)
        if idx.shards[empty].load == 0:
            assert _split_point(platform, empty) is None

    def test_split_roughly_halves(self):
        platform = _platform()
        idx = platform.indexes["idx"]
        heavy = max(idx.shards, key=lambda n: idx.shards[n].load)
        before = idx.shards[heavy].load
        split = _split_point(platform, heavy)
        light = min(idx.shards, key=lambda n: idx.shards[n].load)
        platform.ring.move_node(light, split)
        idx.distribute()
        after = idx.shards[heavy].load
        assert after <= before * 0.75  # took a substantial share


class TestMigrationKnobs:
    def test_min_load_prevents_churn(self):
        platform = _platform(n_obj=20)  # tiny index
        report = dynamic_load_migration(platform, min_load=1000, seed=0)
        assert report.moves == 0

    def test_zero_rounds_cap(self):
        platform = _platform()
        report = dynamic_load_migration(platform, max_rounds=0, seed=0)
        assert report.rounds == 0
        assert report.moves == 0

    def test_history_tracks_max(self):
        platform = _platform()
        report = dynamic_load_migration(platform, max_rounds=5, seed=0)
        assert len(report.history) == report.rounds
        if report.history:
            assert report.history[-1] == report.final_max_load


class TestStabilizeEdges:
    def _proto(self, n=12):
        ring = ChordRing.build(n, m=20, seed=0, latency=ConstantLatency(n, 0.01))
        sim = Simulator()
        return ring, sim, StabilizationProtocol(ring, Transport(sim), seed=0)

    def test_leave_last_but_one(self):
        ring, sim, proto = self._proto(n=2)
        victim = ring.nodes()[0]
        proto.leave(victim, graceful=True)
        assert len(ring) == 1
        assert proto.ring_consistent()

    def test_local_lookup_hop_budget(self):
        ring, sim, proto = self._proto()
        node = ring.nodes()[0]
        owner, hops = proto.local_lookup(node, 12345, max_hops=0)
        # zero budget: either resolves instantly (successor check) or gives up
        assert hops == 0

    def test_join_schedules_timers_when_running(self):
        ring, sim, proto = self._proto()
        proto.start(duration=500.0)
        pending_before = sim.pending()
        proto.join(999_999 % (1 << 20), ring.nodes()[0], "x", 0)
        assert sim.pending() > pending_before

    def test_stabilize_idempotent_on_converged_ring(self):
        ring, sim, proto = self._proto()
        snapshot = {n.id: n.successor.id for n in ring.nodes()}
        for node in ring.nodes():
            proto.stabilize(node)
        assert {n.id: n.successor.id for n in ring.nodes()} == snapshot

    def test_notify_ignores_worse_candidate(self):
        ring, sim, proto = self._proto()
        nodes = ring.nodes()
        n2 = nodes[2]
        old_pred = n2.predecessor
        proto.notify(n2, nodes[0] if nodes[0] is not old_pred else nodes[1])
        # the true predecessor is closer; notify must not regress
        assert n2.predecessor is old_pred

    def test_finger_accuracy_degrades_then_recovers(self):
        ring, sim, proto = self._proto(n=16)
        proto.start(duration=10_000.0)
        assert proto.finger_accuracy() == 1.0
        victim = ring.nodes()[4]
        proto.leave(victim, graceful=False)
        assert proto.finger_accuracy() < 1.0  # stale fingers point at the dead node
        sim.run(until=5_000.0)
        assert proto.finger_accuracy() > 0.9
