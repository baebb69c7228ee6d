"""Runtime invariant checkers: detection power and clean-run silence."""

import numpy as np
import pytest

from repro.check import InvariantChecker, InvariantViolation, PartitionChecker
from repro.core.query import query_split
from repro.dht.ring import ChordRing
from repro.metric import EuclideanMetric
from repro.obs.spans import Span, reconcile_with_stats
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency
from repro.sim.stats import QueryStats


# -- Chord ring consistency -----------------------------------------------------


class TestRingInvariants:
    def test_clean_ring_passes(self, small_ring):
        checker = InvariantChecker(ring=small_ring)
        checker.check_ring()
        assert checker.checks["ring"] == 1
        assert checker.ok

    def test_single_node_ring_passes(self):
        ring = ChordRing.build(1, m=16, seed=0)
        InvariantChecker(ring=ring).check_ring()

    def test_bad_successor_detected(self):
        ring = ChordRing.build(16, m=20, seed=3)
        nodes = ring.nodes()
        nodes[0].successors = [nodes[5].entry()]  # oracle successor is nodes[1]
        with pytest.raises(InvariantViolation, match="ring.successor"):
            InvariantChecker(ring=ring).check_ring()

    def test_bad_predecessor_detected(self):
        ring = ChordRing.build(16, m=20, seed=3)
        ring.nodes()[4].predecessor = None
        with pytest.raises(InvariantViolation, match="ring.predecessor"):
            InvariantChecker(ring=ring).check_ring()

    def test_dead_finger_detected(self):
        ring = ChordRing.build(16, m=20, seed=3)
        nodes = ring.nodes()
        ghost = nodes[7]
        ring.remove_node(ghost)
        # rebuild pointed everyone away from ghost; plant a stale reference
        ring.nodes()[2].fingers[0] = ghost.entry()
        with pytest.raises(InvariantViolation, match="ring.finger_live"):
            InvariantChecker(ring=ring).check_ring()

    def test_non_strict_collects_instead_of_raising(self):
        ring = ChordRing.build(8, m=16, seed=1)
        ring.nodes()[0].predecessor = None
        checker = InvariantChecker(ring=ring, strict=False)
        checker.check_ring()
        assert not checker.ok
        assert checker.violations[0].name == "ring.predecessor"

    def test_intervals_partition_id_space(self, small_ring):
        # (predecessor, owner] agrees with successor_of on sampled keys
        rng = np.random.default_rng(0)
        for key in rng.integers(0, 1 << small_ring.m, size=64):
            owner = small_ring.successor_of(int(key))
            lo, hi = owner.predecessor["id"], owner.id
            if lo < hi:
                assert lo < int(key) <= hi
            else:  # wrapping interval
                assert int(key) > lo or int(key) <= hi


# -- exactly-one-owner shard placement --------------------------------------------


class TestOwnershipInvariants:
    def test_clean_placement_passes(self, platform):
        checker = InvariantChecker(platform=platform)
        checker.check_ownership()
        assert checker.checks["ownership"] == 1

    def test_foreign_entry_detected(self, platform):
        index = platform.indexes["t"]
        nodes = platform.ring.nodes()
        donor = max(nodes, key=lambda n: index.shards[n].load)
        thief = min(nodes, key=lambda n: index.shards[n].load)
        shard = index.shards[donor]
        index.shards[thief].add(shard.keys[:1], shard.points[:1], shard.object_ids[:1])
        with pytest.raises(InvariantViolation, match="ownership.placement"):
            InvariantChecker(platform=platform).check_ownership()

    def test_missing_entry_detected(self, platform):
        index = _replicated(platform)
        donor = max(platform.ring.nodes(), key=lambda n: index.shards[n].load)
        index.shards[donor].clear()  # its primaries survive on their replicas
        with pytest.raises(InvariantViolation, match="ownership.placement"):
            InvariantChecker(platform=platform).check_ownership()

    def test_missing_replica_detected(self, platform):
        index = _replicated(platform)
        nodes = platform.ring.nodes()
        oid = int(index.entries()[2][0])
        holders = [n for n in nodes if oid in index.shards[n].object_ids]
        assert len(holders) == 2
        shard = index.shards[holders[1]]
        keep = shard.object_ids != oid
        kept = shard.keys[keep], shard.points[keep], shard.object_ids[keep]
        shard.clear()
        shard.add(*kept)
        with pytest.raises(InvariantViolation, match="1 entries missing"):
            InvariantChecker(platform=platform).check_ownership()

    def test_stray_copy_detected(self, platform):
        index = _replicated(platform)
        nodes = platform.ring.nodes()
        keys, points, object_ids = index.entries()
        stray = next(n for n in nodes if object_ids[0] not in index.shards[n].object_ids)
        index.shards[stray].add(keys[:1], points[:1], object_ids[:1])
        with pytest.raises(InvariantViolation, match="1 foreign or repeated"):
            InvariantChecker(platform=platform).check_ownership()

    def test_repeated_copy_detected(self, platform):
        index = platform.indexes["t"]
        holder = max(platform.ring.nodes(), key=lambda n: index.shards[n].load)
        shard = index.shards[holder]
        shard.add(shard.keys[:1].copy(), shard.points[:1].copy(), shard.object_ids[:1].copy())
        with pytest.raises(InvariantViolation, match="1 foreign or repeated"):
            InvariantChecker(platform=platform).check_ownership()

    def test_entry_on_no_shard_is_the_oracles_to_find(self, platform):
        """With one copy, a cleared shard leaves no trace of its entries:
        ownership holds over what is stored, and the differential oracle
        reports the loss as false negatives."""
        index = platform.indexes["t"]
        donor = max(platform.ring.nodes(), key=lambda n: index.shards[n].load)
        index.shards[donor].clear()
        checker = InvariantChecker(platform=platform)
        checker.check_ownership()
        assert checker.checks["ownership"] == 1


def _replicated(platform):
    """A second index on the fixture's platform, stored twice."""
    t = platform.indexes["t"]
    return platform.create_index(
        "r", t.dataset, t.metric, k=3, selection="kmeans", sample_size=400,
        replication=2, seed=3,
    )


# -- branch conservation -----------------------------------------------------------


class TestConservation:
    def test_engine_balances_after_queries(self, platform, clustered_data):
        engine = platform.lifecycle()
        checker = InvariantChecker(platform=platform)
        checker.track_engine(engine)
        platform.query("t", clustered_data[0], 25.0, engine=engine)
        checker.check_conservation()
        assert checker.checks["conservation"] == 1
        c = engine.counters
        assert c.branches_opened > 0
        assert c.branches_opened == c.branches_settled + c.branches_discarded

    def test_imbalance_detected(self, platform, clustered_data):
        engine = platform.lifecycle()
        platform.query("t", clustered_data[1], 20.0, engine=engine)
        engine.counters.branches_opened += 1  # simulate a leaked branch
        with pytest.raises(InvariantViolation, match="conservation"):
            InvariantChecker(platform=platform).check_conservation(engine)


# -- query partition exactness ------------------------------------------------------


class TestPartitionChecker:
    @pytest.fixture
    def index(self, platform):
        return platform.indexes["t"]

    def test_live_queries_tile_exactly(self, platform, clustered_data):
        checker = PartitionChecker(platform.indexes["t"])
        for i in range(4):
            platform.query("t", clustered_data[i], 22.0, checker=checker)
        assert checker.checks.get("split", 0) > 0
        assert checker.checks.get("refine", 0) > 0
        assert checker.ok

    def test_split_matches_query_split(self, index):
        checker = PartitionChecker(index)
        q = index.make_query(index.dataset[0], 30.0)
        subs = query_split(q, q.prefix_len + 1, index.bounds, index.m)
        if len(subs) == 2:
            checker.on_split(q, subs)
            assert checker.checks["split"] == 1

    def test_wrong_arity_detected(self, index):
        checker = PartitionChecker(index)
        q = index.make_query(index.dataset[0], 30.0)
        with pytest.raises(InvariantViolation, match="split.arity"):
            checker.on_split(q, [q])

    def test_gap_in_refinement_detected(self, index):
        checker = PartitionChecker(index)
        q = index.make_query(index.dataset[0], 30.0)
        key_lo = q.prefix_key
        key_hi = key_lo + (1 << (index.m - q.prefix_len)) - 1
        # local coverage stops one key short of the claim, no siblings
        with pytest.raises(InvariantViolation, match="refine.gap"):
            checker.on_refine(q, key_hi, key_lo, key_hi - 1, [])

    def test_full_local_coverage_accepted(self, index):
        checker = PartitionChecker(index)
        q = index.make_query(index.dataset[0], 30.0)
        key_lo = q.prefix_key
        key_hi = key_lo + (1 << (index.m - q.prefix_len)) - 1
        checker.on_refine(q, key_hi, key_lo, key_hi, [])
        assert checker.checks["refine"] == 1


# -- span/stats reconciliation --------------------------------------------------------


class TestSpanReconciliation:
    @staticmethod
    def _span(kind, **attrs):
        return Span(sid=0, qid=1, kind=kind, attrs=attrs)

    def test_balanced_stream_reconciles(self):
        spans = [
            self._span("send", charged=True, attempt=1),
            self._span("send", charged=True, attempt=2),
            self._span("send", charged=False, attempt=1),  # result reply
            self._span("result"),
            self._span("drop"),
            self._span("solve"),
        ]
        qs = QueryStats(qid=1, query_messages=2, result_messages=1,
                        dropped_messages=1, retransmissions=1)
        assert reconcile_with_stats(spans, qs) == []

    def test_each_counter_mismatch_reported(self):
        qs = QueryStats(qid=1, query_messages=3, result_messages=2,
                        dropped_messages=1, retransmissions=1)
        problems = reconcile_with_stats([], qs)
        assert len(problems) == 4
        assert any("query_messages" in p for p in problems)

    def test_traced_run_reconciles_end_to_end(self, clustered_data):
        from repro.core.platform import IndexPlatform
        from repro.obs import Observability

        ring = ChordRing.build(16, m=20, seed=2,
                               latency=ConstantLatency(16, delay=0.01))
        obs = Observability(metrics=False, tracing=True)
        platform = IndexPlatform(ring, obs=obs)
        platform.create_index(
            "t", clustered_data, EuclideanMetric(box=(0, 100), dim=6),
            k=3, sample_size=200, seed=0,
        )
        engine = platform.lifecycle()
        platform.query("t", clustered_data[3], 25.0, engine=engine)
        checker = InvariantChecker(platform=platform)
        checker.check_spans(engine.stats)
        assert checker.checks["spans"] >= 1


# -- periodic attachment ---------------------------------------------------------------


class TestPeriodicChecking:
    def test_tick_rearms_only_while_events_pending(self, small_ring):
        sim = Simulator()
        checker = InvariantChecker(ring=small_ring)
        fired = []
        sim.schedule_in(0.3, fired.append, "a")
        sim.schedule_in(1.2, fired.append, "b")
        checker.attach(sim, interval=0.5)
        sim.run()  # must terminate: the tick stops re-arming when queue drains
        assert fired == ["a", "b"]
        assert checker.checks["ring"] >= 2

    def test_attached_checker_raises_mid_run(self):
        ring = ChordRing.build(8, m=16, seed=4)
        sim = Simulator()
        checker = InvariantChecker(ring=ring)
        sim.schedule_in(0.2, lambda: setattr(ring.nodes()[0], "predecessor", None))
        sim.schedule_in(2.0, lambda: None)
        checker.attach(sim, interval=0.5)
        with pytest.raises(InvariantViolation, match="ring.predecessor"):
            sim.run()
