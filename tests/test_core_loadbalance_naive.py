"""Tests for load balancing (§3.4) and the naive routing baseline (§3.3)."""

import numpy as np

from repro.core.loadbalance import (
    dynamic_load_migration,
    hotspot_overlap,
    probe_neighbourhood,
)
from repro.core.lph import prefix_to_cuboid
from repro.core.naive import NaiveProtocol, decompose_to_owner_cuboids
from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _skewed_platform(n_nodes=24, n_obj=800, seed=0, rotation=False):
    """Highly clustered data -> skewed key distribution -> uneven load."""
    rng = np.random.default_rng(seed)
    center = rng.uniform(30, 70, size=(1, DIM))
    data = np.clip(center + rng.normal(0, 3, size=(n_obj, DIM)), 0, 100)
    latency = ConstantLatency(n_nodes, delay=0.02)
    ring = ChordRing.build(n_nodes, m=24, seed=seed, latency=latency, pns=False)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, METRIC, k=3, selection="greedy", sample_size=300,
        rotation=rotation, seed=seed,
    )
    return platform, data


class TestProbeNeighbourhood:
    def test_level_one_is_routing_table(self):
        platform, _ = _skewed_platform()
        node = platform.ring.nodes()[0]
        probed = probe_neighbourhood(node, 1)
        table_ids = {n.id for n in node.routing_table()} - {node.id}
        assert {n.id for n in probed} == table_ids

    def test_levels_monotone(self):
        platform, _ = _skewed_platform()
        node = platform.ring.nodes()[0]
        sizes = [len(probe_neighbourhood(node, lvl)) for lvl in (1, 2, 3)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_excludes_self(self):
        platform, _ = _skewed_platform()
        node = platform.ring.nodes()[0]
        assert node not in probe_neighbourhood(node, 2)


class TestDynamicMigration:
    def test_reduces_imbalance(self):
        platform, _ = _skewed_platform()
        before = platform.load_distribution()
        report = dynamic_load_migration(platform, delta=0.0, probe_level=4, seed=0)
        after = platform.load_distribution()
        assert before.sum() == after.sum()  # no entries lost
        assert report.final_max_load <= report.initial_max_load
        assert report.moves > 0
        assert report.final_imbalance <= report.initial_imbalance

    def test_queries_still_exact_after_lb(self):
        platform, data = _skewed_platform()
        dynamic_load_migration(platform, delta=0.0, probe_level=4, seed=0)
        proto, stats = platform.protocol("idx", top_k=10**6)
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 12.0, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        got = sorted(e.object_id for e in stats.for_query(0).entries)
        want = sorted(exact_range(data, METRIC, data[0], 12.0).tolist())
        assert got == want

    def test_delta_controls_aggressiveness(self):
        p1, _ = _skewed_platform(seed=2)
        p2, _ = _skewed_platform(seed=2)
        eager = dynamic_load_migration(p1, delta=0.0, probe_level=4, seed=0)
        lazy = dynamic_load_migration(p2, delta=5.0, probe_level=4, seed=0)
        assert eager.moves >= lazy.moves

    def test_report_migration_volume(self):
        platform, _ = _skewed_platform()
        report = dynamic_load_migration(platform, seed=0)
        if report.moves:
            assert report.entries_migrated > 0

    def test_converges_without_skew(self):
        """Uniform data should require few or no moves."""
        rng = np.random.default_rng(1)
        data = rng.uniform(0, 100, size=(600, DIM))
        ring = ChordRing.build(24, m=24, seed=1, latency=ConstantLatency(24), pns=False)
        platform = IndexPlatform(ring)
        platform.create_index("idx", data, METRIC, k=3, selection="greedy", seed=1)
        report = dynamic_load_migration(platform, delta=1.0, probe_level=2, seed=0)
        assert report.rounds <= 40


class TestRotationHotspots:
    def test_rotation_reduces_hotspot_overlap(self):
        """Several similarly-skewed indexes without rotation overload the same
        nodes; rotation spreads their hot arcs (§3.4 static balancing)."""

        def build(rotation):
            rng = np.random.default_rng(5)
            center = rng.uniform(40, 60, size=(1, DIM))
            ring = ChordRing.build(32, m=24, seed=5, latency=ConstantLatency(32), pns=False)
            platform = IndexPlatform(ring)
            for i in range(4):
                data = np.clip(center + rng.normal(0, 3, size=(400, DIM)), 0, 100)
                platform.create_index(
                    f"idx{i}", data, METRIC, k=3, selection="greedy",
                    sample_size=200, rotation=rotation, seed=5,
                )
            return platform

        no_rot = hotspot_overlap(build(False))
        with_rot = hotspot_overlap(build(True))
        assert with_rot < no_rot

    def test_single_index_overlap_is_one(self):
        platform, _ = _skewed_platform()
        assert hotspot_overlap(platform) == 1.0


class TestNaiveDecomposition:
    def test_covers_query_rect(self):
        platform, data = _skewed_platform()
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 10.0)
        pieces = decompose_to_owner_cuboids(index, q.rect)
        assert pieces
        # every stored entry in the rect must fall in some piece's box+keys
        total = 0
        for _, _, lo, hi in pieces:
            assert np.all(lo <= hi)
        # pieces' key ranges must be disjoint
        ranges = sorted(
            (pk, pk + (1 << (index.m - pl)) - 1) for pk, pl, _, _ in pieces
        )
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 < a2

    def test_boxes_are_the_replayed_cuboids(self):
        """The decomposition halves the parent's cuboid per child; every box
        must still be, bit for bit, rect ∩ prefix_to_cuboid from the root."""
        platform, data = _skewed_platform()
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 10.0)
        pieces = decompose_to_owner_cuboids(index, q.rect)
        assert max(pl for _, pl, _, _ in pieces) > index.bounds.k  # dims revisited
        for pk, pl, lo, hi in pieces:
            clo, chi = prefix_to_cuboid(pk, pl, index.bounds, index.m)
            assert lo.tobytes() == np.maximum(q.rect.lows, clo).tobytes()
            assert hi.tobytes() == np.minimum(q.rect.highs, chi).tobytes()

    def test_single_owner_per_piece(self):
        platform, data = _skewed_platform()
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 10.0)
        for pk, pl, _, _ in decompose_to_owner_cuboids(index, q.rect):
            span = 1 << (index.m - pl)
            mask = (1 << index.m) - 1
            lo = (pk + index.rotation) & mask
            hi = (pk + span - 1 + index.rotation) & mask
            assert platform.ring.successor_of(lo) is platform.ring.successor_of(hi)


class TestNaiveProtocol:
    def test_same_results_as_tree_routing(self):
        platform, data = _skewed_platform(n_obj=500, seed=7)
        index = platform.indexes["idx"]
        for qi in (0, 10, 200):
            naive = NaiveProtocol(platform.transport, index, top_k=10**6)
            nstats = naive.stats
            platform.sim.reset()
            naive.issue(index.make_query(data[qi], 9.0, qid=0), platform.ring.nodes()[0])
            platform.sim.run()

            proto, tstats = platform.protocol("idx", top_k=10**6)
            platform.sim.reset()
            proto.issue(index.make_query(data[qi], 9.0, qid=0), platform.ring.nodes()[0])
            platform.sim.run()

            assert sorted(e.object_id for e in nstats.for_query(0).entries) == sorted(
                e.object_id for e in tstats.for_query(0).entries
            )

    def test_naive_costs_more_messages(self):
        """The whole point of §3.3: per-cuboid lookups send far more
        messages than embedded-tree routing for selective queries."""
        platform, data = _skewed_platform(n_obj=800, seed=9)
        index = platform.indexes["idx"]

        naive = NaiveProtocol(platform.transport, index)
        nstats = naive.stats
        platform.sim.reset()
        naive.issue(index.make_query(data[0], 10.0, qid=0), platform.ring.nodes()[0])
        platform.sim.run()

        proto, tstats = platform.protocol("idx")
        platform.sim.reset()
        proto.issue(index.make_query(data[0], 10.0, qid=0), platform.ring.nodes()[0])
        platform.sim.run()

        assert (
            nstats.for_query(0).query_messages >= tstats.for_query(0).query_messages
        )
