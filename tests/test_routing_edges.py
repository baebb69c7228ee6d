"""Edge-case tests for the query protocol: bundling, empty indexes,
reply policies, extreme rotations, non-uniform bounds, m=64."""

import numpy as np
import pytest

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import lp_hash, lp_hash_batch, prefix_to_cuboid, smallest_enclosing_prefix
from repro.core.knn import knn_search
from repro.core.naive import decompose_to_owner_cuboids
from repro.core.platform import IndexPlatform
from repro.core.routing import QueryProtocol
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

DIM = 3
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _platform(n_nodes=12, n_obj=200, seed=0, m=20, rotation=False, data=None):
    rng = np.random.default_rng(seed)
    if data is None:
        data = rng.uniform(0, 100, size=(n_obj, DIM))
    ring = ChordRing.build(n_nodes, m=m, seed=seed, latency=ConstantLatency(n_nodes, 0.01))
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, METRIC, k=2, sample_size=min(100, len(data)),
        rotation=rotation, seed=seed,
    )
    return platform, data


class TestReplyPolicies:
    def test_no_hit_query_still_gets_a_reply(self):
        platform, data = _platform()
        # a query in an empty corner of the space
        probe = np.full(DIM, 0.0)
        proto, stats = platform.protocol("idx", top_k=5)
        platform.sim.reset()
        q = platform.indexes["idx"].make_query(probe, 0.01, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        assert stats.for_query(0).result_messages >= 1

    def test_results_to_self_cost_nothing(self):
        """When the querier itself is the index node, the reply is free."""
        platform, data = _platform(n_nodes=1)
        proto, stats = platform.protocol("idx", top_k=10**6)
        platform.sim.reset()
        q = platform.indexes["idx"].make_query(data[0], 10.0, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        st = stats.for_query(0)
        assert st.result_bytes == 0
        assert st.query_bytes == 0  # single node: everything local
        assert len(st.entries) == len(exact_range(data, METRIC, data[0], 10.0))


class TestEmptyAndTinyIndexes:
    def test_empty_dataset_rejected(self):
        """An index needs at least k objects to select landmarks from."""
        ring = ChordRing.build(4, m=16, seed=0)
        platform = IndexPlatform(ring)
        with pytest.raises(ValueError):
            platform.create_index("idx", np.empty((0, DIM)), METRIC, k=2)

    def test_single_object(self):
        data = np.full((1, DIM), 42.0)
        ring = ChordRing.build(4, m=16, seed=0)
        platform = IndexPlatform(ring)
        platform.create_index("idx", data, METRIC, k=1, sample_size=1)
        res = platform.query("idx", np.full(DIM, 42.0), radius=1.0)
        assert [e.object_id for e in res] == [0]

    def test_duplicate_objects(self):
        """Identical objects share a key; all must be returned."""
        data = np.tile(np.full((1, DIM), 33.0), (5, 1))
        platform, _ = _platform(data=data)
        res = platform.query("idx", np.full(DIM, 33.0), radius=0.5, top_k=10**6)
        assert sorted(e.object_id for e in res) == [0, 1, 2, 3, 4]


class TestExtremeRotation:
    @pytest.mark.parametrize("m", [20, 64])
    def test_m_bit_sizes(self, m):
        platform, data = _platform(m=m, rotation=True, seed=3)
        want = sorted(exact_range(data, METRIC, data[0], 30.0).tolist())
        proto, stats = platform.protocol("idx", top_k=10**6)
        platform.sim.reset()
        q = platform.indexes["idx"].make_query(data[0], 30.0, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        assert sorted(e.object_id for e in stats.for_query(0).entries) == want

    def test_manual_rotation_wraps_ring(self):
        """A rotation putting the hot range across the 0-wrap still works."""
        platform, data = _platform(seed=4)
        index = platform.indexes["idx"]
        index.rotation = (1 << index.m) - 5  # keys wrap past zero
        index.distribute()
        want = sorted(exact_range(data, METRIC, data[1], 25.0).tolist())
        proto, stats = platform.protocol("idx", top_k=10**6)
        platform.sim.reset()
        proto.issue(index.make_query(data[1], 25.0, qid=0), platform.ring.nodes()[2])
        platform.sim.run()
        assert sorted(e.object_id for e in stats.for_query(0).entries) == want


class TestNonUniformBounds:
    def test_lph_with_mixed_bounds(self):
        bounds = IndexSpaceBounds(np.array([-5.0, 100.0]), np.array([3.0, 101.0]))
        pts = np.array([[-4.9, 100.01], [2.9, 100.99], [-1.0, 100.5]])
        keys = lp_hash_batch(pts, bounds, 16)
        for i, p in enumerate(pts):
            assert int(keys[i]) == lp_hash(p, bounds, 16)
            lo, hi = prefix_to_cuboid(int(keys[i]), 16, bounds, 16)
            assert np.all(p >= lo - 1e-9) and np.all(p <= hi + 1e-9)

    def test_enclosing_prefix_with_mixed_bounds(self):
        bounds = IndexSpaceBounds(np.array([-5.0, 100.0]), np.array([3.0, 101.0]))
        key, ln = smallest_enclosing_prefix(
            np.array([-4.0, 100.1]), np.array([-3.5, 100.2]), bounds, 16
        )
        lo, hi = prefix_to_cuboid(key, ln, bounds, 16)
        assert lo[0] <= -4.0 and hi[0] >= -3.5
        assert lo[1] <= 100.1 and hi[1] >= 100.2


class TestNaiveEdges:
    def test_decomposition_cap(self):
        platform, data = _platform(n_nodes=24, n_obj=300, seed=5)
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 200.0)  # whole space
        with pytest.raises(RuntimeError):
            decompose_to_owner_cuboids(index, q.rect, max_subqueries=2)

    def test_decomposition_with_rotation(self):
        platform, data = _platform(rotation=True, seed=6)
        index = platform.indexes["idx"]
        q = index.make_query(data[0], 15.0)
        pieces = decompose_to_owner_cuboids(index, q.rect)
        # pieces must jointly contain every in-range stored point
        ids = exact_range(data, METRIC, data[0], 15.0)
        pts = index.space.project(data[ids])
        for p in pts:
            assert any(
                np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)
                for _, _, lo, hi in pieces
            )


class TestBundling:
    def test_messages_bundle_subqueries(self):
        """With many subqueries, message count < subquery count thanks to
        same-next-hop bundling (the n-term of the paper's byte model)."""
        rng = np.random.default_rng(7)
        data = rng.uniform(0, 100, size=(500, DIM))
        platform, _ = _platform(n_nodes=4, data=data, seed=7)
        proto, stats = platform.protocol("idx", top_k=10**6)
        platform.sim.reset()
        q = platform.indexes["idx"].make_query(data[0], 120.0, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        st = stats.for_query(0)
        # bytes accounting must match the size model given bundling:
        # every message has >= the minimum frame of one subquery
        from repro.sim.messages import query_message_size

        assert st.query_bytes >= st.query_messages * query_message_size(1, 2)


class TestRefusedQueryArguments:
    """A negative ``top_k`` or a negative/NaN radius used to run and return
    a silently short answer; both are refused before anything is sent."""

    def _one_hit(self):
        # 16 nodes; a radius whose answer is exactly one row
        platform, data = _platform(n_nodes=16)
        d = METRIC.one_to_many(data[0], data)
        radius = float(np.partition(d, 1)[1]) / 2
        assert (d <= radius).sum() == 1
        return platform, data, radius

    @pytest.mark.parametrize("top_k", [-1, -10, 2.0, True, None, "3"])
    def test_bad_top_k_refused(self, top_k):
        platform, data, radius = self._one_hit()
        with pytest.raises(ValueError, match="top_k"):
            platform.query("idx", data[0], radius, top_k=top_k)
        with pytest.raises(ValueError, match="top_k"):
            QueryProtocol(platform.sim, platform.indexes["idx"], top_k=top_k)

    def test_top_k_zero_and_numpy_ints_are_legal(self):
        platform, data, radius = self._one_hit()
        assert platform.query("idx", data[0], radius, top_k=0) == []
        hits = platform.query("idx", data[0], radius, top_k=np.int64(1))
        assert [e.object_id for e in hits] == [0]

    @pytest.mark.parametrize("radius", [-5.0, -1e-9, float("nan")])
    def test_negative_or_nan_radius_refused(self, radius):
        platform, data, _ = self._one_hit()
        index = platform.indexes["idx"]
        sent = platform.transport.stats.sent
        for call in (
            lambda: platform.query("idx", data[0], radius),
            lambda: index.make_query(data[0], radius),
            lambda: index.make_queries(data[:2], [1.0, radius]),
            lambda: knn_search(platform, "idx", data[0], k=3, initial_radius=radius),
        ):
            with pytest.raises(ValueError, match="radius"):
                call()
        assert platform.transport.stats.sent == sent
