"""Tests for the IndexPlatform facade: multi-index hosting, storage,
refinement modes, reindexing, and the storage Shard."""

import numpy as np
import pytest

from repro.core.platform import IndexPlatform, take
from repro.core.storage import Shard
from repro.dht.ring import ChordRing
from repro.metric.strings import EditDistanceMetric
from repro.metric.transforms import BoundedMetric
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _platform(n_nodes=16, seed=0):
    latency = ConstantLatency(n_nodes, delay=0.01)
    ring = ChordRing.build(n_nodes, m=20, seed=seed, latency=latency, pns=False)
    return IndexPlatform(ring)


def _data(seed=0, n=300):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(3, DIM))
    return np.clip(centers[rng.integers(0, 3, n)] + rng.normal(0, 5, (n, DIM)), 0, 100)


class TestShard:
    def test_empty(self):
        s = Shard(3)
        assert len(s) == 0
        assert s.load == 0
        assert s.range_search(np.zeros(3), np.ones(3)).size == 0

    def test_add_and_search(self):
        s = Shard(2)
        s.add(
            np.array([1, 2, 3], dtype=np.uint64),
            np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]),
            np.array([10, 20, 30]),
        )
        pos = s.range_search(np.array([0.0, 0.0]), np.array([0.6, 0.6]))
        assert s.object_ids[pos].tolist() == [10, 20]

    def test_key_range_filter(self):
        s = Shard(1)
        s.add(
            np.array([5, 10, 15], dtype=np.uint64),
            np.array([[0.5], [0.5], [0.5]]),
            np.array([1, 2, 3]),
        )
        pos = s.range_search(np.array([0.0]), np.array([1.0]), key_lo=6, key_hi=14)
        assert s.object_ids[pos].tolist() == [2]

    def test_clear(self):
        s = Shard(2)
        s.add(np.array([1], dtype=np.uint64), np.array([[0.1, 0.1]]), np.array([7]))
        s.clear()
        assert len(s) == 0
        assert s.points.shape == (0, 2)


class TestTake:
    def test_array(self):
        a = np.arange(10)
        assert take(a, 3) == 3
        np.testing.assert_array_equal(take(a, [1, 2]), [1, 2])

    def test_list(self):
        xs = ["a", "b", "c"]
        assert take(xs, 1) == "b"
        assert take(xs, np.array([0, 2])) == ["a", "c"]

    def test_sparse(self):
        from scipy import sparse

        X = sparse.csr_matrix(np.eye(3))
        assert take(X, 1).shape == (1, 3)


class TestIndexLifecycle:
    def test_create_and_query(self):
        platform = _platform()
        data = _data()
        idx = platform.create_index("a", data, METRIC, k=3, seed=0)
        assert idx.total_entries() == len(data)
        res = platform.query("a", data[0], radius=20.0)
        assert res and res[0].object_id == 0

    def test_entries_conserved_across_nodes(self):
        platform = _platform()
        data = _data()
        idx = platform.create_index("a", data, METRIC, k=3, seed=0)
        assert idx.load_distribution().sum() == len(data)

    def test_entries_stored_at_owners(self):
        platform = _platform()
        data = _data()
        idx = platform.create_index("a", data, METRIC, k=3, seed=0)
        mask = np.uint64((1 << idx.m) - 1)
        for node, shard in idx.shards.items():
            for key in shard.keys:
                ring_key = int((key + np.uint64(idx.rotation)) & mask)
                assert platform.ring.successor_of(ring_key) is node

    def test_duplicate_name_rejected(self):
        platform = _platform()
        data = _data()
        platform.create_index("a", data, METRIC, k=2, seed=0)
        with pytest.raises(ValueError):
            platform.create_index("a", data, METRIC, k=2, seed=0)

    def test_drop_index(self):
        platform = _platform()
        platform.create_index("a", _data(), METRIC, k=2, seed=0)
        platform.drop_index("a")
        assert "a" not in platform.indexes

    def test_multiple_indexes_different_types(self):
        """The headline feature: several indexes over different data types on
        one overlay, no extra routing structures."""
        platform = _platform()
        vec = _data()
        platform.create_index("vectors", vec, METRIC, k=3, seed=0)
        seqs = ["acgtacgt", "acgtaccc", "ttttgggg", "ttttggga", "cgcgcgcg"] * 20
        platform.create_index(
            "dna", seqs, BoundedMetric(EditDistanceMetric()), k=2,
            selection="kmedoids", boundary="metric", seed=1,
        )
        rv = platform.query("vectors", vec[0], radius=25.0)
        assert rv[0].object_id == 0
        rs = platform.query("dna", "acgtacgt", radius=0.5)
        got = {e.object_id for e in rs}
        assert 0 in got  # itself (and its duplicates)

    def test_node_load_sums_over_indexes(self):
        platform = _platform()
        platform.create_index("a", _data(0), METRIC, k=2, seed=0)
        platform.create_index("b", _data(1), METRIC, k=2, seed=1, rotation=True)
        node = platform.ring.nodes()[0]
        assert platform.node_load(node) == (
            platform.indexes["a"].shards[node].load
            + platform.indexes["b"].shards[node].load
        )
        assert platform.load_distribution().sum() == 600


class TestRefineModes:
    def test_index_mode_is_lower_bound(self):
        platform = _platform()
        data = _data()
        platform.create_index("a", data, METRIC, k=3, refine_mode="index", seed=0)
        res = platform.query("a", data[0], radius=25.0, top_k=10 ** 6)
        for e in res:
            assert e.distance <= METRIC.distance(data[0], data[e.object_id]) + 1e-9

    def test_bad_mode_rejected(self):
        platform = _platform()
        with pytest.raises(ValueError):
            platform.create_index("a", _data(), METRIC, k=2, refine_mode="psychic")


class TestReindex:
    def test_adoption_improves_or_keeps(self):
        platform = _platform()
        data = _data()
        platform.create_index("a", data, METRIC, k=3, selection="greedy", seed=0)
        old = platform.indexes["a"]
        report = platform.reindex("a", selection="kmeans", threshold=0.0, seed=9)
        assert {"old_score", "new_score", "adopted", "moved"} <= set(report)
        if report["adopted"]:
            assert platform.indexes["a"] is not old
            # index still answers correctly after migration
            res = platform.query("a", data[0], radius=20.0)
            assert res[0].object_id == 0
        else:
            assert platform.indexes["a"] is old

    def test_high_threshold_blocks_adoption(self):
        platform = _platform()
        platform.create_index("a", _data(), METRIC, k=3, selection="kmeans", seed=0)
        report = platform.reindex("a", selection="kmeans", threshold=1e9, seed=1)
        assert report["adopted"] == 0.0


class TestFilteringScore:
    def test_kmeans_filters_better_than_random_single(self):
        platform = _platform()
        data = _data()
        platform.create_index("good", data, METRIC, k=5, selection="kmeans", seed=0)
        score = platform.indexes["good"].filtering_score(data, seed=0)
        assert 0.0 < score <= 1.0


class TestNanQueryCenter:
    """A query object with one NaN coordinate projects to an index point that
    is NaN in every landmark dimension; every entry point refuses it instead
    of flooding the ring with a whole-space query that answers nothing."""

    @pytest.fixture(scope="class")
    def platform(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(0, 100, size=(2000, 8))
        ring = ChordRing.build(64, m=32, seed=8, pns=False)
        p = IndexPlatform(ring)
        p.create_index("t", data, EuclideanMetric(box=(0, 100), dim=8), k=4,
                       sample_size=300, seed=8)
        return p, data

    def _bad(self, data):
        obj = data[0].copy()
        obj[3] = np.nan
        return obj

    def test_make_query_refuses(self, platform):
        p, data = platform
        with pytest.raises(ValueError, match="NaN"):
            p.indexes["t"].make_query(self._bad(data), 5.0)

    def test_make_queries_refuses(self, platform):
        p, data = platform
        objs = np.stack([data[1], self._bad(data)])
        with pytest.raises(ValueError, match="NaN"):
            p.indexes["t"].make_queries(objs, [5.0, 5.0])

    def test_query_and_knn_search_refuse(self, platform):
        from repro.core.knn import knn_search

        p, data = platform
        sent = p.transport.stats.sent
        with pytest.raises(ValueError, match="NaN"):
            p.query("t", self._bad(data), 5.0)
        with pytest.raises(ValueError, match="NaN"):
            knn_search(p, "t", self._bad(data), k=4)
        assert p.transport.stats.sent == sent
