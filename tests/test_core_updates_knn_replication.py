"""Tests for dynamic entry updates, k-NN search, replication and failures."""

import numpy as np
import pytest

from repro.core.knn import knn_search
from repro.core.platform import IndexPlatform
from repro.core.updates import UpdateProtocol, entry_message_size
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range, exact_top_k
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _platform(n_nodes=20, n_obj=400, seed=0, replication=1, index_on=None):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(centers[rng.integers(0, 3, n_obj)] + rng.normal(0, 5, (n_obj, DIM)), 0, 100)
    latency = ConstantLatency(n_nodes, delay=0.01)
    ring = ChordRing.build(n_nodes, m=22, seed=seed, latency=latency, pns=False)
    platform = IndexPlatform(ring)
    subset = data if index_on is None else data[:index_on]
    platform.create_index(
        "idx", data, METRIC, k=3, selection="kmeans", sample_size=min(200, len(subset)),
        replication=replication, seed=seed,
    )
    return platform, data


def _range_ids(platform, data, qi, radius):
    proto, stats = platform.protocol("idx", top_k=10**6)
    index = platform.indexes["idx"]
    platform.sim.reset()
    proto.issue(index.make_query(data[qi], radius, qid=0), platform.ring.nodes()[0])
    platform.sim.run()
    return sorted(e.object_id for e in stats.for_query(0).entries)


class TestUpdates:
    def test_entry_message_size(self):
        assert entry_message_size(1, 5) == 24 + (20 + 16)
        assert entry_message_size(3, 2) == 24 + 3 * (8 + 16)

    def test_delete_removes_from_results(self):
        platform, data = _platform()
        up = UpdateProtocol(platform.indexes["idx"])
        target = _range_ids(platform, data, 0, 25.0)
        assert 0 in target
        assert up.delete(0)
        after = _range_ids(platform, data, 0, 25.0)
        assert 0 not in after
        assert set(after) == set(target) - {0}

    def test_delete_missing_returns_false(self):
        platform, _ = _platform()
        up = UpdateProtocol(platform.indexes["idx"])
        assert up.delete(0)
        assert not up.delete(0)
        assert up.stats.deletes == 1

    def test_insert_after_delete_restores(self):
        platform, data = _platform()
        up = UpdateProtocol(platform.indexes["idx"])
        before = _range_ids(platform, data, 5, 25.0)
        up.delete(5)
        up.insert(5)
        assert _range_ids(platform, data, 5, 25.0) == before

    def test_inserting_an_indexed_object_raises_and_places_nothing(self):
        platform, _ = _platform()
        idx = platform.indexes["idx"]
        up = UpdateProtocol(idx)
        up.delete(1)
        billed = vars(up.stats).copy()
        before = idx.load_distribution().copy()
        for call, ids in ((lambda: up.insert(5), "[5]"),
                          (lambda: up.insert_many([1, 9, 5]), "[5, 9]"),
                          (lambda: up.insert_many([1, 1]), "[1]")):
            with pytest.raises(ValueError, match=rf"already indexed: \{ids}"):
                call()
        assert vars(up.stats) == billed  # no routing billed
        assert idx.load_distribution().tolist() == before.tolist()
        up.insert(1)
        assert idx.total_entries() == 400 == idx.load_distribution().sum()

    def test_incremental_build_matches_bulk(self):
        """Index built by protocol inserts == index built in bulk."""
        platform_bulk, data = _platform(seed=3)
        # fresh platform indexing only the first 300; insert the rest
        platform_inc, data2 = _platform(seed=3)
        np.testing.assert_array_equal(data, data2)
        idx = platform_inc.indexes["idx"]
        up = UpdateProtocol(idx)
        removed = list(range(300, 400))
        for oid in removed:
            up.delete(oid)
        for oid in removed:
            up.insert(oid)
        for qi in (0, 350):
            assert _range_ids(platform_inc, data, qi, 30.0) == _range_ids(
                platform_bulk, data, qi, 30.0
            )

    def test_insert_many(self):
        platform, data = _platform()
        idx = platform.indexes["idx"]
        up = UpdateProtocol(idx)
        for oid in (1, 2, 3):
            up.delete(oid)
        up.insert_many([1, 2, 3])
        assert up.stats.inserts == 3
        got = _range_ids(platform, data, 1, 20.0)
        want = sorted(exact_range(data, METRIC, data[1], 20.0).tolist())
        assert got == want

    def test_insert_and_insert_many_append_the_same_entries(self):
        """Both place through ``LandmarkIndex.place``: same keys, points and
        ids bit for bit, one placement an insert and one for a batch."""
        oids = [4, 9, 2, 17]

        def reinserted(batch):
            platform, _ = _platform(seed=5)
            idx = platform.indexes["idx"]
            up = UpdateProtocol(idx)
            for oid in oids:
                up.delete(oid)
            place, calls = idx.place, []

            def counted(*batch):
                calls.append(1)
                return place(*batch)

            idx.place = counted
            if batch:
                up.insert_many(oids)
            else:
                for oid in oids:
                    up.insert(oid)
            assert len(calls) == (1 if batch else len(oids))
            return idx

        one, many = reinserted(False), reinserted(True)
        for a, b in zip(one.entries(), many.entries()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_update_costs_accounted(self):
        platform, _ = _platform()
        up = UpdateProtocol(platform.indexes["idx"])
        up.delete(7)
        up.insert(7)
        assert up.stats.messages >= 2
        assert up.stats.bytes > 0
        assert up.stats.mean_hops >= 0.0

    def test_entries_conserved_after_updates(self):
        platform, _ = _platform()
        idx = platform.indexes["idx"]
        up = UpdateProtocol(idx)
        up.delete(0)
        assert idx.total_entries() == 399
        up.insert(0)
        assert idx.total_entries() == 400
        assert idx.load_distribution().sum() == 400


class TestKnn:
    def test_exact_against_ground_truth(self):
        platform, data = _platform(n_obj=500, seed=1)
        for qi in (0, 123, 400):
            res = knn_search(platform, "idx", data[qi], k=10)
            truth = exact_top_k(data, METRIC, data[qi], 10)
            assert res.exact
            assert set(res.object_ids.tolist()) == set(int(t) for t in truth)

    def test_distances_sorted(self):
        platform, data = _platform(seed=2)
        res = knn_search(platform, "idx", data[3], k=8)
        assert np.all(np.diff(res.distances) >= 0)

    def test_radius_grows_until_certified(self):
        platform, data = _platform(seed=2)
        res = knn_search(platform, "idx", data[3], k=10, initial_radius=0.5)
        assert res.rounds > 1
        assert res.final_radius > 0.5

    def test_large_initial_radius_one_round(self):
        platform, data = _platform(seed=2)
        res = knn_search(platform, "idx", data[3], k=5, initial_radius=METRIC.upper_bound)
        assert res.rounds == 1 and res.exact

    def test_cost_accumulates_over_rounds(self):
        platform, data = _platform(seed=2)
        res = knn_search(platform, "idx", data[3], k=10, initial_radius=1.0)
        assert res.query_messages > 0
        assert res.index_nodes >= 1

    def test_k_larger_than_dataset(self):
        platform, data = _platform(n_obj=30, seed=4)
        res = knn_search(platform, "idx", data[0], k=50)
        assert len(res.object_ids) == 30
        assert res.exact


class TestReplication:
    def test_replicas_increase_storage_not_results(self):
        p1, data = _platform(seed=5, replication=1)
        p3, data3 = _platform(seed=5, replication=3)
        np.testing.assert_array_equal(data, data3)
        assert p3.indexes["idx"].load_distribution().sum() == 3 * 400
        assert p1.indexes["idx"].load_distribution().sum() == 400
        # identical query answers (replicas invisible while primaries live)
        for qi in (0, 100):
            assert _range_ids(p1, data, qi, 30.0) == _range_ids(p3, data, qi, 30.0)

    def test_no_duplicate_results_with_replication(self):
        platform, data = _platform(seed=5, replication=3)
        ids = _range_ids(platform, data, 0, 40.0)
        assert len(ids) == len(set(ids))

    def test_crash_without_replication_loses_data(self):
        platform, data = _platform(seed=6, replication=1)
        idx = platform.indexes["idx"]
        # find a node holding entries
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        lost = set(int(o) for o in idx.shards[victim].object_ids)
        assert lost
        platform.fail_node(victim)
        survivors = set(idx.entries()[2].tolist())
        assert survivors == set(range(400)) - lost
        assert idx.total_entries() == 400 - len(lost)

    def test_crash_with_replication_loses_nothing(self):
        platform, data = _platform(seed=6, replication=2)
        idx = platform.indexes["idx"]
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        platform.fail_node(victim)
        assert idx.total_entries() == 400

    def test_queries_survive_crash_with_replication(self):
        platform, data = _platform(seed=7, replication=2)
        idx = platform.indexes["idx"]
        want = {}
        for qi in (0, 50):
            want[qi] = _range_ids(platform, data, qi, 30.0)
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        platform.fail_node(victim)
        for qi in (0, 50):
            assert _range_ids(platform, data, qi, 30.0) == want[qi]

    def test_rebuild_restores_replication(self):
        platform, data = _platform(seed=8, replication=2)
        idx = platform.indexes["idx"]
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        platform.fail_node(victim)
        assert idx.distribute() > 0  # the victim's entries have new primaries
        assert idx.total_entries() == 400
        assert idx.load_distribution().sum() == 2 * 400
        # a second crash (different node) still loses nothing
        idx2 = platform.indexes["idx"]
        victim2 = max(idx2.shards, key=lambda n: idx2.shards[n].load)
        platform.fail_node(victim2)
        assert idx2.total_entries() == 400

    def test_replication_capped_by_ring_size(self):
        platform, data = _platform(n_nodes=2, seed=9, replication=5)
        idx = platform.indexes["idx"]
        assert idx.load_distribution().sum() == 2 * 400

    def test_invalid_replication_rejected(self):
        rng = np.random.default_rng(0)
        ring = ChordRing.build(4, m=16, seed=0)
        platform = IndexPlatform(ring)
        with pytest.raises(ValueError):
            platform.create_index(
                "x", rng.uniform(0, 100, (20, DIM)), METRIC, k=2, replication=0
            )
