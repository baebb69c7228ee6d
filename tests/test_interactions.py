"""Cross-feature interaction tests: features composed together must keep the
core invariant (routed results == exact scan) and their own guarantees."""

import numpy as np

from repro.core.knn import knn_search
from repro.core.loadbalance import dynamic_load_migration
from repro.core.platform import IndexPlatform
from repro.core.routing import QueryProtocol
from repro.core.updates import UpdateProtocol
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range, exact_top_k
from repro.metric.vector import EuclideanMetric
from repro.obs import Observability
from repro.sim.network import ConstantLatency

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _platform(n_nodes=20, n_obj=500, seed=0, **kw):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(4, DIM))
    data = np.clip(centers[rng.integers(0, 4, n_obj)] + rng.normal(0, 5, (n_obj, DIM)), 0, 100)
    ring = ChordRing.build(n_nodes, m=24, seed=seed, latency=ConstantLatency(n_nodes, 0.01))
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, METRIC, k=3, selection="kmeans",
                          sample_size=200, seed=seed, **kw)
    return platform, data


def _range_ids(platform, data, qi, radius):
    proto, stats = platform.protocol("idx", top_k=10**6)
    platform.sim.reset()
    proto.issue(platform.indexes["idx"].make_query(data[qi], radius, qid=0),
                platform.ring.nodes()[0])
    platform.sim.run()
    return sorted(e.object_id for e in stats.for_query(0).entries)


class TestRotationPlusReplication:
    def test_exact_and_crash_tolerant(self):
        platform, data = _platform(rotation=True, replication=2, seed=1)
        idx = platform.indexes["idx"]
        want = sorted(exact_range(data, METRIC, data[0], 30.0).tolist())
        assert _range_ids(platform, data, 0, 30.0) == want
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        platform.fail_node(victim)
        assert _range_ids(platform, data, 0, 30.0) == want


class TestLoadBalancePlusUpdates:
    def test_updates_after_migration(self):
        platform, data = _platform(seed=2)
        dynamic_load_migration(platform, max_rounds=6, seed=0)
        up = UpdateProtocol(platform.indexes["idx"])
        up.delete(0)
        assert 0 not in _range_ids(platform, data, 0, 30.0)
        up.insert(0)
        want = sorted(exact_range(data, METRIC, data[0], 30.0).tolist())
        assert _range_ids(platform, data, 0, 30.0) == want

    def test_migration_after_updates(self):
        platform, data = _platform(seed=3)
        up = UpdateProtocol(platform.indexes["idx"])
        for oid in range(5):
            up.delete(oid)
        report = dynamic_load_migration(platform, max_rounds=6, seed=0)
        assert platform.indexes["idx"].total_entries() == 495
        want = sorted(exact_range(data, METRIC, data[10], 30.0).tolist())
        want = [w for w in want if w >= 5]
        assert _range_ids(platform, data, 10, 30.0) == want


class TestKnnPlusLoadBalance:
    def test_knn_exact_after_migration(self):
        platform, data = _platform(seed=4)
        dynamic_load_migration(platform, max_rounds=6, seed=0)
        res = knn_search(platform, "idx", data[3], k=10)
        truth = exact_top_k(data, METRIC, data[3], 10)
        assert res.exact
        assert set(res.object_ids.tolist()) == set(int(t) for t in truth)


class TestKnnPlusReplicationFailure:
    def test_knn_exact_after_crash(self):
        platform, data = _platform(replication=2, seed=5)
        idx = platform.indexes["idx"]
        victim = max(idx.shards, key=lambda n: idx.shards[n].load)
        platform.fail_node(victim)
        res = knn_search(platform, "idx", data[3], k=10)
        truth = exact_top_k(data, METRIC, data[3], 10)
        assert set(res.object_ids.tolist()) == set(int(t) for t in truth)


class TestTracePlusRotation:
    def test_trace_solve_ranges_disjoint_under_rotation(self):
        platform, data = _platform(rotation=True, seed=6)
        obs = Observability(tracing=True).bind(platform.sim)
        proto = QueryProtocol(platform.transport, platform.indexes["idx"],
                              top_k=10**6, obs=obs)
        platform.sim.reset()
        q = platform.indexes["idx"].make_query(data[0], 40.0, qid=0)
        proto.issue(q, platform.ring.nodes()[0])
        platform.sim.run()
        ranges = sorted(
            (s.attrs["key_lo"], s.attrs["key_hi"])
            for s in obs.span_memory.by_kind("solve")
        )
        assert ranges
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 < a2
        want = sorted(exact_range(data, METRIC, data[0], 40.0).tolist())
        assert sorted(e.object_id for e in proto.stats.for_query(0).entries) == want


class TestPersistencePlusLoadBalance:
    def test_saved_index_reloads_after_migration(self, tmp_path):
        from repro.io import load_index, save_index

        platform, data = _platform(seed=7)
        dynamic_load_migration(platform, max_rounds=6, seed=0)
        path = str(tmp_path / "idx.npz")
        save_index(platform.indexes["idx"], path)
        restored = load_index(path, platform.ring, data, METRIC)
        fresh = IndexPlatform(platform.ring)
        fresh.indexes["idx"] = restored
        want = sorted(exact_range(data, METRIC, data[2], 30.0).tolist())
        res = fresh.query("idx", data[2], radius=30.0, top_k=10**6)
        assert sorted(e.object_id for e in res) == want
