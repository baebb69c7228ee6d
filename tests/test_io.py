"""Tests for index persistence (save/load round trips)."""

import numpy as np
import pytest

from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range
from repro.io import load_index, save_index
from repro.metric.strings import EditDistanceMetric
from repro.metric.transforms import BoundedMetric
from repro.metric.vector import EuclideanMetric

DIM = 4
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


@pytest.fixture
def built(tmp_path, rng):
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(centers[rng.integers(0, 3, 300)] + rng.normal(0, 5, (300, DIM)), 0, 100)
    ring = ChordRing.build(12, m=24, seed=0)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, METRIC, k=3, selection="kmeans", rotation=True,
        replication=2, seed=1,
    )
    path = str(tmp_path / "index.npz")
    save_index(platform.indexes["idx"], path)
    return platform, data, path


class TestRoundTrip:
    def test_same_ring_identical_state(self, built):
        platform, data, path = built
        orig = platform.indexes["idx"]
        restored = load_index(path, platform.ring, data, METRIC)
        for a, b in zip(orig.entries(), restored.entries()):
            np.testing.assert_array_equal(a, b)
        for node, shard in orig.shards.items():
            np.testing.assert_array_equal(shard.object_ids, restored.shards[node].object_ids)
        assert restored.rotation == orig.rotation
        assert restored.replication == orig.replication
        np.testing.assert_allclose(
            np.asarray(orig.space.landmark_set.landmarks),
            np.asarray(restored.space.landmark_set.landmarks),
        )

    def test_queries_identical_after_restore(self, built):
        platform, data, path = built
        restored = load_index(path, platform.ring, data, METRIC)
        fresh = IndexPlatform(platform.ring)
        fresh.indexes["idx"] = restored
        want = sorted(exact_range(data, METRIC, data[0], 25.0).tolist())
        res = fresh.query("idx", data[0], radius=25.0, top_k=10**6)
        assert sorted(e.object_id for e in res) == want

    def test_restore_onto_different_ring(self, built):
        """A new overlay (different membership) redistributes the entries."""
        platform, data, path = built
        ring2 = ChordRing.build(20, m=24, seed=99)
        restored = load_index(path, ring2, data, METRIC)
        assert restored.load_distribution().sum() == 2 * 300  # replication kept
        fresh = IndexPlatform(ring2)
        fresh.indexes["idx"] = restored
        want = sorted(exact_range(data, METRIC, data[5], 25.0).tolist())
        res = fresh.query("idx", data[5], radius=25.0, top_k=10**6)
        assert sorted(e.object_id for e in res) == want

    def test_m_mismatch_rejected(self, built):
        platform, data, path = built
        ring_bad = ChordRing.build(8, m=16, seed=0)
        with pytest.raises(ValueError, match="identifier width"):
            load_index(path, ring_bad, data, METRIC)

    def test_saved_bounds_that_collapse_algorithm_2_rejected(self, built, tmp_path):
        platform, data, path = built
        with np.load(path) as z:
            fields = dict(z)
        fields["bounds_lows"] = np.where(np.arange(3) == 0, np.nan, fields["bounds_lows"])
        bad = str(tmp_path / "bad.npz")
        np.savez(bad, **fields)
        with pytest.raises(ValueError, match="magnitude"):
            load_index(bad, ChordRing.build(12, m=24, seed=0), data, METRIC)

    def test_save_writes_no_refine_mode(self, built):
        _, _, path = built
        with np.load(path) as z:
            assert "refine_mode" not in z.files

    def test_older_file_with_true_refinement_loads(self, built, tmp_path):
        platform, data, path = built
        with np.load(path) as z:
            fields = dict(z)
        fields["refine_mode"] = np.bytes_(b"true")
        older = str(tmp_path / "older.npz")
        np.savez(older, **fields)
        restored = load_index(older, platform.ring, data, METRIC)
        np.testing.assert_array_equal(restored.entries()[0], platform.indexes["idx"].entries()[0])

    def test_older_file_with_index_refinement_rejected(self, built, tmp_path):
        platform, data, path = built
        with np.load(path) as z:
            fields = dict(z)
        fields["refine_mode"] = np.bytes_(b"index")
        older = str(tmp_path / "older.npz")
        np.savez(older, **fields)
        with pytest.raises(ValueError, match="'index' is retired"):
            load_index(older, platform.ring, data, METRIC)

    def test_blackbox_landmarks_rejected(self, tmp_path):
        seqs = ["acgt", "acct", "tttt", "gggg", "aaaa", "cccc"] * 10
        ring = ChordRing.build(4, m=16, seed=0)
        platform = IndexPlatform(ring)
        platform.create_index(
            "dna", seqs, BoundedMetric(EditDistanceMetric()), k=2,
            selection="kmedoids", boundary="metric", seed=0,
        )
        with pytest.raises(TypeError, match="array-backed"):
            save_index(platform.indexes["dna"], str(tmp_path / "x.npz"))
