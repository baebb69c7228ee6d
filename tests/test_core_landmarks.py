"""Tests for landmark selection (Algorithm 1, k-means, k-medoids) and projection."""

import numpy as np
import pytest

import repro.core.landmarks as landmarks
from repro.core.landmarks import (
    greedy_selection,
    kmeans_selection,
    kmedoids_selection,
    select_landmarks,
)
from repro.metric.sets import JaccardMetric
from repro.metric.strings import EditDistanceMetric
from repro.metric.transforms import BoundedMetric
from repro.metric.vector import EuclideanMetric
from scipy import sparse

from repro.metric.cosine import SparseAngularMetric

METRIC = EuclideanMetric()


def _clusters(rng, n=300, k=4, dim=5, spread=60.0, sigma=1.0):
    centers = rng.uniform(0, spread, size=(k, dim))
    assign = rng.integers(0, k, size=n)
    return centers[assign] + rng.normal(0, sigma, size=(n, dim)), centers


class TestGreedy:
    def test_count_and_membership(self, rng):
        X, _ = _clusters(rng)
        ls = greedy_selection(X, METRIC, 6, seed=0)
        assert ls.k == 6
        assert ls.scheme == "greedy"
        # Greedy picks actual sample objects.
        for lm in ls.landmarks:
            assert any(np.array_equal(lm, x) for x in X)

    def test_deterministic(self, rng):
        X, _ = _clusters(rng)
        a = greedy_selection(X, METRIC, 4, seed=5)
        b = greedy_selection(X, METRIC, 4, seed=5)
        np.testing.assert_array_equal(np.asarray(a.landmarks), np.asarray(b.landmarks))

    def test_landmarks_distinct(self, rng):
        X, _ = _clusters(rng)
        ls = greedy_selection(X, METRIC, 8, seed=1)
        L = np.asarray(ls.landmarks)
        assert len(np.unique(L, axis=0)) == 8

    def test_maxmin_dispersion(self, rng):
        """Greedy landmarks should be far more dispersed than random picks."""
        X, _ = _clusters(rng, n=400, k=6, spread=100.0)
        ls = greedy_selection(X, METRIC, 6, seed=0)
        L = np.asarray(ls.landmarks)
        d = METRIC.many_to_many(L, L)
        min_greedy = d[np.triu_indices(6, 1)].min()
        picks = X[np.random.default_rng(0).choice(len(X), 6, replace=False)]
        dr = METRIC.many_to_many(picks, picks)
        min_rand = dr[np.triu_indices(6, 1)].min()
        assert min_greedy >= min_rand

    def test_too_many_rejected(self, rng):
        X, _ = _clusters(rng, n=10)
        with pytest.raises(ValueError):
            greedy_selection(X, METRIC, 11)

    def test_works_on_strings(self):
        seqs = ["aaaa", "aaab", "bbbb", "bbbc", "cccc", "dddd"]
        ls = greedy_selection(seqs, EditDistanceMetric(), 3, seed=0)
        assert ls.k == 3
        assert all(isinstance(s, str) for s in ls.landmarks)


class TestKMeans:
    def test_centroids_near_true_centers(self, rng):
        X, centers = _clusters(rng, n=600, k=4, spread=100.0, sigma=0.5)
        ls = kmeans_selection(X, METRIC, 4, seed=0)
        L = np.asarray(ls.landmarks)
        # every true centre should have a landmark within a few sigma
        d = METRIC.many_to_many(centers, L)
        assert d.min(axis=1).max() < 5.0

    def test_deterministic(self, rng):
        X, _ = _clusters(rng)
        a = kmeans_selection(X, METRIC, 3, seed=2)
        b = kmeans_selection(X, METRIC, 3, seed=2)
        np.testing.assert_allclose(np.asarray(a.landmarks), np.asarray(b.landmarks))

    def test_rejects_non_vector(self):
        with pytest.raises(TypeError):
            kmeans_selection(["abc", "def"], EditDistanceMetric(), 2)

    def test_sparse_spherical(self):
        rng = np.random.default_rng(0)
        rows = np.repeat(np.arange(60), 3)
        # two topic groups: terms 0-9 vs terms 10-19
        cols = np.concatenate(
            [rng.integers(0, 10, size=90), rng.integers(10, 20, size=90)]
        )
        vals = np.ones(180)
        X = sparse.csr_matrix((vals, (rows, cols)), shape=(60, 25))
        ls = kmeans_selection(X, SparseAngularMetric(), 2, seed=0)
        L = np.asarray(ls.landmarks)
        assert L.shape == (2, 25)
        # centroids should separate the two term blocks
        block = L[:, :10].sum(axis=1) > L[:, 10:20].sum(axis=1)
        assert block[0] != block[1]

    def test_more_clusters_than_structure(self, rng):
        """k larger than natural cluster count must not crash or dupe."""
        X, _ = _clusters(rng, n=100, k=2)
        ls = kmeans_selection(X, METRIC, 7, seed=0)
        assert ls.k == 7


class TestKMedoids:
    def test_medoids_are_sample_objects(self, rng):
        X, _ = _clusters(rng, n=120)
        ls = kmedoids_selection(X, METRIC, 4, seed=0)
        for lm in ls.landmarks:
            assert any(np.array_equal(lm, x) for x in X)

    def test_on_strings(self):
        seqs = ["aaaa", "aaab", "aaba", "bbbb", "bbba", "cccc", "ccca", "dddd"]
        ls = kmedoids_selection(seqs, EditDistanceMetric(), 3, seed=1)
        assert ls.k == 3

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            kmedoids_selection(["a", "b"], EditDistanceMetric(), 3)


def _strings(n=70):
    rng = np.random.default_rng(4)
    # a few families, so clusters are uneven and some distances tie
    roots = ["".join(rng.choice(list("ACGT"), size=14)) for _ in range(4)]
    return [roots[i % 4][: 8 + i % 7] + "".join(rng.choice(list("ACGT"), size=i % 3))
            for i in range(n)]


def _sets(n=70):
    rng = np.random.default_rng(5)
    return [sorted({int(v) for v in rng.integers(0, 20, size=rng.integers(0, 9))})
            for _ in range(n)]


BLACK_BOX = [
    pytest.param(BoundedMetric(EditDistanceMetric()), _strings(), id="bounded-edit"),
    pytest.param(JaccardMetric(), _sets(), id="jaccard"),
]


class TestKMedoidsSelfMatrix:
    """k-medoids computes each unordered pair once and mirrors it."""

    @pytest.mark.parametrize("metric, sample", BLACK_BOX)
    def test_equals_many_to_many_bit_for_bit(self, metric, sample):
        for objs in (sample, sample[:1], sample[:0], [sample[i] for i in (9, 3, 40, 3)]):
            got = landmarks._self_distances(metric, objs)
            want = metric.many_to_many(objs, objs)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("full_max", [3000, 0], ids=["one-matrix", "per-cluster"])
    @pytest.mark.parametrize("metric, sample", BLACK_BOX)
    def test_medoids_match_the_full_matrix(self, monkeypatch, metric, sample, full_max):
        monkeypatch.setattr(landmarks, "_FULL_MATRIX_MAX", full_max)
        calls = []
        one_to_many = metric.one_to_many

        def counted(x, ys):
            calls.append(len(ys))
            return one_to_many(x, ys)

        monkeypatch.setattr(metric, "one_to_many", counted)
        got = kmedoids_selection(sample, metric, 4, seed=3)
        mirrored = sum(calls)
        del calls[:]
        monkeypatch.setattr(landmarks, "_self_distances",
                            lambda metric, objs: metric.many_to_many(objs, objs))
        want = kmedoids_selection(sample, metric, 4, seed=3)
        assert got.landmarks == want.landmarks
        if full_max:  # n (n - 1) / 2 distances against n * n
            assert (mirrored, sum(calls)) == (70 * 69 // 2, 70 * 70)


class TestProjection:
    def test_project_shape_and_values(self, rng):
        X, _ = _clusters(rng, n=50)
        ls = greedy_selection(X, METRIC, 3, seed=0)
        P = ls.project(X)
        assert P.shape == (50, 3)
        # column i equals distances to landmark i
        for i in range(3):
            np.testing.assert_allclose(P[:, i], METRIC.one_to_many(ls.landmarks[i], X))

    def test_project_one_matches_batch(self, rng):
        X, _ = _clusters(rng, n=20)
        ls = greedy_selection(X, METRIC, 4, seed=0)
        np.testing.assert_allclose(ls.project_one(X[7]), ls.project(X)[7])

    def test_landmark_projects_to_zero_coordinate(self, rng):
        X, _ = _clusters(rng, n=30)
        ls = greedy_selection(X, METRIC, 3, seed=0)
        P = ls.project(np.asarray(ls.landmarks))
        # landmark i has distance 0 to itself
        np.testing.assert_allclose(np.diag(P), 0.0, atol=1e-9)

    def test_contractive_mapping(self, rng):
        """|proj(x) - proj(y)|_inf <= d(x, y): the triangle-inequality bound
        that guarantees range queries have no false negatives (§3.1)."""
        X, _ = _clusters(rng, n=60)
        ls = greedy_selection(X, METRIC, 5, seed=0)
        P = ls.project(X)
        for _ in range(200):
            i, j = np.random.default_rng(0).integers(0, 60, 2)
            lower = np.abs(P[i] - P[j]).max()
            assert lower <= METRIC.distance(X[i], X[j]) + 1e-9


class TestDispatch:
    def test_known_schemes(self, rng):
        X, _ = _clusters(rng, n=60)
        for scheme in ("greedy", "kmeans", "kmedoids"):
            assert select_landmarks(scheme, X, METRIC, 3, seed=0).k == 3

    def test_unknown_scheme(self, rng):
        X, _ = _clusters(rng, n=20)
        with pytest.raises(ValueError, match="unknown landmark selection"):
            select_landmarks("pca", X, METRIC, 3)
