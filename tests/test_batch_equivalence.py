"""Batch-vs-scalar equivalence: the bit-identicality contract of the hot paths.

The vectorized refactor is only admissible because every batch kernel is
provably on the same floating-point path as its scalar definition:

* ``LandmarkSet.project(objs)`` must equal ``project_one(obj)`` stacked, for
  every metric family — otherwise a zero-radius query for an indexed object
  misses its own stored index point;
* ``Metric.many_to_many`` columns must equal ``one_to_many`` passes (the
  column-exactness contract vectorized overrides must preserve);
* ``LatencyModel.latency_row`` must equal scalar ``latency`` lookups;
* ``lp_hash_batch`` must equal ``lp_hash`` per point.

Hypothesis drives shapes and values; comparisons are exact
(``np.array_equal``), never approximate.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy import sparse

from repro.core.landmarks import LandmarkSet
from repro.core.index_space import MAX_BOUND, IndexSpaceBounds
from repro.core.lph import lp_hash, lp_hash_batch, prefix_to_cuboid
from repro.metric.cosine import AngularMetric, SparseAngularMetric
from repro.metric.hausdorff import HausdorffMetric
from repro.metric.sets import JaccardMetric
from repro.metric.strings import EditDistanceMetric, HammingMetric
from repro.metric.vector import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
)
from repro.sim.network import (
    ConstantLatency,
    CoordinateLatency,
    LatencyModel,
    MatrixLatency,
)

SETTINGS = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _assert_batch_matches_scalar(landmarks, metric, objects):
    """project(objs) == stacked project_one(obj), and the many_to_many
    columns == one_to_many passes — both exactly."""
    lset = LandmarkSet(landmarks=landmarks, metric=metric)
    batch = lset.project(objects)
    n = objects.shape[0] if hasattr(objects, "shape") else len(objects)
    singles = np.stack([lset.project_one(objects[i]) for i in range(n)])
    assert np.array_equal(batch, singles)
    cols = np.stack(
        [metric.one_to_many(lset._landmark(j), objects) for j in range(lset.k)],
        axis=1,
    )
    assert np.array_equal(batch, cols)


class TestVectorFamily:
    @settings(**SETTINGS)
    @given(
        n=st.integers(1, 40),
        dim=st.integers(1, 8),
        k=st.integers(1, 5),
        p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        seed=st.integers(0, 2**16),
    )
    def test_minkowski(self, n, dim, k, p, seed):
        rng = np.random.default_rng(seed)
        objs = rng.uniform(-50, 50, size=(n, dim))
        lms = rng.uniform(-50, 50, size=(k, dim))
        _assert_batch_matches_scalar(lms, MinkowskiMetric(p), objs)

    def test_chunked_many_to_many_matches_columns(self):
        # Force several chunks through the broadcast kernel.
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 100, size=(4096, 64))
        L = rng.uniform(0, 100, size=(9, 64))
        for metric in (EuclideanMetric(), ManhattanMetric(), ChebyshevMetric()):
            got = metric.many_to_many(X, L)
            want = np.stack([metric.one_to_many(L[j], X) for j in range(9)], axis=1)
            assert np.array_equal(got, want)


class TestCosineFamily:
    @settings(**SETTINGS)
    @given(n=st.integers(1, 30), dim=st.integers(1, 6), k=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_dense_angular(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        objs = rng.normal(size=(n, dim))
        objs[rng.random(n) < 0.1] = 0.0  # zero vectors hit the degenerate path
        lms = rng.normal(size=(k, dim))
        _assert_batch_matches_scalar(lms, AngularMetric(), objs)

    @settings(**SETTINGS)
    @given(n=st.integers(1, 20), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_sparse_angular(self, n, k, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, 12)) * (rng.random((n, 12)) < 0.3)
        objs = sparse.csr_matrix(dense)
        lms = sparse.csr_matrix(rng.random((k, 12)) * (rng.random((k, 12)) < 0.5))
        _assert_batch_matches_scalar(lms, SparseAngularMetric(), objs)


class TestStringFamily:
    @settings(**SETTINGS)
    @given(
        objs=st.lists(st.text(alphabet="abcd", max_size=8), min_size=1, max_size=15),
        lms=st.lists(st.text(alphabet="abcd", max_size=8), min_size=1, max_size=3),
    )
    def test_edit_distance(self, objs, lms):
        _assert_batch_matches_scalar(lms, EditDistanceMetric(), objs)

    @settings(**SETTINGS)
    @given(n=st.integers(1, 15), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_hamming(self, n, k, seed):
        rng = np.random.default_rng(seed)
        mk = lambda cnt: ["".join(rng.choice(list("01"), size=6)) for _ in range(cnt)]
        _assert_batch_matches_scalar(mk(k), HammingMetric(length=6), mk(n))


class TestSetFamily:
    @settings(**SETTINGS)
    @given(
        objs=st.lists(st.frozensets(st.integers(0, 20), max_size=8),
                      min_size=1, max_size=15),
        lms=st.lists(st.frozensets(st.integers(0, 20), max_size=8),
                     min_size=1, max_size=3),
    )
    def test_jaccard(self, objs, lms):
        _assert_batch_matches_scalar(lms, JaccardMetric(), objs)


class TestHausdorffFamily:
    @settings(**SETTINGS)
    @given(n=st.integers(1, 10), k=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_hausdorff(self, n, k, seed):
        rng = np.random.default_rng(seed)
        mk = lambda cnt: [
            rng.uniform(0, 10, size=(int(rng.integers(1, 5)), 2)) for _ in range(cnt)
        ]
        _assert_batch_matches_scalar(
            mk(k), HausdorffMetric(box=(0.0, 10.0), dim=2), mk(n)
        )


class TestLatencyRowEquivalence:
    def _check(self, model: LatencyModel, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        hosts = rng.integers(0, model.n_hosts, size=50)
        for a in (0, int(rng.integers(0, model.n_hosts))):
            row = model.latency_row(a, hosts)
            scalar = np.asarray(
                [model.latency(a, int(b)) for b in hosts], dtype=np.float64
            )
            assert np.array_equal(row, scalar)

    def test_constant(self):
        self._check(ConstantLatency(20, delay=0.045))

    def test_matrix(self):
        rng = np.random.default_rng(1)
        mat = rng.uniform(0, 0.2, size=(20, 20))
        np.fill_diagonal(mat, 0.0)
        self._check(MatrixLatency(mat))

    def test_euclidean(self):
        rng = np.random.default_rng(2)
        self._check(CoordinateLatency(rng.uniform(0, 1, size=(20, 2)), 0.05, floor=0.01))

    def test_black_box_fallback(self):
        class Odd(LatencyModel):
            n_hosts = 20

            def latency(self, a: int, b: int) -> float:
                return 0.001 * ((a * 31 + b * 17) % 7)

        self._check(Odd())


class TestHashBatchEquivalence:
    @settings(**SETTINGS)
    @given(n=st.integers(1, 30), k=st.integers(1, 5), m=st.integers(1, 24),
           seed=st.integers(0, 2**16))
    def test_lp_hash_batch(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        bounds = IndexSpaceBounds.uniform(k, 0.0, 100.0)
        pts = rng.uniform(0.0, 100.0, size=(n, k))
        batch = lp_hash_batch(pts, bounds, m)
        scalar = np.asarray([lp_hash(p, bounds, m) for p in pts], dtype=np.uint64)
        assert np.array_equal(batch, scalar)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_lp_hash_batch_on_any_bounds_and_any_point(self, data):
        """Row by row ``lp_hash``, and a row hashed alone is the same row
        hashed in a batch: over any bounds the index space accepts, with
        points on cell edges at random depths, their float neighbours,
        points out of bounds, infinities and NaN."""
        k = data.draw(st.integers(1, 12), label="k")
        m = data.draw(st.integers(1, 64), label="m")
        ends = st.lists(st.floats(-MAX_BOUND, MAX_BOUND), min_size=2, max_size=2, unique=True)
        lows, highs = zip(*(sorted(data.draw(ends)) for _ in range(k)))
        bounds = IndexSpaceBounds(np.array(lows), np.array(highs))
        n = data.draw(st.integers(0, 300), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        with np.errstate(over="ignore"):
            pts = bounds.lows + (bounds.highs - bounds.lows) * rng.uniform(-0.25, 1.25, (n, k))
        for r in range(0, n, 2):  # every other row on a corner of a random cuboid
            depth = int(rng.integers(0, m + 1))
            key = int(rng.integers(0, 2**m, dtype=np.uint64))
            lo, hi = prefix_to_cuboid(key, depth, bounds, m)
            corner = np.where(rng.random(k) < 0.5, lo, hi)
            step = rng.integers(-1, 2, k)
            pts[r] = np.where(step == 0, corner,
                              np.nextafter(corner, np.where(step < 0, -np.inf, np.inf)))
        special = rng.random((n, k)) < 0.02
        pts[special] = rng.choice([np.nan, np.inf, -np.inf], int(special.sum()))
        batch = lp_hash_batch(pts, bounds, m)
        for r in range(n):
            assert int(batch[r]) == lp_hash(pts[r], bounds, m)
            assert lp_hash_batch(pts[r:r + 1], bounds, m)[0] == batch[r]


class TestGroundTruthBatchEquivalence:
    def test_batch_matches_per_query(self):
        from repro.eval.ground_truth import batch_exact_top_k, exact_top_k

        rng = np.random.default_rng(3)
        data = rng.uniform(0, 100, size=(500, 10))
        metric = EuclideanMetric()
        got = batch_exact_top_k(data, metric, data[:20], k=5, chunk=7)
        for i in range(20):
            assert np.array_equal(got[i], exact_top_k(data, metric, data[i], k=5))

    def test_radius_filter_matches_scalar_definition(self):
        from repro.eval.ground_truth import batch_exact_top_k

        rng = np.random.default_rng(4)
        data = rng.uniform(0, 100, size=(300, 6))
        metric = ManhattanMetric()
        got = batch_exact_top_k(data, metric, data[:10], k=8, radius=80.0)
        for i in range(10):
            d = metric.one_to_many(data[i], data)
            elig = np.flatnonzero(d <= 80.0)
            kk = min(8, len(elig))
            if kk == 0:
                assert len(got[i]) == 0
                continue
            sub = d[elig]
            top = np.argpartition(sub, kk - 1)[:kk]
            want = elig[top[np.argsort(sub[top], kind="stable")]]
            assert np.array_equal(got[i], want)


class TestEmptyLandmarks:
    def test_many_to_many_empty_ys(self):
        m = EuclideanMetric()
        out = JaccardMetric().many_to_many([{1}, {2}], [])
        assert out.shape == (2, 0)
        out2 = m.many_to_many(np.zeros((3, 4)), np.zeros((0, 4)))
        assert out2.shape == (3, 0)
