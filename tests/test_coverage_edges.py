"""Edge-case coverage for query expansion, the King matrix and metric transforms.

Complements the happy-path tests in ``test_eval.py``, ``test_sim.py`` and
``test_metric_hausdorff_transforms.py`` with the boundary and degenerate
inputs those files do not exercise: cutoff ties and zero queries for Rocchio
expansion, scaling/jitter extremes for the synthetic King matrix, and the
``d' = d/(1+d)`` transform at the boundary of its range.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from repro.eval.expansion import expand_query
from repro.metric.strings import EditDistanceMetric
from repro.metric.transforms import BoundedMetric, ScaledMetric
from repro.metric.vector import EuclideanMetric
from repro.sim.king import (
    KING_MEAN_RTT,
    KING_N_HOSTS,
    king_latency_model,
    synthetic_king_matrix,
)


class TestExpansionEdges:
    def _q(self, row):
        return sparse.csr_matrix(np.asarray([row], dtype=float))

    def test_rocchio_weights_are_exact(self):
        # expanded = alpha*q + beta*centroid on every kept term
        q = self._q([2.0, 0.0, 0.0, 0.0])
        fb = sparse.csr_matrix(
            np.array([[1.0, 4.0, 0.0, 0.0], [3.0, 2.0, 0.0, 0.0]])
        )
        out = np.asarray(
            expand_query(q, fb, n_terms=1, alpha=0.5, beta=2.0).todense()
        ).ravel()
        # term 0 is an original term: alpha*2 + beta*centroid(= 2.0)
        assert out[0] == pytest.approx(0.5 * 2.0 + 2.0 * 2.0)
        # term 1 is the strongest new term: beta*centroid(= 3.0) only
        assert out[1] == pytest.approx(2.0 * 3.0)
        assert out[2] == out[3] == 0.0

    def test_n_terms_zero_keeps_only_original_terms(self):
        q = self._q([1.0, 0.0, 0.0])
        fb = sparse.csr_matrix(np.array([[0.5, 5.0, 3.0]]))
        out = np.asarray(expand_query(q, fb, n_terms=0).todense()).ravel()
        assert out[0] > 0
        assert out[1] == 0.0 and out[2] == 0.0

    def test_n_terms_exceeding_candidates_keeps_them_all(self):
        q = self._q([1.0, 0.0, 0.0, 0.0])
        fb = sparse.csr_matrix(np.array([[0.0, 2.0, 1.0, 0.0]]))
        out = np.asarray(expand_query(q, fb, n_terms=10).todense()).ravel()
        assert out[1] > 0 and out[2] > 0  # both candidates survive
        assert out[3] == 0.0  # but zero-weight terms stay zero

    def test_cutoff_ties_all_survive(self):
        # two candidate terms tied at the cutoff weight: np.partition keeps
        # values equal to the cutoff, so a tie admits both
        q = self._q([1.0, 0.0, 0.0, 0.0])
        fb = sparse.csr_matrix(np.array([[0.0, 2.0, 2.0, 0.0]]))
        out = np.asarray(expand_query(q, fb, n_terms=1).todense()).ravel()
        assert out[1] > 0 and out[2] > 0

    def test_zero_query_expands_from_feedback_alone(self):
        q = self._q([0.0, 0.0, 0.0])
        fb = sparse.csr_matrix(np.array([[0.0, 4.0, 1.0]]))
        out = np.asarray(expand_query(q, fb, n_terms=1).todense()).ravel()
        assert out[1] > 0  # strongest feedback term
        assert out[0] == 0.0 and out[2] == 0.0  # cut by n_terms=1

    def test_output_is_csr_with_query_shape(self):
        q = self._q([1.0, 0.0, 0.0, 0.0, 0.0])
        fb = sparse.csr_matrix(np.array([[1.0, 1.0, 0.0, 0.0, 0.0]]))
        out = expand_query(q, fb)
        assert sparse.issparse(out) and out.format == "csr"
        assert out.shape == q.shape

    def test_empty_feedback_returns_independent_copy(self):
        q = self._q([1.0, 0.5])
        out = expand_query(q, sparse.csr_matrix((0, 2)))
        assert (out != q).nnz == 0
        out.data[:] = 99.0  # mutating the copy must not touch the original
        assert q.data[0] == 1.0


class TestKingMatrixEdges:
    def test_constants_match_paper(self):
        assert KING_N_HOSTS == 1740
        assert KING_MEAN_RTT == pytest.approx(0.180)

    def test_seed_determinism_bitwise(self):
        a = synthetic_king_matrix(n_hosts=40, seed=9)
        b = synthetic_king_matrix(n_hosts=40, seed=9)
        np.testing.assert_array_equal(a, b)
        c = synthetic_king_matrix(n_hosts=40, seed=10)
        assert not np.array_equal(a, c)

    def test_generator_seed_accepted(self):
        a = synthetic_king_matrix(n_hosts=20, seed=np.random.default_rng(3))
        b = synthetic_king_matrix(n_hosts=20, seed=np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_custom_mean_rtt_calibration_is_exact(self):
        n = 50
        m = synthetic_king_matrix(n_hosts=n, mean_rtt=0.5, seed=0)
        assert 2 * m.sum() / (n * (n - 1)) == pytest.approx(0.5, rel=1e-9)

    def test_two_hosts_minimal_matrix(self):
        m = synthetic_king_matrix(n_hosts=2, seed=0)
        assert m.shape == (2, 2)
        assert m[0, 0] == m[1, 1] == 0.0
        # the single off-diagonal pair carries the whole calibrated mean
        assert m[0, 1] == m[1, 0] == pytest.approx(KING_MEAN_RTT / 2.0)

    def test_zero_jitter_is_pure_geometry(self):
        # lognormal(0, 0) == 1, so the matrix is scaled propagation + floor:
        # still symmetric, zero-diagonal and calibrated
        n = 30
        m = synthetic_king_matrix(n_hosts=n, seed=2, jitter_sigma=0.0)
        np.testing.assert_allclose(m, m.T)
        assert 2 * m.sum() / (n * (n - 1)) == pytest.approx(KING_MEAN_RTT)
        # without jitter there is no heavy tail
        off = m[~np.eye(n, dtype=bool)]
        assert np.percentile(off, 95) < 3 * np.median(off)

    def test_floor_does_not_break_calibration(self):
        # the floor shifts raw delays, but the global rescale restores the
        # target mean regardless of its magnitude
        n = 25
        for floor in (0.0, 0.002, 0.5):
            m = synthetic_king_matrix(n_hosts=n, seed=1, floor=floor)
            assert 2 * m.sum() / (n * (n - 1)) == pytest.approx(KING_MEAN_RTT)

    def test_latency_model_symmetry_and_row_kernel(self):
        lat = king_latency_model(n_hosts=12, seed=4)
        assert lat.latency(3, 7) == lat.latency(7, 3)
        row = lat.latency_row(0, np.arange(12))
        assert row.shape == (12,)
        assert row[0] == 0.0
        for j in (1, 5, 11):
            assert row[j] == lat.latency(0, j)


class TestBoundedTransformEdges:
    def test_range_is_half_open(self):
        # t(d) = d/(1+d) reaches 0 only at d=0 and never reaches 1
        m = BoundedMetric(EuclideanMetric())
        assert m.distance([0.0], [0.0]) == 0.0
        huge = m.distance([0.0], [1e12])
        assert huge < 1.0
        assert huge == pytest.approx(1.0)

    def test_radius_zero_maps_to_zero(self):
        m = BoundedMetric(EuclideanMetric())
        assert BoundedMetric.to_bounded_radius(0.0) == 0.0
        assert m.to_inner_radius(0.0) == 0.0

    def test_inner_radius_saturates_at_and_above_one(self):
        m = BoundedMetric(EuclideanMetric())
        assert m.to_inner_radius(1.0) == math.inf
        assert m.to_inner_radius(1.5) == math.inf

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(7)
        X, Y = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        m = BoundedMetric(EuclideanMetric())
        got = m.many_to_many(X, Y)
        for i in range(3):
            for j in range(4):
                assert got[i, j] == pytest.approx(m.distance(X[i], Y[j]))

    def test_one_to_many_empty_input(self):
        m = BoundedMetric(EuclideanMetric(dim=2))
        out = m.one_to_many(np.zeros(2), np.empty((0, 2)))
        assert out.shape == (0,)

    def test_name_wraps_inner(self):
        assert BoundedMetric(EditDistanceMetric()).name.startswith("bounded(")


class TestScaledMetricEdges:
    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            ScaledMetric(EuclideanMetric(), -1.0)

    def test_unbounded_inner_stays_unbounded(self):
        m = ScaledMetric(EuclideanMetric(), 2.0)
        assert not m.is_bounded
        assert m.upper_bound == math.inf

    def test_bulk_kernels_match_scalar(self):
        rng = np.random.default_rng(8)
        X, Y = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        m = ScaledMetric(EuclideanMetric(), 0.25)
        np.testing.assert_allclose(
            m.one_to_many(X[0], Y), [m.distance(X[0], y) for y in Y]
        )
        np.testing.assert_allclose(
            m.many_to_many(X, Y),
            [[m.distance(x, y) for y in Y] for x in X],
        )

    def test_composes_with_bounded_transform(self):
        # scaling the bounded transform keeps a finite, scaled upper bound
        m = ScaledMetric(BoundedMetric(EuclideanMetric()), 3.0)
        assert m.is_bounded and m.upper_bound == pytest.approx(3.0)
        assert m.distance([0.0], [1.0]) == pytest.approx(3.0 * 0.5)

    def test_name_shows_scale(self):
        assert ScaledMetric(EuclideanMetric(), 2.0).name.startswith("2.0*")
