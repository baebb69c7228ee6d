"""Tests for the angular (arccos-cosine) metrics, dense and sparse."""

import math

import numpy as np
import pytest
from scipy import sparse

from repro.metric.base import check_metric_axioms
from repro.metric.cosine import AngularMetric, SparseAngularMetric


class TestDenseAngular:
    def test_orthogonal_is_pi_over_2(self):
        m = AngularMetric()
        assert m.distance([1, 0], [0, 1]) == pytest.approx(math.pi / 2)

    def test_parallel_is_zero(self):
        m = AngularMetric()
        assert m.distance([1, 2], [2, 4]) == pytest.approx(0.0, abs=1e-7)

    def test_opposite_is_pi(self):
        m = AngularMetric()
        assert m.distance([1, 0], [-1, 0]) == pytest.approx(math.pi)

    def test_scale_invariance(self):
        m = AngularMetric()
        a, b = np.array([1.0, 3.0, 2.0]), np.array([2.0, 0.5, 1.0])
        assert m.distance(a, b) == pytest.approx(m.distance(10 * a, 0.1 * b))

    def test_zero_vector_is_max(self):
        m = AngularMetric()
        assert m.distance([0, 0], [1, 0]) == m.upper_bound

    def test_nonnegative_bound(self):
        assert AngularMetric(nonnegative=True).upper_bound == pytest.approx(math.pi / 2)
        assert AngularMetric().upper_bound == pytest.approx(math.pi)

    def test_clipping_handles_fp_cos_overflow(self):
        # Nearly identical vectors can give cos slightly above 1.
        m = AngularMetric()
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        assert m.distance(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_one_to_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        Y = rng.normal(size=(15, 5))
        m = AngularMetric()
        np.testing.assert_allclose(
            m.one_to_many(x, Y), [m.distance(x, y) for y in Y], rtol=1e-9
        )

    def test_pairwise_matches_scalar(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(6, 3))
        m = AngularMetric()
        got = m.many_to_many(X, Y)
        for i in range(4):
            for j in range(6):
                assert got[i, j] == pytest.approx(m.distance(X[i], Y[j]), abs=1e-6)

    def test_axioms_on_sample(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(size=(10, 4))
        check_metric_axioms(AngularMetric(), sample, atol=1e-7)


class TestSparseAngular:
    def _corpus(self):
        rows = np.array([0, 0, 1, 1, 2, 3, 3, 3])
        cols = np.array([0, 1, 1, 2, 3, 0, 2, 3])
        vals = np.array([1.0, 2.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(4, 5))

    def test_agrees_with_dense(self):
        X = self._corpus()
        dm = AngularMetric()
        sm = SparseAngularMetric()
        D = np.asarray(X.todense())
        for i in range(4):
            for j in range(4):
                assert sm.distance(X[i], X[j]) == pytest.approx(
                    dm.distance(D[i], D[j]), abs=1e-6
                )

    def test_disjoint_supports_are_orthogonal(self):
        X = self._corpus()
        m = SparseAngularMetric()
        # doc 1 uses terms {1,2}; doc 2 uses term {3}: orthogonal.
        assert m.distance(X[1], X[2]) == pytest.approx(math.pi / 2)

    def test_one_to_many_full_matrix(self):
        X = self._corpus()
        m = SparseAngularMetric()
        d = m.one_to_many(X[0], X)
        assert d.shape == (4,)
        assert d[0] == pytest.approx(0.0, abs=1e-6)
        for j in range(4):
            assert d[j] == pytest.approx(m.distance(X[0], X[j]), abs=1e-6)

    def test_pairwise(self):
        X = self._corpus()
        m = SparseAngularMetric()
        D = m.many_to_many(X, X)
        assert D.shape == (4, 4)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-6)
        np.testing.assert_allclose(D, D.T, atol=1e-12)

    def test_dense_input_accepted(self):
        m = SparseAngularMetric()
        assert m.distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            math.pi / 2
        )

    def test_empty_row_is_max(self):
        # build via COO: assigning into an existing CSR raises
        # SparseEfficiencyWarning (an error under filterwarnings = error)
        X = sparse.coo_matrix(([1.0], ([0], [0])), shape=(2, 3)).tocsr()
        m = SparseAngularMetric()
        assert m.distance(X[0], X[1]) == m.upper_bound

    def test_bounded_by_pi_over_2(self):
        assert SparseAngularMetric().is_bounded
        assert SparseAngularMetric().upper_bound == pytest.approx(math.pi / 2)
