"""Tests for Minkowski vector metrics: values, vectorised kernels, axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.metric.base import check_metric_axioms
from repro.metric.vector import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
)

vectors = hnp.arrays(
    np.float64,
    st.integers(1, 6).map(lambda d: (d,)),
    elements=st.floats(-50, 50, allow_nan=False),
)


class TestKnownValues:
    def test_euclidean_345(self):
        assert EuclideanMetric().distance([0, 0], [3, 4]) == 5.0

    def test_manhattan(self):
        assert ManhattanMetric().distance([0, 0], [3, 4]) == 7.0

    def test_chebyshev(self):
        assert ChebyshevMetric().distance([0, 0], [3, 4]) == 4.0

    def test_l3(self):
        d = MinkowskiMetric(3).distance([0.0], [2.0])
        assert d == pytest.approx(2.0)

    def test_identity(self):
        for m in (EuclideanMetric(), ManhattanMetric(), ChebyshevMetric()):
            assert m.distance([1.5, -2.0], [1.5, -2.0]) == 0.0

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            MinkowskiMetric(0.5)


class TestBounds:
    def test_euclidean_box_bound_matches_paper(self):
        # 100-d, range [0,100]: theoretical max distance = 1000 (paper §4.2).
        m = EuclideanMetric(box=(0, 100), dim=100)
        assert m.is_bounded
        assert m.upper_bound == pytest.approx(1000.0)

    def test_manhattan_box_bound(self):
        m = ManhattanMetric(box=(0, 10), dim=4)
        assert m.upper_bound == pytest.approx(40.0)

    def test_chebyshev_box_bound(self):
        m = ChebyshevMetric(box=(0, 10), dim=4)
        assert m.upper_bound == pytest.approx(10.0)

    def test_box_without_dim_rejected(self):
        with pytest.raises(ValueError):
            EuclideanMetric(box=(0, 1))

    def test_unbounded_by_default(self):
        assert not EuclideanMetric().is_bounded

    def test_bound_is_respected_on_samples(self):
        m = EuclideanMetric(box=(0, 100), dim=5)
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 100, (50, 5))
        assert m.many_to_many(X, X).max() <= m.upper_bound + 1e-9


class TestVectorisedKernels:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    def test_one_to_many_matches_scalar(self, p):
        rng = np.random.default_rng(1)
        x = rng.normal(size=7)
        Y = rng.normal(size=(20, 7))
        m = MinkowskiMetric(p)
        got = m.one_to_many(x, Y)
        want = [m.distance(x, y) for y in Y]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_pairwise_matches_scalar(self, p):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 4))
        Y = rng.normal(size=(9, 4))
        m = MinkowskiMetric(p)
        got = m.many_to_many(X, Y)
        assert got.shape == (6, 9)
        for i in range(6):
            for j in range(9):
                assert got[i, j] == pytest.approx(m.distance(X[i], Y[j]), rel=1e-9, abs=1e-9)

    def test_one_to_many_single_row(self):
        m = EuclideanMetric()
        out = m.one_to_many(np.zeros(3), np.ones((1, 3)))
        assert out.shape == (1,)


class TestAxioms:
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, math.inf])
    def test_axioms_hold_on_sample(self, p):
        rng = np.random.default_rng(3)
        sample = rng.normal(scale=10, size=(12, 4))
        check_metric_axioms(MinkowskiMetric(p), sample)

    @settings(max_examples=50, deadline=None)
    @given(vectors, st.floats(1.0, 5.0))
    def test_symmetry_property(self, x, p):
        y = x[::-1].copy()
        m = MinkowskiMetric(p)
        assert m.distance(x, y) == pytest.approx(m.distance(y, x), rel=1e-9, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_triangle_property(self, data):
        dim = data.draw(st.integers(1, 5))
        elems = st.floats(-100, 100, allow_nan=False)
        arr = hnp.arrays(np.float64, (3, dim), elements=elems)
        pts = data.draw(arr)
        m = EuclideanMetric()
        d01 = m.distance(pts[0], pts[1])
        d12 = m.distance(pts[1], pts[2])
        d02 = m.distance(pts[0], pts[2])
        assert d02 <= d01 + d12 + 1e-7


class TestNames:
    def test_names(self):
        assert EuclideanMetric().name == "L2"
        assert ManhattanMetric().name == "L1"
        assert ChebyshevMetric().name == "L_inf"
        assert MinkowskiMetric(2.5).name == "L2.5"
