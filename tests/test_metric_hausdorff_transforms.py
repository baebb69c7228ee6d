"""Tests for the Hausdorff metric, the d/(1+d) transform, scaling and the
discrete metric."""

import math

import numpy as np
import pytest

from repro.metric.base import Metric, check_metric_axioms
from repro.metric.discrete import DiscreteMetric
from repro.metric.hausdorff import HausdorffMetric
from repro.metric.strings import EditDistanceMetric
from repro.metric.transforms import BoundedMetric, ScaledMetric
from repro.metric.vector import EuclideanMetric


class TestHausdorff:
    def test_identical_sets(self):
        A = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert HausdorffMetric().distance(A, A) == 0.0

    def test_subset_is_directed(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[0.0, 0.0], [3.0, 4.0]])
        # sup over B of dist to A is 5; sup over A of dist to B is 0.
        assert HausdorffMetric().distance(A, B) == pytest.approx(5.0)

    def test_translation(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = A + np.array([0.0, 2.0])
        assert HausdorffMetric().distance(A, B) == pytest.approx(2.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 2))
        B = rng.normal(size=(8, 2))
        m = HausdorffMetric()
        assert m.distance(A, B) == pytest.approx(m.distance(B, A))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            HausdorffMetric().distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))

    def test_axioms_on_point_sets(self):
        rng = np.random.default_rng(1)
        sample = [rng.uniform(0, 10, size=(rng.integers(2, 6), 2)) for _ in range(8)]
        check_metric_axioms(HausdorffMetric(), sample)

    def test_bounded_variant(self):
        m = HausdorffMetric(box=(0, 100), dim=2)
        assert m.is_bounded
        assert m.upper_bound == pytest.approx(100 * math.sqrt(2))

    def test_one_to_many(self):
        rng = np.random.default_rng(2)
        sets = [rng.uniform(size=(4, 2)) for _ in range(5)]
        m = HausdorffMetric()
        out = m.one_to_many(sets[0], sets)
        assert out[0] == pytest.approx(0.0)
        for i in range(5):
            assert out[i] == pytest.approx(m.distance(sets[0], sets[i]))


class TestBoundedTransform:
    def test_bounds_to_one(self):
        m = BoundedMetric(EuclideanMetric())
        assert m.is_bounded and m.upper_bound == 1.0
        assert m.distance([0.0], [1e9]) < 1.0

    def test_formula(self):
        m = BoundedMetric(EuclideanMetric())
        # d = 3 -> 3/4
        assert m.distance([0.0], [3.0]) == pytest.approx(0.75)

    def test_preserves_zero(self):
        m = BoundedMetric(EuclideanMetric())
        assert m.distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_monotone(self):
        m = BoundedMetric(EuclideanMetric())
        assert m.distance([0.0], [1.0]) < m.distance([0.0], [2.0])

    def test_still_a_metric(self):
        rng = np.random.default_rng(3)
        sample = rng.normal(scale=5, size=(10, 3))
        check_metric_axioms(BoundedMetric(EuclideanMetric()), sample)

    def test_radius_roundtrip(self):
        m = BoundedMetric(EuclideanMetric())
        for r in (0.1, 1.0, 17.3):
            assert m.to_inner_radius(m.to_bounded_radius(r)) == pytest.approx(r)

    def test_radius_ball_equivalence(self):
        """A ball of radius r under d equals a ball of radius t(r) under d'."""
        inner = EuclideanMetric()
        m = BoundedMetric(inner)
        x, y = np.array([0.0, 0.0]), np.array([2.0, 1.0])
        r = 3.0
        assert (inner.distance(x, y) <= r) == (
            m.distance(x, y) <= BoundedMetric.to_bounded_radius(r)
        )

    def test_one_to_many_matches_scalar(self):
        m = BoundedMetric(EditDistanceMetric())
        strs = ["abc", "abd", "xyzw"]
        out = m.one_to_many("abc", strs)
        np.testing.assert_allclose(out, [m.distance("abc", s) for s in strs])


class TestScaledMetric:
    def test_scales(self):
        m = ScaledMetric(EuclideanMetric(), 2.0)
        assert m.distance([0.0], [3.0]) == pytest.approx(6.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ScaledMetric(EuclideanMetric(), 0.0)

    def test_propagates_bound(self):
        m = ScaledMetric(EuclideanMetric(box=(0, 10), dim=4), 3.0)
        assert m.is_bounded
        assert m.upper_bound == pytest.approx(3.0 * 20.0)


class TestDiscreteMetric:
    def test_values(self):
        m = DiscreteMetric()
        assert m.distance("a", "a") == 0.0
        assert m.distance("a", "b") == 1.0

    def test_axioms(self):
        check_metric_axioms(DiscreteMetric(), ["a", "b", "c", "d"])

    def test_one_to_many(self):
        out = DiscreteMetric().one_to_many("a", ["a", "b", "a"])
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])


class TestMetricInterface:
    def test_subclass_without_distance_cannot_be_instantiated(self):
        """`distance` is abstract: the incomplete metric fails where it is
        built, not at query time (what lint rule CON301 used to look for)."""

        class Incomplete(Metric):
            is_bounded = True
            upper_bound = 1.0

        with pytest.raises(TypeError, match="distance"):
            Incomplete()
        with pytest.raises(TypeError, match="distance"):
            Metric()
