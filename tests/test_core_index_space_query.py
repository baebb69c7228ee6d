"""Tests for index-space boundaries, Rect and QuerySplit (Algorithm 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index_space import MAX_BOUND, IndexSpace, IndexSpaceBounds
from repro.core.landmarks import greedy_selection
from repro.core.lph import lp_hash, lp_hash_batch, prefix_to_cuboid
from repro.core.query import RangeQuery, Rect, query_split
from repro.metric.vector import EuclideanMetric
from repro.util.bits import bit_at

B2 = IndexSpaceBounds.uniform(2, 0.0, 1.0)
M = 16


class TestBounds:
    def test_uniform(self):
        b = IndexSpaceBounds.uniform(3, 0.0, 5.0)
        assert b.k == 3
        np.testing.assert_array_equal(b.lows, [0, 0, 0])
        np.testing.assert_array_equal(b.highs, [5, 5, 5])

    def test_from_metric_requires_bounded(self):
        with pytest.raises(ValueError):
            IndexSpaceBounds.from_metric(2, EuclideanMetric())

    def test_from_metric_paper_synthetic(self):
        b = IndexSpaceBounds.from_metric(10, EuclideanMetric(box=(0, 100), dim=100))
        np.testing.assert_allclose(b.highs, 1000.0)
        np.testing.assert_allclose(b.lows, 0.0)

    def test_from_sample(self):
        pts = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 9.0]])
        b = IndexSpaceBounds.from_sample(pts)
        np.testing.assert_array_equal(b.lows, [1.0, 2.0])
        np.testing.assert_array_equal(b.highs, [3.0, 9.0])

    def test_from_sample_pad(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        b = IndexSpaceBounds.from_sample(pts, pad=0.1)
        np.testing.assert_allclose(b.lows, [-1.0, -1.0])
        np.testing.assert_allclose(b.highs, [11.0, 11.0])

    def test_from_sample_degenerate_dim(self):
        pts = np.array([[1.0, 5.0], [1.0, 6.0]])
        b = IndexSpaceBounds.from_sample(pts)
        assert b.highs[0] > b.lows[0]

    def test_clip(self):
        b = IndexSpaceBounds.uniform(2, 0.0, 1.0)
        out = b.clip(np.array([[-1.0, 0.5], [2.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.5], [1.0, 1.0]])

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            IndexSpaceBounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("lows, highs", [
        ([np.nan, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.0, np.nan]),
        ([-np.inf, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [np.inf, 1.0]),
        ([1e308, 0.0], [1.7e308, 1.0]),  # the first midpoint overflows
        ([-1.5e308, 0.0], [1.5e308, 1.0]),  # lo + hi is 0; the third midpoint overflows
    ], ids=["low-nan", "high-nan", "low-inf", "high-inf", "sum-overflows", "deep-sum-overflows"])
    def test_bounds_on_which_algorithm_2_collapses_are_rejected(self, lows, highs):
        """Each of these was accepted, and every point's dimension-0 key
        bits then came out all 0 or all 1: one prefix, no locality."""
        with pytest.raises(ValueError, match="magnitude"):
            IndexSpaceBounds(np.array(lows), np.array(highs))

    def test_the_widest_bounds_allowed_keep_every_midpoint_finite(self):
        b = IndexSpaceBounds.uniform(1, -MAX_BOUND, MAX_BOUND)
        # -MAX_BOUND / 2 and 0 lie on split planes (so the lower half), each
        # the high end of that half: every deeper bit is 1
        pts = np.array([[-MAX_BOUND], [-MAX_BOUND / 2], [0.0], [MAX_BOUND]])
        want = [0, 2**62 - 1, 2**63 - 1, 2**64 - 1]
        assert [lp_hash(p, b, 64) for p in pts] == want
        assert lp_hash_batch(pts, b, 64).tolist() == want

    def test_every_constructor_holds_to_the_rule(self):
        class Unbounded(EuclideanMetric):
            is_bounded = True  # but upper_bound stays inf

        with pytest.raises(ValueError, match="magnitude"):
            IndexSpaceBounds.uniform(2, np.nan, 1.0)
        with pytest.raises(ValueError, match="magnitude"):
            IndexSpaceBounds.from_metric(2, Unbounded())
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="magnitude"):
                IndexSpaceBounds.from_sample(np.array([[0.0, 1.0], [bad, 2.0]]))


class TestIndexSpace:
    def test_build_metric_boundary(self, rng):
        X = rng.uniform(0, 100, size=(100, 4))
        ls = greedy_selection(X, EuclideanMetric(box=(0, 100), dim=4), 3, seed=0)
        space = IndexSpace.build(ls, boundary="metric")
        assert space.k == 3
        assert np.all(space.project(X) <= space.bounds.highs + 1e-9)

    def test_build_sample_boundary(self, rng):
        X = rng.uniform(0, 100, size=(100, 4))
        ls = greedy_selection(X, EuclideanMetric(), 3, seed=0)  # unbounded metric
        space = IndexSpace.build(ls, boundary="sample", sample=X)
        proj = space.project(X)
        assert np.all(proj >= space.bounds.lows - 1e-9)
        assert np.all(proj <= space.bounds.highs + 1e-9)

    def test_sample_boundary_requires_sample(self, rng):
        X = rng.uniform(size=(20, 2))
        ls = greedy_selection(X, EuclideanMetric(), 2, seed=0)
        with pytest.raises(ValueError):
            IndexSpace.build(ls, boundary="sample")

    def test_unknown_boundary(self, rng):
        X = rng.uniform(size=(20, 2))
        ls = greedy_selection(X, EuclideanMetric(), 2, seed=0)
        with pytest.raises(ValueError):
            IndexSpace.build(ls, boundary="magic")

    def test_out_of_sample_objects_clipped(self, rng):
        """Objects beyond the sampled boundary map to boundary points (§3.1)."""
        X = rng.uniform(40, 60, size=(50, 3))
        ls = greedy_selection(X, EuclideanMetric(), 2, seed=0)
        space = IndexSpace.build(ls, boundary="sample", sample=X)
        far = np.array([[1000.0, 1000.0, 1000.0]])
        proj = space.project(far)
        assert np.all(proj <= space.bounds.highs + 1e-12)


class TestRect:
    def test_contains(self):
        r = Rect(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        mask = r.contains_points(np.array([[0.5, 0.5], [1.5, 0.5], [1.0, 1.0]]))
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_intersects(self):
        r = Rect(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert r.intersects_box(np.array([0.5, 0.5]), np.array([2.0, 2.0]))
        assert not r.intersects_box(np.array([1.1, 1.1]), np.array([2.0, 2.0]))
        # touching counts (closed boxes)
        assert r.intersects_box(np.array([1.0, 0.0]), np.array([2.0, 1.0]))

    def test_volume_and_empty(self):
        r = Rect(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert r.volume() == 6.0
        assert not r.is_empty()
        r2 = Rect(np.array([1.0, 0.0]), np.array([0.0, 3.0]))
        assert r2.is_empty()

    def test_bounds_are_immutable_floats(self):
        r = Rect(np.array([0, 1]), [1.5, np.float32(2.0)])
        assert r.lows == (0.0, 1.0) and r.highs == (1.5, 2.0)
        assert all(type(x) is float for x in r.lows + r.highs)
        with pytest.raises(TypeError):
            r.lows[0] = 0.5  # type: ignore[index]


class TestRangeQueryFromPoint:
    def test_rect_clipped_to_bounds(self):
        q = RangeQuery.from_point(np.array([0.05, 0.95]), 0.1, B2, M)
        np.testing.assert_allclose(q.rect.lows, [0.0, 0.85])
        np.testing.assert_allclose(q.rect.highs, [0.15, 1.0])

    def test_initial_prefix_holds_rect(self):
        q = RangeQuery.from_point(np.array([0.3, 0.3]), 0.01, B2, M)
        lo, hi = prefix_to_cuboid(q.prefix_key, q.prefix_len, B2, M)
        assert np.all(lo <= np.add(q.rect.lows, 1e-12))
        assert np.all(hi >= np.subtract(q.rect.highs, 1e-12))

    def test_qids_unique(self):
        a = RangeQuery.from_point(np.array([0.5, 0.5]), 0.1, B2, M)
        b = RangeQuery.from_point(np.array([0.5, 0.5]), 0.1, B2, M)
        assert a.qid != b.qid

    def test_explicit_qid(self):
        q = RangeQuery.from_point(np.array([0.5, 0.5]), 0.1, B2, M, qid=77)
        assert q.qid == 77

    def test_radius_recorded(self):
        q = RangeQuery.from_point(np.array([0.5, 0.5]), 0.07, B2, M)
        assert q.radius == pytest.approx(0.07)

    @pytest.mark.parametrize("radius", [-1e-300, -0.5, -np.inf, np.nan])
    def test_negative_or_nan_radius_refused(self, radius):
        with pytest.raises(ValueError, match="radius"):
            RangeQuery.from_point(np.array([0.5, 0.5]), radius, B2, M)

    @pytest.mark.parametrize("center", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_nan_center_refused(self, center):
        with pytest.raises(ValueError, match="NaN"):
            RangeQuery.from_point(np.array(center), 0.1, B2, M)

    @pytest.mark.parametrize("radius", [0.0, np.inf])
    def test_zero_and_infinite_radius_legal(self, radius):
        q = RangeQuery.from_point(np.array([0.5, 0.5]), radius, B2, M)
        assert q.radius == radius
        assert np.all(np.less_equal(q.rect.lows, q.rect.highs))


class TestQuerySplit:
    def _q(self, lo, hi, prefix_key=0, prefix_len=0):
        return RangeQuery(
            rect=Rect(np.asarray(lo, float), np.asarray(hi, float)),
            prefix_key=prefix_key,
            prefix_len=prefix_len,
            qid=0,
        )

    def test_straddling_splits_in_two(self):
        q = self._q([0.4, 0.1], [0.6, 0.2])
        subs = query_split(q, 1, B2, M)
        assert len(subs) == 2
        hi_half = [s for s in subs if bit_at(s.prefix_key, 1, M)][0]
        lo_half = [s for s in subs if not bit_at(s.prefix_key, 1, M)][0]
        assert hi_half.rect.lows[0] == pytest.approx(0.5)
        assert hi_half.rect.highs[0] == pytest.approx(0.6)
        assert lo_half.rect.lows[0] == pytest.approx(0.4)
        assert lo_half.rect.highs[0] == pytest.approx(0.5)
        assert all(s.prefix_len == 1 for s in subs)

    def test_wholly_lower_advances_prefix(self):
        q = self._q([0.1, 0.1], [0.3, 0.2])
        subs = query_split(q, 1, B2, M)
        assert len(subs) == 1
        assert subs[0].prefix_len == 1
        assert bit_at(subs[0].prefix_key, 1, M) == 0

    def test_wholly_upper_sets_bit(self):
        q = self._q([0.6, 0.1], [0.8, 0.2])
        subs = query_split(q, 1, B2, M)
        assert len(subs) == 1
        assert bit_at(subs[0].prefix_key, 1, M) == 1

    def test_second_division_splits_dim1(self):
        q = self._q([0.1, 0.4], [0.2, 0.6], prefix_key=0, prefix_len=1)
        subs = query_split(q, 2, B2, M)
        assert len(subs) == 2
        assert subs[0].rect.lows[1] == pytest.approx(0.5)  # upper half in dim 1

    def test_invalid_position(self):
        q = self._q([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            query_split(q, 0, B2, M)
        with pytest.raises(ValueError):
            query_split(q, M + 1, B2, M)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_split_partitions_rect(self, data):
        """The subqueries' rects union to the original rect (same volume,
        no overlap beyond the shared split plane)."""
        lo = np.asarray(
            data.draw(st.lists(st.floats(0.0, 0.9, allow_nan=False), min_size=2, max_size=2))
        )
        ext = np.asarray(
            data.draw(st.lists(st.floats(0.01, 0.5, allow_nan=False), min_size=2, max_size=2))
        )
        hi = np.minimum(lo + ext, 1.0)
        q = self._q(lo, hi)
        # advance through several levels, checking volume conservation
        queries = [q]
        for p in range(1, 7):
            nxt = []
            for qq in queries:
                nxt.extend(query_split(qq, p, B2, M))
            vol = sum(s.rect.volume() for s in nxt)
            assert vol == pytest.approx(q.rect.volume(), rel=1e-9)
            queries = nxt

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rect_stays_in_claimed_cuboid(self, data):
        """Invariant: after split at p, each subquery's rect lies inside the
        cuboid its (prefix_key, prefix_len=p) claims."""
        lo = np.asarray(
            data.draw(st.lists(st.floats(0.0, 0.9, allow_nan=False), min_size=2, max_size=2))
        )
        ext = np.asarray(
            data.draw(st.lists(st.floats(0.01, 0.4, allow_nan=False), min_size=2, max_size=2))
        )
        hi = np.minimum(lo + ext, 1.0)
        queries = [self._q(lo, hi)]
        for p in range(1, 9):
            nxt = []
            for qq in queries:
                nxt.extend(query_split(qq, p, B2, M))
            for s in nxt:
                clo, chi = prefix_to_cuboid(s.prefix_key, s.prefix_len, B2, M)
                assert np.all(s.rect.lows >= clo - 1e-12)
                assert np.all(s.rect.highs <= chi + 1e-12)
            queries = nxt

    def test_points_not_lost_by_split(self):
        """Every point of the rect lands in exactly one subquery rect whose
        key-range claim matches the point's hash (no false negatives)."""
        rng = np.random.default_rng(0)
        q = self._q([0.2, 0.3], [0.7, 0.8])
        queries = [q]
        for p in range(1, 9):
            nxt = []
            for qq in queries:
                nxt.extend(query_split(qq, p, B2, M))
            queries = nxt
        pts = rng.uniform([0.2, 0.3], [0.7, 0.8], size=(100, 2))
        for pt in pts:
            key = lp_hash(pt, B2, M)
            holders = [
                s
                for s in queries
                if np.all(pt >= s.rect.lows) and np.all(pt <= s.rect.highs)
                and (key >> (M - s.prefix_len)) == (s.prefix_key >> (M - s.prefix_len))
            ]
            assert len(holders) >= 1
