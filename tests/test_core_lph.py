"""Tests for the locality-preserving hash (Algorithm 2) and cuboid geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import lph
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import (
    first_key_meeting,
    key_to_cuboid,
    lp_hash,
    lp_hash_batch,
    next_key_meeting,
    prefix_to_cuboid,
    sibling_pieces,
    smallest_enclosing_prefix,
)
from repro.util.bits import bit_at, prefix_of, set_bit_at

B2 = IndexSpaceBounds.uniform(2, 0.0, 1.0)


class TestScalarHash:
    def test_2d_quadrants_m2(self):
        """With m=2 over [0,1]^2 the four quadrants spell 00,10,01,11.

        Division 1 splits dim 0, division 2 splits dim 1; bit 1 = higher half
        of dim 0, bit 2 = higher half of dim 1.
        """
        assert lp_hash(np.array([0.25, 0.25]), B2, 2) == 0b00
        assert lp_hash(np.array([0.75, 0.25]), B2, 2) == 0b10
        assert lp_hash(np.array([0.25, 0.75]), B2, 2) == 0b01
        assert lp_hash(np.array([0.75, 0.75]), B2, 2) == 0b11

    def test_paper_figure1_prefix_011(self):
        """Figure 1(a): after 3 divisions, rectangle '011' is the low-x,
        high-y, high-x-within-left... — verify by geometry round trip."""
        lo, hi = prefix_to_cuboid(0b011 << 13, 3, B2, 16)
        # prefix 011: dim0 lower half (bit1=0), dim1 upper half (bit2=1),
        # dim0 upper quarter of the lower half (bit3=1).
        np.testing.assert_allclose(lo, [0.25, 0.5])
        np.testing.assert_allclose(hi, [0.5, 1.0])

    def test_boundary_point_goes_lower(self):
        """The tie rule: point exactly on the split plane hashes low."""
        assert lp_hash(np.array([0.5, 0.5]), B2, 2) == 0b00

    def test_corners(self):
        m = 8
        assert lp_hash(np.array([0.0, 0.0]), B2, m) == 0
        assert lp_hash(np.array([1.0, 1.0]), B2, m) == 2**m - 1

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            lp_hash(np.zeros(3), B2, 4)

    def test_alternating_dimensions(self):
        """Division i splits dimension (i-1) mod k."""
        b3 = IndexSpaceBounds.uniform(3, 0.0, 1.0)
        # Only dim 2 high: bits at divisions 3, 6, ... are 1.
        key = lp_hash(np.array([0.1, 0.1, 0.9]), b3, 6)
        assert key == 0b001001


class TestBatchHash:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_matches_scalar(self, data):
        k = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 24))
        bounds = IndexSpaceBounds.uniform(k, -3.0, 7.0)
        n = data.draw(st.integers(1, 12))
        pts = data.draw(
            st.lists(
                st.lists(st.floats(-3.0, 7.0, allow_nan=False), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
        pts = np.asarray(pts)
        batch = lp_hash_batch(pts, bounds, m)
        for i in range(n):
            assert int(batch[i]) == lp_hash(pts[i], bounds, m)

    def test_m64_supported(self):
        pts = np.random.default_rng(0).uniform(size=(16, 3))
        b3 = IndexSpaceBounds.uniform(3, 0.0, 1.0)
        keys = lp_hash_batch(pts, b3, 64)
        assert keys.dtype == np.uint64
        for i in range(16):
            assert int(keys[i]) == lp_hash(pts[i], b3, 64)

    def test_past_the_table_the_halving_carries_on(self):
        """k = 2 at m = 64 halves each dimension 32 times: the table covers
        the first levels and the rest halve from the looked-up cell's edges."""
        b = IndexSpaceBounds(np.array([-3.0, 100.0]), np.array([7.0, 101.0]))
        assert all(t.deep for t in lph._edge_tables(b.lows.tobytes(), b.highs.tobytes(), 64))
        pts = np.random.default_rng(2).uniform(b.lows - 1.0, b.highs + 1.0, size=(200, 2))
        pts[:64] = b.lows + (b.highs - b.lows) * (np.arange(64)[:, None] / 64)  # on edges
        pts[3, 0], pts[5, 1], pts[9, 0] = np.nan, np.inf, -np.inf
        assert lp_hash_batch(pts, b, 64).tolist() == [lp_hash(p, b, 64) for p in pts]

    def test_points_on_cell_edges_take_the_exact_search(self, monkeypatch):
        """A point on a cell edge guesses the cell above, fails the check and
        is searched; so are NaN and -inf.  Every one of them lands where the
        descent puts it."""
        b3 = IndexSpaceBounds.uniform(3, -3.0, 7.0)
        m = 24
        rng = np.random.default_rng(3)
        pts = np.empty((150, 3))
        for r in range(150):
            key, depth = int(rng.integers(0, 2**m)), int(rng.integers(0, m + 1))
            lo, hi = prefix_to_cuboid(key, depth, b3, m)
            pts[r] = np.where(rng.random(3) < 0.5, lo, hi)
        pts[0], pts[1] = np.nan, -np.inf
        searched: list[int] = []
        search = np.searchsorted
        monkeypatch.setattr(np, "searchsorted",
                            lambda a, v, *args: searched.append(len(v)) or search(a, v, *args))
        keys = lp_hash_batch(pts, b3, m)
        assert searched
        assert keys.tolist() == [lp_hash(p, b3, m) for p in pts]

    def test_m_above_64_rejected(self):
        with pytest.raises(ValueError):
            lp_hash_batch(np.zeros((1, 2)), B2, 65)

    def test_locality(self):
        """Nearby points share longer prefixes than distant ones, on average."""
        rng = np.random.default_rng(1)
        m = 16
        base = rng.uniform(0.2, 0.8, size=(200, 2))
        near = base + rng.uniform(-0.01, 0.01, size=base.shape)
        far = rng.uniform(0, 1, size=base.shape)
        kb = lp_hash_batch(base, B2, m)
        kn = lp_hash_batch(near, B2, m)
        kf = lp_hash_batch(far, B2, m)

        def mean_common_prefix(a, b):
            x = np.bitwise_xor(a, b)
            return np.mean([m - int(v).bit_length() for v in x])

        assert mean_common_prefix(kb, kn) > mean_common_prefix(kb, kf) + 2


class TestEdgeTableCache:
    PTS = np.random.default_rng(4).uniform(0.0, 1.0, size=(20, 3))

    def test_equal_bounds_share_a_table(self):
        lph._edge_tables.cache_clear()
        a = IndexSpaceBounds.uniform(3, 0.0, 1.0)
        b = IndexSpaceBounds(np.zeros(3), np.ones(3))
        assert np.array_equal(lp_hash_batch(self.PTS, a, 24), lp_hash_batch(self.PTS, b, 24))
        info = lph._edge_tables.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_different_bounds_never_mix(self):
        cases = [(IndexSpaceBounds.uniform(3, 0.0, 1.0), 24),
                 (IndexSpaceBounds(np.zeros(3), np.array([1.0, 1.0, 0.5])), 24),
                 (IndexSpaceBounds.uniform(3, 0.0, 1.0), 23),
                 (IndexSpaceBounds.uniform(3, -1.0, 1.0), 24)]
        for bounds, m in cases * 2:
            want = [lp_hash(p, bounds, m) for p in self.PTS]
            assert lp_hash_batch(self.PTS, bounds, m).tolist() == want

    def test_the_cache_stays_bounded(self):
        maxsize = lph._edge_tables.cache_info().maxsize
        assert maxsize is not None
        for i in range(3 * maxsize):
            lp_hash_batch(self.PTS, IndexSpaceBounds.uniform(3, 0.0, 1.0 + i), 24)
        assert lph._edge_tables.cache_info().currsize == maxsize


class TestInverseGeometry:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_point_within_its_cuboid(self, data):
        k = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 20))
        bounds = IndexSpaceBounds.uniform(k, 0.0, 1.0)
        pt = np.asarray(
            data.draw(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=k, max_size=k))
        )
        key = lp_hash(pt, bounds, m)
        lo, hi = key_to_cuboid(key, bounds, m)
        assert np.all(pt >= lo - 1e-12) and np.all(pt <= hi + 1e-12)

    def test_cuboids_partition_volume(self):
        """All 2^m leaf cuboids have equal volume summing to the domain."""
        m = 4
        vols = []
        for key in range(2**m):
            lo, hi = key_to_cuboid(key, B2, m)
            vols.append(np.prod(hi - lo))
        assert np.allclose(vols, 1.0 / 2**m)

    def test_prefix_nesting(self):
        """cuboid(prefix, L) contains cuboid(prefix', L+1) for its children."""
        m = 10
        key = 0b0110000000
        lo1, hi1 = prefix_to_cuboid(key, 3, B2, m)
        for child in (key, key | (1 << (m - 4))):
            lo2, hi2 = prefix_to_cuboid(child, 4, B2, m)
            assert np.all(lo2 >= lo1 - 1e-12) and np.all(hi2 <= hi1 + 1e-12)


class TestSmallestEnclosingPrefix:
    def test_full_domain_query(self):
        key, length = smallest_enclosing_prefix(
            np.array([0.0, 0.0]), np.array([1.0, 1.0]), B2, 8
        )
        assert (key, length) == (0, 0)

    def test_tiny_query_deep_prefix(self):
        key, length = smallest_enclosing_prefix(
            np.array([0.3, 0.3]), np.array([0.3001, 0.3001]), B2, 16
        )
        assert length > 8
        lo, hi = prefix_to_cuboid(key, length, B2, 16)
        assert np.all(lo <= 0.3) and np.all(hi >= 0.3001)

    def test_straddling_centre_stays_at_root(self):
        key, length = smallest_enclosing_prefix(
            np.array([0.49, 0.1]), np.array([0.51, 0.2]), B2, 16
        )
        assert length == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_prefix_contains_rect(self, data):
        m = 14
        lo = np.asarray(
            data.draw(st.lists(st.floats(0.0, 0.99, allow_nan=False), min_size=2, max_size=2))
        )
        ext = np.asarray(
            data.draw(st.lists(st.floats(0.0, 0.3, allow_nan=False), min_size=2, max_size=2))
        )
        hi = np.minimum(lo + ext, 1.0)
        key, length = smallest_enclosing_prefix(lo, hi, B2, m)
        clo, chi = prefix_to_cuboid(key, length, B2, m)
        assert np.all(clo <= lo + 1e-12) and np.all(chi >= hi - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_point_keys_share_query_prefix(self, data):
        """Every point inside the rect hashes with the enclosing prefix —
        the guarantee routing relies on (no false negatives)."""
        m = 12
        lo = np.asarray(
            data.draw(st.lists(st.floats(0.0, 0.9, allow_nan=False), min_size=2, max_size=2))
        )
        ext = np.asarray(
            data.draw(st.lists(st.floats(0.001, 0.2, allow_nan=False), min_size=2, max_size=2))
        )
        hi = np.minimum(lo + ext, 1.0)
        key, length = smallest_enclosing_prefix(lo, hi, B2, m)
        rng = np.random.default_rng(0)
        pts = rng.uniform(lo, hi, size=(30, 2))
        keys = lp_hash_batch(pts, B2, m)
        shift = np.uint64(m - length)
        if length:
            assert np.all((keys >> shift) == np.uint64(key >> (m - length)))


def _pieces(eff, prefix_len, rect_lows, rect_highs, bounds, m):
    """:func:`sibling_pieces` from ``prefix_to_cuboid``'s floats for the
    first ``prefix_len`` bits of ``eff``: ``(prefix_key, i, lows, highs)``."""
    cuboid = tuple(c.tolist() for c in prefix_to_cuboid(eff, prefix_len, bounds, m))
    return [(key, i, lows, highs) for key, i, lows, highs, _ in sibling_pieces(
        eff, prefix_len, cuboid, list(map(float, rect_lows)), list(map(float, rect_highs)), m)]


def _siblings_by_replay(eff, prefix_len, rect_lows, rect_highs, bounds, m):
    """The per-sibling reference for :func:`sibling_pieces`: one
    ``prefix_to_cuboid`` replay from the root per zero bit of ``eff`` and a
    closed-interval intersection with the rectangle (SurrogateRefine's loop
    before the walk existed; kept here, and only here, as the oracle)."""
    out = []
    for i in range(prefix_len + 1, m + 1):
        if bit_at(eff, i, m):
            continue
        sib = set_bit_at(prefix_of(eff, i - 1, m), i, m)
        lows, highs = prefix_to_cuboid(sib, i, bounds, m)
        nl = np.maximum(rect_lows, lows)
        nh = np.minimum(rect_highs, highs)
        if np.all(nl <= nh):
            out.append((sib, i, nl, nh))
    return out


def _hexed(pieces):
    return [
        (key, depth, [float(x).hex() for x in lows], [float(x).hex() for x in highs])
        for key, depth, lows, highs in pieces
    ]


def _split_planes(eff, bounds, m):
    """Per dimension, every coordinate a cuboid on the root-to-leaf path of
    ``eff`` (and hence any of its siblings) is bounded by."""
    planes = [{float(lo), float(hi)} for lo, hi in zip(bounds.lows, bounds.highs)]
    for depth in range(1, m + 1):
        lows, highs = prefix_to_cuboid(eff, depth, bounds, m)
        j = (depth - 1) % bounds.k
        planes[j].update((float(lows[j]), float(highs[j])))
    return [sorted(p) for p in planes]


class TestWalkSiblings:
    def test_whole_space_from_key_zero(self):
        """eff = 0 under the empty prefix: every bit is zero, so the siblings
        are the upper halves 1, 01, 001, ... — all of which meet the whole
        space — in ascending depth."""
        m = 6
        got = _pieces(0, 0, B2.lows, B2.highs, B2, m)
        assert [(key, depth) for key, depth, _, _ in got] == [
            (1 << (m - i), i) for i in range(1, m + 1)
        ]
        assert _hexed(got) == _hexed(_siblings_by_replay(0, 0, B2.lows, B2.highs, B2, m))

    def test_maximal_key_has_no_sibling(self):
        m = 8
        assert _pieces(0b01011111, 3, B2.lows, B2.highs, B2, m) == []
        assert _pieces(0b01000000, m, B2.lows, B2.highs, B2, m) == []

    def test_stops_once_the_path_leaves_the_rectangle(self):
        """A rectangle in the top-right corner: the path of eff = 0 turns left
        at depth 1 and never meets it again, so the right half is the only
        sibling forwarded."""
        lows, highs = np.array([0.8, 0.8]), np.array([0.9, 0.9])
        got = _pieces(0, 0, lows, highs, B2, 16)
        assert [(key >> 14, depth) for key, depth, _, _ in got] == [(0b10, 1)]
        assert _hexed(got) == _hexed(_siblings_by_replay(0, 0, lows, highs, B2, 16))

    @pytest.mark.parametrize(
        "lows, highs",
        [
            ([0.6, 0.6], [0.9, 0.9]),    # disjoint from the claimed cuboid
            ([0.1, 0.1], [0.9, 0.9]),    # sticks out of it on two sides
            ([0.5, 0.25], [0.5, 0.25]),  # a point on its corner, on two planes
            ([0.4, 0.1], [0.2, 0.3]),    # inverted in dimension 0: empty
        ],
    )
    def test_rectangle_not_inside_the_claimed_cuboid(self, lows, highs):
        """The caller claims prefix 00 = [0, .5] x [0, .5]; a rectangle that
        is not contained in it is clipped (or dropped) as the reference does."""
        m = 12
        lows, highs = np.array(lows), np.array(highs)
        for eff in (0, 0b000101100110, 0b001111111110):
            got = _pieces(eff, 2, lows, highs, B2, m)
            assert _hexed(got) == _hexed(_siblings_by_replay(eff, 2, lows, highs, B2, m))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_sequence_as_per_sibling_replay(self, data):
        k = data.draw(st.integers(1, 12), label="k")
        m = data.draw(st.sampled_from([8, 16, 32, 64]), label="m")
        finite = dict(allow_nan=False, allow_infinity=False)
        blo = data.draw(st.lists(st.floats(-1e3, 1e3, **finite), min_size=k, max_size=k))
        ext = data.draw(st.lists(st.floats(1e-3, 1e3, **finite), min_size=k, max_size=k))
        bounds = IndexSpaceBounds(np.array(blo), np.array(blo) + np.array(ext))
        eff = data.draw(st.integers(0, (1 << m) - 1), label="eff")
        prefix_len = data.draw(st.integers(0, m), label="prefix_len")
        # each rectangle bound is either anywhere in the dimension or exactly
        # on one of the planes the descent splits at; equal draws make the
        # rectangle zero-width in that dimension
        planes = _split_planes(eff, bounds, m)
        lows, highs = [], []
        for j in range(k):
            coord = st.one_of(
                st.sampled_from(planes[j]),
                st.floats(float(bounds.lows[j]), float(bounds.highs[j]), **finite),
            )
            a = data.draw(coord)
            b = a if data.draw(st.booleans()) else data.draw(coord)
            lows.append(min(a, b))
            highs.append(max(a, b))
        lows, highs = np.array(lows), np.array(highs)
        got = _pieces(eff, prefix_len, lows, highs, bounds, m)
        want = _siblings_by_replay(eff, prefix_len, lows, highs, bounds, m)
        assert _hexed(got) == _hexed(want)


def _meeting_keys(lows, highs, bounds, m):
    """Brute force: every key whose closed leaf cuboid meets the closed rect."""
    out = []
    for key in range(1 << m):
        clo, chi = key_to_cuboid(key, bounds, m)
        if np.all(np.maximum(clo, lows) <= np.minimum(chi, highs)):
            out.append(key)
    return out


def _some_key_meets(key_lo, key_hi, lows, highs, bounds, m):
    """Does the leaf cuboid of any key in ``[key_lo, key_hi]`` meet the closed
    rect?  Usable at any ``m``: the interval is cut into aligned prefix
    cuboids, each tested whole."""
    while key_lo <= key_hi:
        span = (key_lo & -key_lo) or 1 << m
        while span > key_hi - key_lo + 1:
            span >>= 1
        clo, chi = prefix_to_cuboid(key_lo, m - span.bit_length() + 1, bounds, m)
        if np.all(np.maximum(clo, lows) <= np.minimum(chi, highs)):
            return True
        key_lo += span
    return False


@st.composite
def _small_space_and_rect(draw):
    """A k-d space (k 1-4) under a small m and a non-empty rectangle in it,
    each edge either anywhere or exactly on a split plane of the first three
    halvings of its dimension; equal draws give a zero-width side."""
    k = draw(st.integers(1, 4), label="k")
    m = draw(st.integers(1, 10), label="m")
    bounds = IndexSpaceBounds.uniform(k, 0.0, 1.0)
    coord = st.one_of(
        st.sampled_from([i / 8 for i in range(9)]),
        st.floats(0.0, 1.0, allow_nan=False),
    )
    lows, highs = [], []
    for _ in range(k):
        a = draw(coord)
        b = a if draw(st.booleans()) else draw(coord)
        lows.append(min(a, b))
        highs.append(max(a, b))
    return bounds, m, np.array(lows), np.array(highs)


class TestOwnerWalkSteps:
    """``first_key_meeting`` / ``next_key_meeting`` against enumeration."""

    @settings(max_examples=150, deadline=None)
    @given(_small_space_and_rect())
    def test_first_key_is_the_minimum_meeting_key_of_the_enclosing_cuboid(self, case):
        bounds, m, lows, highs = case
        meeting = _meeting_keys(lows, highs, bounds, m)
        prefix_key, depth = smallest_enclosing_prefix(lows, highs, bounds, m)
        top = prefix_key + (1 << (m - depth)) - 1
        want = min(key for key in meeting if prefix_key <= key <= top)
        assert first_key_meeting(prefix_key, depth, lows, bounds, m) == want

    @settings(max_examples=150, deadline=None)
    @given(_small_space_and_rect(), st.data())
    def test_next_key_is_the_minimum_meeting_key_above_eff(self, case, data):
        bounds, m, lows, highs = case
        meeting = _meeting_keys(lows, highs, bounds, m)
        eff = data.draw(st.integers(0, (1 << m) - 1), label="eff")
        for prefix_len in {0, m, data.draw(st.integers(0, m), label="prefix_len")}:
            span = 1 << (m - prefix_len)
            top = eff // span * span + span - 1
            above = [key for key in meeting if eff < key <= top]
            got = next_key_meeting(eff, prefix_len, lows, highs, bounds, m)
            assert got == (above[0] if above else None)
            # eff = last key of the cuboid: nothing is above it
            assert next_key_meeting(top, prefix_len, lows, highs, bounds, m) is None

    @settings(max_examples=100, deadline=None)
    @given(_small_space_and_rect(), st.data())
    def test_walk_visits_every_meeting_key_and_skips_no_match(self, case, data):
        """Stepping with ``eff = cur`` enumerates the meeting keys in order.
        Against the hash's strict ``>`` tie rule that is a superset of the
        keys that hold a point of the rectangle — never less: the hash of
        every corner of the rectangle (edges on split planes included) and
        of points drawn inside it is among the keys visited."""
        bounds, m, lows, highs = case
        prefix_key, depth = smallest_enclosing_prefix(lows, highs, bounds, m)
        visited = []
        cur = first_key_meeting(prefix_key, depth, lows, bounds, m)
        while cur is not None:
            visited.append(cur)
            cur = next_key_meeting(cur, depth, lows, highs, bounds, m)
        top = prefix_key + (1 << (m - depth)) - 1
        assert visited == [
            key for key in _meeting_keys(lows, highs, bounds, m) if prefix_key <= key <= top
        ]
        k = bounds.k
        picks = [np.where(np.array(mask), highs, lows)
                 for mask in data.draw(st.lists(
                     st.lists(st.booleans(), min_size=k, max_size=k), max_size=6))]
        fracs = data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), max_size=6))
        picks += [lows + np.array(f) * (highs - lows) for f in fracs]
        for point in picks:
            assert lp_hash(np.clip(point, lows, highs), bounds, m) in visited

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_at_ring_sized_m(self, data):
        """Where no enumeration reaches: the result meets the rectangle, no
        key passed over does, and ``next_key_meeting`` is the deepest sibling
        :func:`sibling_pieces` yields, descended to its first meeting leaf."""
        k = data.draw(st.integers(1, 6), label="k")
        m = data.draw(st.sampled_from([16, 32, 64]), label="m")
        bounds = IndexSpaceBounds.uniform(k, 0.0, 1000.0)
        centre = np.array(data.draw(st.lists(st.floats(0.0, 1000.0), min_size=k, max_size=k)))
        half = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1e-6, 1.0, 62.5, 150.0, 400.0]), min_size=k, max_size=k)))
        lows, highs = np.clip(centre - half, 0.0, 1000.0), np.clip(centre + half, 0.0, 1000.0)
        prefix_key, depth = smallest_enclosing_prefix(lows, highs, bounds, m)
        top = prefix_key + (1 << (m - depth)) - 1

        first = first_key_meeting(prefix_key, depth, lows, bounds, m)
        assert prefix_key <= first <= top
        assert _some_key_meets(first, first, lows, highs, bounds, m)
        assert not _some_key_meets(prefix_key, first - 1, lows, highs, bounds, m)

        eff = data.draw(st.integers(prefix_key, top), label="eff")
        nxt = next_key_meeting(eff, depth, lows, highs, bounds, m)
        siblings = _pieces(eff, depth, lows, highs, bounds, m)
        if nxt is None:
            assert not siblings
            assert not _some_key_meets(eff + 1, top, lows, highs, bounds, m)
        else:
            sib_key, sib_depth, _, _ = siblings[-1]
            assert nxt == first_key_meeting(sib_key, sib_depth, lows, bounds, m)
            assert eff < nxt <= top
            assert _some_key_meets(nxt, nxt, lows, highs, bounds, m)
            assert not _some_key_meets(eff + 1, nxt - 1, lows, highs, bounds, m)

    def test_rect_edge_on_a_split_plane(self):
        """A rectangle whose low edge lies on the first split plane of
        dimension 0 touches the lower half in the plane only.  A point on the
        plane hashes low (strict ``>``), so the walk must start there."""
        m = 4
        lows, highs = np.array([0.5, 0.1]), np.array([0.9, 0.2])
        assert smallest_enclosing_prefix(lows, highs, B2, m) == (0, 0)
        first = first_key_meeting(0, 0, lows, B2, m)
        assert first == lp_hash(np.array([0.5, 0.1]), B2, m) == 0b0010
        assert first == _meeting_keys(lows, highs, B2, m)[0]
