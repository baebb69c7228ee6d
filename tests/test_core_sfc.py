"""Tests for Morton/Hilbert curves and interval decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.baselines.sfc import (
    decompose_rect_to_intervals,
    dequantize_cell,
    hilbert_decode,
    hilbert_encode,
    morton_decode,
    morton_encode,
    quantize,
)
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import lp_hash_batch


class TestQuantize:
    def test_corners(self):
        lows, highs = np.zeros(2), np.ones(2)
        np.testing.assert_array_equal(quantize([[0.0, 0.0]], lows, highs, 3), [[0, 0]])
        np.testing.assert_array_equal(quantize([[1.0, 1.0]], lows, highs, 3), [[7, 7]])

    def test_boundary_goes_lower(self):
        lows, highs = np.zeros(1), np.ones(1)
        assert quantize([[0.5]], lows, highs, 1)[0, 0] == 0

    def test_matches_lph_tie_rule(self):
        """quantize + morton == the paper's Algorithm 2 bit for bit."""
        rng = np.random.default_rng(0)
        k, p = 3, 5
        bounds = IndexSpaceBounds.uniform(k, 0.0, 1.0)
        pts = rng.uniform(0, 1, size=(200, k))
        lph = lp_hash_batch(pts, bounds, k * p)
        cells = quantize(pts, bounds.lows, bounds.highs, p)
        morton = morton_encode(cells, p)
        np.testing.assert_array_equal(lph, morton)

    def test_dequantize_roundtrip(self):
        lows, highs = np.zeros(2), np.full(2, 8.0)
        lo, hi = dequantize_cell([[3, 5]], lows, highs, 3)
        np.testing.assert_allclose(lo, [[3.0, 5.0]])
        np.testing.assert_allclose(hi, [[4.0, 6.0]])


class TestMorton:
    def test_2d_order(self):
        # classic Z: (0,0)=0 (1,0)=? bit layout: dim0 first -> key bits x0 y0 x1 y1...
        cells = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        keys = morton_encode(cells, 1)
        assert keys.tolist() == [0, 2, 1, 3]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_roundtrip(self, data):
        k = data.draw(st.integers(1, 4))
        p = data.draw(st.integers(1, 8))
        n = data.draw(st.integers(1, 10))
        cells = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 2**p - 1), min_size=k, max_size=k),
                    min_size=n, max_size=n,
                )
            )
        )
        keys = morton_encode(cells, p)
        np.testing.assert_array_equal(morton_decode(keys, k, p), cells)


class TestHilbert:
    def test_2d_first_order(self):
        """The order-1 2-D Hilbert curve visits the quadrants in a U."""
        cells = np.array([[0, 0], [0, 1], [1, 1], [1, 0]])
        keys = hilbert_encode(cells, 1)
        assert sorted(keys.tolist()) == [0, 1, 2, 3]
        # consecutive curve positions are adjacent cells (the U shape)
        order = np.argsort(keys)
        path = cells[order]
        for a, b in zip(path[:-1], path[1:]):
            assert np.abs(a - b).sum() == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_roundtrip(self, data):
        k = data.draw(st.integers(1, 4))
        p = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 8))
        cells = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 2**p - 1), min_size=k, max_size=k),
                    min_size=n, max_size=n,
                )
            )
        )
        keys = hilbert_encode(cells, p)
        np.testing.assert_array_equal(hilbert_decode(keys, k, p), cells)

    def test_bijective_2d(self):
        p = 3
        grid = np.array([[x, y] for x in range(8) for y in range(8)])
        keys = hilbert_encode(grid, p)
        assert sorted(keys.tolist()) == list(range(64))

    def test_curve_continuity(self):
        """Consecutive Hilbert keys map to adjacent cells (|Δ|₁ = 1) — the
        locality property Morton lacks."""
        p, k = 4, 2
        keys = np.arange(2 ** (k * p), dtype=np.uint64)
        cells = hilbert_decode(keys, k, p)
        steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert np.all(steps == 1)

    def test_morton_not_continuous(self):
        p, k = 4, 2
        keys = np.arange(2 ** (k * p), dtype=np.uint64)
        cells = morton_decode(keys, k, p)
        steps = np.abs(np.diff(cells, axis=0)).sum(axis=1)
        assert steps.max() > 1

    def test_aligned_subcube_contiguity(self):
        """Every aligned subcube maps to one contiguous aligned interval —
        the property the decomposition relies on."""
        p, k = 3, 2
        for level in (1, 2):
            side = 1 << (p - level)
            size = 1 << (k * (p - level))
            for cx in range(0, 1 << p, side):
                for cy in range(0, 1 << p, side):
                    cube = np.array(
                        [[cx + dx, cy + dy] for dx in range(side) for dy in range(side)]
                    )
                    keys = sorted(hilbert_encode(cube, p).tolist())
                    assert keys[-1] - keys[0] == size - 1
                    assert keys[0] % size == 0


class TestDecomposition:
    @pytest.mark.parametrize("encode", [morton_encode, hilbert_encode])
    def test_covers_exactly(self, encode):
        """The union of intervals == the set of keys of cells in the box."""
        k, p = 2, 4
        lo = np.array([3, 5])
        hi = np.array([9, 12])
        intervals = decompose_rect_to_intervals(lo, hi, k, p, encode)
        cells = np.array(
            [[x, y] for x in range(3, 10) for y in range(5, 13)]
        )
        want = set(int(v) for v in encode(cells, p))
        got = set()
        for a, b in intervals:
            got |= set(range(a, b + 1))
        assert got == want

    def test_hilbert_fewer_intervals(self):
        """Hilbert's continuity fragments rectangles into fewer intervals —
        SCRAP's reason for choosing it."""
        rng = np.random.default_rng(0)
        k, p = 2, 6
        hilbert_total = morton_total = 0
        for _ in range(30):
            lo = rng.integers(0, 40, size=k)
            hi = lo + rng.integers(2, 20, size=k)
            hi = np.minimum(hi, (1 << p) - 1)
            morton_total += len(decompose_rect_to_intervals(lo, hi, k, p, morton_encode))
            hilbert_total += len(
                decompose_rect_to_intervals(lo, hi, k, p, hilbert_encode)
            )
        assert hilbert_total < morton_total

    def test_interval_cap(self):
        with pytest.raises(RuntimeError):
            decompose_rect_to_intervals(
                np.array([1, 1]), np.array([30, 30]), 2, 5, morton_encode,
                max_intervals=2,
            )

    def test_whole_domain_single_interval(self):
        k, p = 3, 4
        out = decompose_rect_to_intervals(
            np.zeros(k, dtype=int), np.full(k, 2**p - 1), k, p, hilbert_encode
        )
        assert out == [(0, 2 ** (k * p) - 1)]
