"""Space-filling curves: Morton (Z-order) and Hilbert encodings.

The paper's related work (§5) contrasts its k-d locality-preserving hash
with SCRAP [11], which maps the multi-dimensional space to one dimension
with a Hilbert space-filling curve [18] and resolves range queries as 1-d
key intervals.  This module supplies both curves so the comparison can be
made quantitatively (`bench_ablation_sfc.py`):

* **Morton** (bit interleaving) is exactly the ordering induced by the
  paper's Algorithm 2 — the k-d recursive bisection spells the same bits —
  so it doubles as an independent cross-check of the LPH;
* **Hilbert** (Skilling's transform) visits every axis-aligned subcube
  contiguously, which fragments rectangles into fewer key intervals.

Both curves operate on ``k`` dimensions × ``p`` bits per dimension
(coordinates are grid cells in ``[0, 2^p)``); keys have ``k*p`` bits.  Every
*aligned* subcube of side ``2^(p-L)`` maps to one contiguous, size-aligned
key interval under either curve — the property
:func:`decompose_rect_to_intervals` exploits.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = [
    "morton_encode",
    "morton_decode",
    "hilbert_encode",
    "hilbert_decode",
    "quantize",
    "dequantize_cell",
    "decompose_rect_to_intervals",
]


# -- quantisation ---------------------------------------------------------------


def quantize(points: np.ndarray, lows: np.ndarray, highs: np.ndarray, p: int) -> np.ndarray:
    """Map float coordinates to grid cells in ``[0, 2^p)`` per dimension.

    Uses the same tie rule as the LPH (a coordinate exactly on a cell
    boundary belongs to the lower cell), implemented as
    ``ceil(frac * 2^p) - 1`` clipped into range.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    frac = (pts - lows) / (np.asarray(highs) - np.asarray(lows))
    cells = np.ceil(frac * (1 << p)).astype(np.int64) - 1
    return np.clip(cells, 0, (1 << p) - 1)


def dequantize_cell(
        cells: np.ndarray, lows: np.ndarray, highs: np.ndarray, p: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Return the (lo, hi) float box of integer grid cells."""
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    span = (np.asarray(highs) - np.asarray(lows)) / (1 << p)
    lo = lows + cells * span
    return lo, lo + span


# -- Morton (Z-order) --------------------------------------------------------------


def morton_encode(cells: np.ndarray, p: int) -> np.ndarray:
    """Interleave ``(n, k)`` integer coordinates into Morton keys.

    Bit ``t`` (0 = most significant of each coordinate) of dimension ``j``
    lands at key position ``t*k + j`` from the top — matching Algorithm 2's
    division order (dimension ``j`` is split on divisions ``j+1, j+1+k, ...``).
    """
    cells = np.atleast_2d(np.asarray(cells, dtype=np.uint64))
    n, k = cells.shape
    keys = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for t in range(p):
        shift = np.uint64(p - 1 - t)
        for j in range(k):
            bit = (cells[:, j] >> shift) & one
            keys = (keys << one) | bit
    return keys


def morton_decode(keys: np.ndarray, k: int, p: int) -> np.ndarray:
    """Inverse of :func:`morton_encode`; returns ``(n, k)`` coordinates."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    n = len(keys)
    cells = np.zeros((n, k), dtype=np.uint64)
    one = np.uint64(1)
    for t in range(p):
        for j in range(k):
            pos = np.uint64(k * p - 1 - (t * k + j))
            bit = (keys >> pos) & one
            cells[:, j] = (cells[:, j] << one) | bit
    return cells.astype(np.int64)


# -- Hilbert (Skilling's transform) ---------------------------------------------------


def _transpose_to_axes(x: list[int], k: int, p: int) -> list[int]:
    """Skilling: transposed Hilbert index -> axis coordinates (in place)."""
    n = 2 << (p - 1)
    # Gray decode by H ^ (H/2)
    t = x[k - 1] >> 1
    for i in range(k - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work
    q = 2
    while q != n:
        pq = q - 1
        for i in range(k - 1, -1, -1):
            if x[i] & q:
                x[0] ^= pq  # invert
            else:
                t = (x[0] ^ x[i]) & pq
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _axes_to_transpose(x: list[int], k: int, p: int) -> list[int]:
    """Skilling: axis coordinates -> transposed Hilbert index (in place)."""
    m = 1 << (p - 1)
    q = m
    while q > 1:
        pq = q - 1
        for i in range(k):
            if x[i] & q:
                x[0] ^= pq
            else:
                t = (x[0] ^ x[i]) & pq
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode
    for i in range(1, k):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[k - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(k):
        x[i] ^= t
    return x


def _untranspose(x: list[int], k: int, p: int) -> int:
    """Collect the transposed form into a single k*p-bit integer."""
    key = 0
    for t in range(p):
        for j in range(k):
            bit = (x[j] >> (p - 1 - t)) & 1
            key = (key << 1) | bit
    return key


def _transpose(key: int, k: int, p: int) -> list[int]:
    """Split a k*p-bit integer into the transposed form."""
    x = [0] * k
    for t in range(p):
        for j in range(k):
            pos = k * p - 1 - (t * k + j)
            bit = (key >> pos) & 1
            x[j] = (x[j] << 1) | bit
    return x


def hilbert_encode(cells: np.ndarray, p: int) -> np.ndarray:
    """Hilbert keys of ``(n, k)`` integer coordinates (Skilling's algorithm)."""
    cells = np.atleast_2d(np.asarray(cells, dtype=np.int64))
    n, k = cells.shape
    out = np.zeros(n, dtype=np.uint64)
    for i in range(n):
        x = [int(c) for c in cells[i]]
        _axes_to_transpose(x, k, p)
        out[i] = _untranspose(x, k, p)
    return out


def hilbert_decode(keys: np.ndarray, k: int, p: int) -> np.ndarray:
    """Inverse of :func:`hilbert_encode`; returns ``(n, k)`` coordinates."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    out = np.zeros((len(keys), k), dtype=np.int64)
    for i, key in enumerate(keys):
        x = _transpose(int(key), k, p)
        _transpose_to_axes(x, k, p)
        out[i] = x
    return out


# -- rectangle -> key-interval decomposition ----------------------------------------------


def decompose_rect_to_intervals(
    lo_cells: np.ndarray,
    hi_cells: np.ndarray,
    k: int,
    p: int,
    encode: Callable[[np.ndarray, int], np.ndarray],
    max_intervals: int = 1 << 14,
    max_level: int | None = None,
) -> list[tuple[int, int]]:
    """Decompose an integer cell box into contiguous curve-key intervals.

    ``encode`` is :func:`morton_encode` or :func:`hilbert_encode`.  Descends
    the aligned-subcube hierarchy: a subcube disjoint from the box is pruned,
    a contained one emits its (contiguous, size-aligned) key interval, a
    straddling one recurses into its ``2^k`` children.  Adjacent intervals
    are merged before returning, sorted by start key.

    ``max_level`` coarsens the decomposition: a cube still straddling the
    box at that depth emits its *whole* interval (a superset — callers must
    post-filter by rectangle, which the shard range search does anyway).
    ``max_intervals`` raises when even the coarsened decomposition is too
    fragmented.  The exponential fragmentation of high-dimensional
    rectangles is the documented weakness of SFC interval routing (SCRAP
    targets low dimensionality).
    """
    lo_cells = np.asarray(lo_cells, dtype=np.int64)
    hi_cells = np.asarray(hi_cells, dtype=np.int64)
    cutoff = p if max_level is None else max(1, min(max_level, p))
    intervals: list[tuple[int, int]] = []

    def emit(corner: np.ndarray, level: int) -> None:
        size = 1 << (k * (p - level))
        e = int(encode(corner[None, :], p)[0])
        start = e - (e % size)
        intervals.append((start, start + size - 1))
        if len(intervals) > max_intervals:
            raise RuntimeError(f"decomposition exceeded {max_intervals} intervals")

    def visit(corner: np.ndarray, level: int) -> None:
        side = 1 << (p - level)
        cube_lo = corner
        cube_hi = corner + side - 1
        if np.any(cube_hi < lo_cells) or np.any(cube_lo > hi_cells):
            return
        contained = np.all(cube_lo >= lo_cells) and np.all(cube_hi <= hi_cells)
        if contained or level >= cutoff:
            emit(corner, level)
            return
        half = side >> 1
        if half == 0:
            emit(corner, level)
            return
        for mask in range(1 << k):
            child = corner.copy()
            for j in range(k):
                if mask & (1 << j):
                    child[j] += half
            visit(child, level + 1)

    visit(np.zeros(k, dtype=np.int64), 0)
    intervals.sort()
    merged: list[tuple[int, int]] = []
    for a, b in intervals:
        if merged and a == merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return merged
