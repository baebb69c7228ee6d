"""Locality-preserving hashing of the index space (paper §3.2, Algorithm 2).

The k-dimensional index space is partitioned k-d-tree style into ``2^m``
equally sized hypercuboids, dividing dimensions alternately — the ``i``-th
division splits dimension ``j = (i - 1) mod k`` — for ``m`` total divisions
(``m`` = identifier bits of Chord, 64 in the paper).  A cuboid's key spells
its division choices: picking the *higher half* on the ``i``-th division sets
bit ``i`` (counted from the left) to 1.  The paper's tie rule is strict
(``point[j] > mid`` → high half), so a coordinate exactly on a split plane
belongs to the lower cell.

Nearby index points share long key prefixes, so Chord's successor mapping
sends them to the same or neighbouring nodes — that is the locality the range
queries exploit.

This module also provides the inverse geometry (key/prefix → cuboid), the
*smallest enclosing prefix* of a query rectangle, used to initialise the
``(prefix_key, prefix_length)`` of a range query (§3.3, figure 1a), the
sibling decomposition SurrogateRefine forwards (:func:`walk_siblings`), and
the two steps of a coordinator that walks the owners of a cuboid in key order
instead of forwarding it (:func:`first_key_meeting`, :func:`next_key_meeting`)
— two consumers of one descent along the path of a key.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.util.bits import bit_at

__all__ = [
    "lp_hash",
    "lp_hash_batch",
    "prefix_to_cuboid",
    "key_to_cuboid",
    "dimension_range",
    "smallest_enclosing_prefix",
    "walk_siblings",
    "first_key_meeting",
    "next_key_meeting",
]


def lp_hash(point: np.ndarray, bounds: IndexSpaceBounds, m: int) -> int:
    """Algorithm 2: hash one index point to its ``m``-bit cuboid key.

    Reference scalar implementation — the batch version below is the hot
    path.  Coordinates are assumed clipped into ``bounds``.
    """
    point = np.asarray(point, dtype=np.float64)
    k = bounds.k
    if point.shape != (k,):
        raise ValueError(f"point shape {point.shape} != ({k},)")
    lo = bounds.lows.copy()
    hi = bounds.highs.copy()
    key = 0
    for i in range(1, m + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if point[j] > mid:
            lo[j] = mid
            key = (key << 1) | 1
        else:
            hi[j] = mid
            key = key << 1
    return key


def lp_hash_batch(points: np.ndarray, bounds: IndexSpaceBounds, m: int) -> np.ndarray:
    """Vectorised Algorithm 2 over ``(n, k)`` points.

    Runs the same ``m`` halving steps but across all points at once; exact
    bit-for-bit agreement with :func:`lp_hash` (same floating-point midpoint
    sequence).  Returns ``uint64`` keys (``m <= 64``).
    """
    if m > 64:
        raise ValueError("lp_hash_batch supports identifier sizes up to 64 bits")
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != bounds.k:
        raise ValueError(f"points must be (n, {bounds.k}); got {pts.shape}")
    n, k = pts.shape
    lo = np.broadcast_to(bounds.lows, (n, k)).copy()
    hi = np.broadcast_to(bounds.highs, (n, k)).copy()
    keys = np.zeros(n, dtype=np.uint64)
    one = np.uint64(1)
    for i in range(1, m + 1):
        j = (i - 1) % k
        mid = (lo[:, j] + hi[:, j]) * 0.5
        high_half = pts[:, j] > mid
        # np.where copies the midpoint values unchanged, so the halving
        # sequence (and hence every key bit) matches lp_hash exactly; it
        # replaces two boolean fancy-indexing round trips per division.
        lo[:, j] = np.where(high_half, mid, lo[:, j])
        hi[:, j] = np.where(high_half, hi[:, j], mid)
        keys = (keys << one) | high_half.astype(np.uint64)
    return keys


def dimension_range(
    prefix_key: int,
    upto: int,
    dim: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> tuple[float, float]:
    """Range of dimension ``dim`` of the cuboid spelled by bits ``1..upto``.

    Replays the divisions that hit ``dim`` among the first ``upto`` bits of
    ``prefix_key`` — the loop at the top of Algorithm 4 (QuerySplit), which
    reconstructs ``R`` before computing the split midpoint.
    """
    k = bounds.k
    lo = float(bounds.lows[dim])
    hi = float(bounds.highs[dim])
    # Divisions on dimension `dim` are i = dim+1, dim+1+k, dim+1+2k, ...
    i = dim + 1
    while i <= upto:
        mid = (lo + hi) / 2.0
        if bit_at(prefix_key, i, m):
            lo = mid
        else:
            hi = mid
        i += k
    return lo, hi


def prefix_to_cuboid(
    prefix_key: int,
    prefix_len: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The hypercuboid (lows, highs) addressed by a prefix of length ``prefix_len``."""
    k = bounds.k
    lo = bounds.lows.copy()
    hi = bounds.highs.copy()
    for i in range(1, prefix_len + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if bit_at(prefix_key, i, m):
            lo[j] = mid
        else:
            hi[j] = mid
    return lo, hi


def key_to_cuboid(key: int, bounds: IndexSpaceBounds, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaf hypercuboid of a full ``m``-bit key."""
    return prefix_to_cuboid(key, m, bounds, m)


def smallest_enclosing_prefix(
    lows: np.ndarray,
    highs: np.ndarray,
    bounds: IndexSpaceBounds,
    m: int,
) -> tuple[int, int]:
    """Smallest hypercuboid completely holding the query region (figure 1a).

    Descends the recursive partition while the query rectangle fits entirely
    within one half; returns ``(prefix_key, prefix_length)`` with the prefix
    zero-padded to ``m`` bits.  Containment follows the hash's tie rule:
    the lower half is ``[lo, mid]`` (closed) and the higher half ``(mid, hi]``,
    so a query touching ``mid`` from above only fits the higher half if its
    low end is strictly greater than ``mid``.
    """
    k = bounds.k
    lo_r = np.asarray(lows, dtype=np.float64).copy()
    hi_r = np.asarray(highs, dtype=np.float64).copy()
    lo = bounds.lows.copy()
    hi = bounds.highs.copy()
    key = 0
    length = 0
    for i in range(1, m + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if lo_r[j] > mid:  # entire query in the higher half
            key = (key << 1) | 1
            lo[j] = mid
        elif hi_r[j] <= mid:  # entire query in the lower half (mid inclusive)
            key = key << 1
            hi[j] = mid
        else:
            break
        length = i
    return key << (m - length), length


def _siblings_meeting(
    eff: int, prefix_len: int, lo: list[float], hi: list[float],
    rl: list[float], rh: list[float], m: int,
) -> Iterator[tuple[int, list[float], list[float]]]:
    """Algorithm 5's descent along the path of ``eff``, the one both walks run.

    ``[lo, hi]`` is the cuboid of the first ``prefix_len`` bits of ``eff``
    (consumed: carried down and halved once per bit), ``[rl, rh]`` the
    rectangle.  The keys above ``eff`` in that cuboid decompose into one
    *sibling* per zero bit ``i`` of ``eff`` below the prefix — the first
    ``i - 1`` bits of ``eff`` followed by a 1, the upper half along dimension
    ``(i - 1) mod k`` of the depth ``i - 1`` path cuboid.  Yields ``(i, lows,
    highs)``, fresh lists, in ascending ``i`` for every sibling whose closed
    cuboid meets the closed rectangle.  The path cuboid meets the rectangle in
    every dimension or the descent never starts, and a halving can only break
    that in the dimension it halves, so only that one is tested; every deeper
    sibling lies inside the path cuboid, so once that misses the walk is over.
    """
    if not all(max(a, c) <= min(b, d) for a, b, c, d in zip(lo, hi, rl, rh)):
        return
    k = len(lo)
    for i in range(prefix_len + 1, m + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if eff >> (m - i) & 1:
            if mid > rh[j]:
                return
            lo[j] = mid
            continue
        if mid <= rh[j]:
            sib_lo = lo.copy()
            sib_lo[j] = mid
            yield i, sib_lo, hi.copy()
        if rl[j] > mid:
            return
        hi[j] = mid


def walk_siblings(
    eff: int,
    prefix_len: int,
    rect_lows: np.ndarray,
    rect_highs: np.ndarray,
    bounds: IndexSpaceBounds,
    m: int,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The sibling cuboids SurrogateRefine forwards, in one descent (Algorithm 5).

    Yields ``(prefix_key, i, lows, highs)`` in ascending ``i`` for every
    sibling of ``eff`` below the prefix (:func:`_siblings_meeting`) whose
    closed cuboid meets the closed rectangle, ``lows``/``highs`` being that
    intersection.  The descent starts from :func:`prefix_to_cuboid` and
    repeats its float sequence, hence identical bounds.
    """
    tail = (1 << (m - prefix_len)) - 1
    if eff & tail == tail:
        return  # no zero bit below the prefix, so no sibling: build no cuboid
    lows, highs = prefix_to_cuboid(eff, prefix_len, bounds, m)
    for i, sib_lo, sib_hi in _siblings_meeting(
            eff, prefix_len, lows.tolist(), highs.tolist(),
            rect_lows.tolist(), rect_highs.tolist(), m):
        bit = 1 << (m - i)
        yield ((eff & -bit) | bit, i,
               np.maximum(rect_lows, np.array(sib_lo)), np.minimum(rect_highs, np.array(sib_hi)))


def _path_cuboid(key: int, depth: int, bounds: IndexSpaceBounds,
                 m: int) -> tuple[list[float], list[float]]:
    """:func:`prefix_to_cuboid` in Python floats, for a descent to carry on
    from (the same midpoint sequence, hence the same bounds bit for bit)."""
    k = bounds.k
    lo: list[float] = bounds.lows.tolist()
    hi: list[float] = bounds.highs.tolist()
    for i in range(1, depth + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if key >> (m - i) & 1:
            lo[j] = mid
        else:
            hi[j] = mid
    return lo, hi


def _first_leaf_meeting(key: int, depth: int, lo: list[float], hi: list[float],
                        rl: list[float], m: int) -> int:
    """Descend from the cuboid ``(key, depth) = [lo, hi]``, which meets the
    rectangle, taking the lower half wherever it still does."""
    k = len(lo)
    for i in range(depth + 1, m + 1):
        j = (i - 1) % k
        mid = (lo[j] + hi[j]) / 2.0
        if rl[j] > mid:
            lo[j] = mid
            key |= 1 << (m - i)
        else:
            hi[j] = mid
    return key


def first_key_meeting(
    prefix_key: int,
    depth: int,
    rect_lows: np.ndarray,
    bounds: IndexSpaceBounds,
    m: int,
) -> int:
    """Smallest key of the cuboid ``(prefix_key, depth)`` whose leaf cuboid meets the rectangle.

    The closed cuboid must meet the closed, non-empty rectangle — true of a
    :func:`smallest_enclosing_prefix`.  A halving can then only separate the
    two in the dimension it halves: the lower half ``[lo, mid]`` still meets
    the rectangle iff the rectangle's low end is ``<= mid``, and when it does
    not the upper half must.  So the descent takes the lower half whenever it
    may and reads only the rectangle's low corner.  Same closed test and float
    midpoint sequence as :func:`walk_siblings`: against the hash's strict
    ``>`` tie rule the leaf may hold no point of the rectangle, but no key
    below it can.
    """
    lo, hi = _path_cuboid(prefix_key, depth, bounds, m)
    return _first_leaf_meeting(prefix_key, depth, lo, hi, rect_lows.tolist(), m)


def next_key_meeting(
    eff: int,
    prefix_len: int,
    rect_lows: np.ndarray,
    rect_highs: np.ndarray,
    bounds: IndexSpaceBounds,
    m: int,
) -> int | None:
    """Smallest key above ``eff`` whose leaf cuboid meets the rectangle, or ``None``.

    Searched inside the cuboid spelled by the first ``prefix_len`` bits of
    ``eff``.  The keys above ``eff`` in it are the siblings of
    :func:`walk_siblings`, and a deeper sibling holds smaller keys than a
    shallower one: the answer is the first such key of the deepest sibling
    that walk would yield — the last yield of the one descent both run
    (:func:`_siblings_meeting`), entered here from a float cuboid.
    """
    lo, hi = _path_cuboid(eff, prefix_len, bounds, m)
    rl: list[float] = rect_lows.tolist()
    deepest: tuple[int, list[float], list[float]] | None = None
    for deepest in _siblings_meeting(eff, prefix_len, lo, hi, rl, rect_highs.tolist(), m):
        pass
    if deepest is None:
        return None
    i, lo, hi = deepest
    bit = 1 << (m - i)
    return _first_leaf_meeting((eff & -bit) | bit, i, lo, hi, rl, m)
