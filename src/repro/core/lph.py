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
sibling decomposition SurrogateRefine forwards (:func:`sibling_pieces`), and
the two steps of a coordinator that walks the owners of a cuboid in key order
instead of forwarding it (:func:`first_key_meeting`, :func:`next_key_meeting`)
— two consumers of one descent along the path of a key.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.index_space import IndexSpaceBounds

#: a point's coordinates, or one corner of a box, in Python floats
Floats = tuple[float, ...]
#: a box as its ``(lows, highs)`` corners
Cuboid = tuple[Floats, Floats]

__all__ = [
    "lp_hash",
    "lp_hash_batch",
    "prefix_to_cuboid",
    "key_to_cuboid",
    "smallest_enclosing_prefix",
    "sibling_pieces",
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


#: Halvings of one dimension that :func:`lp_hash_batch` reads from a table of
#: cell edges: 65 537 edges, 512 KiB, cover k >= 4 dimensions at m = 64.  A
#: dimension halved more often carries on halving past the table.
_TABLE_LEVELS = 16


@dataclass(frozen=True)
class _EdgeTable:
    """Dimension ``j``'s cells after its first ``levels`` halvings."""

    j: int
    lo: float
    hi: float
    #: cells per unit of the coordinate: the arithmetic guess of a cell
    scale: float
    #: the ``2**levels + 1`` cell edges, the two ends read as -inf and +inf
    edges: np.ndarray
    #: a cell's key bits, most significant first, at their places in the key
    spread: np.ndarray
    #: key bit places of the halvings past the table
    deep: tuple[int, ...]


@lru_cache(maxsize=8)
def _edge_tables(lows: bytes, highs: bytes, m: int) -> tuple[_EdgeTable, ...]:
    """Edge tables of the dimensions ``m`` halvings split (at most ``m``).

    Division ``i`` halves dimension ``j = (i - 1) mod k`` and sets key bit
    place ``m - i``, so dimension ``j`` owns places ``m - j - 1``, ``m - j - 1
    - k``, ...  Its edges come from Algorithm 2's own recursion, each level
    putting ``(E[:-1] + E[1:]) * 0.5`` between the edges it has: the very
    ``(lo, hi)`` pairs the descent holds, so the floats are the same.
    """
    lo_all, hi_all = np.frombuffer(lows), np.frombuffer(highs)
    k = len(lo_all)
    tables = []
    for j in range(min(k, m)):
        places = range(m - j - 1, -1, -k)
        levels = min(len(places), _TABLE_LEVELS)
        lo, hi = float(lo_all[j]), float(hi_all[j])
        edges = np.array([lo, hi])
        for _ in range(levels):
            finer = np.empty(2 * len(edges) - 1)
            finer[0::2] = edges
            finer[1::2] = (edges[:-1] + edges[1:]) * 0.5
            edges = finer
        edges[0], edges[-1] = -np.inf, np.inf
        cells = np.arange(1 << levels, dtype=np.uint64)
        spread = np.zeros(1 << levels, dtype=np.uint64)
        for s, place in enumerate(places[:levels]):
            spread |= (cells >> np.uint64(levels - 1 - s) & np.uint64(1)) << np.uint64(place)
        edges.flags.writeable = spread.flags.writeable = False
        tables.append(_EdgeTable(j, lo, hi, (1 << levels) / (hi - lo), edges, spread,
                                 tuple(places[levels:])))
    return tuple(tables)


def lp_hash_batch(points: np.ndarray, bounds: IndexSpaceBounds, m: int) -> np.ndarray:
    """Vectorised Algorithm 2 over ``(n, k)`` points; ``uint64`` keys (``m <= 64``).

    Bit for bit :func:`lp_hash` on every input, NaN and infinities included.
    A dimension's halvings are a binary search over its fixed, sorted cell
    edges (:func:`_edge_tables`; sorted because :class:`IndexSpaceBounds`
    keeps every midpoint finite): the descent's cell is the number of
    interior edges below the coordinate, and NaN, below none, stays in cell
    0.  Each coordinate's cell is guessed by arithmetic and checked against
    its two edges; the check is the definition of the cell, so a wrong guess
    (rounding at an edge, NaN, an infinity) only costs a ``searchsorted``.
    """
    if m > 64:
        raise ValueError("lp_hash_batch supports identifier sizes up to 64 bits")
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != bounds.k:
        raise ValueError(f"points must be (n, {bounds.k}); got {pts.shape}")
    keys = np.zeros(len(pts), dtype=np.uint64)
    x = np.empty(len(pts))
    guess = np.empty(len(pts))
    # The guess may overflow or read inf * 0; the check settles every row.
    with np.errstate(all="ignore"):
        for t in _edge_tables(bounds.lows.tobytes(), bounds.highs.tobytes(), m):
            np.copyto(x, pts[:, t.j])
            np.subtract(x, t.lo, out=guess)
            np.multiply(guess, t.scale, out=guess)
            np.fmax(guess, 0.0, out=guess)  # NaN -> 0
            np.minimum(guess, len(t.spread) - 1, out=guess)
            cell = guess.astype(np.intp)
            lo, hi = t.edges[cell], t.edges[cell + 1]
            missed = np.flatnonzero(~((lo < x) & (x <= hi)))
            if len(missed):
                xm = x[missed]
                cell[missed] = np.where(np.isnan(xm), 0,
                                        np.searchsorted(t.edges[1:-1], xm, "left"))
            keys |= t.spread[cell]
            if t.deep:
                lo, hi = t.edges[cell], t.edges[cell + 1]
                lo[cell == 0] = t.lo
                hi[cell == len(t.spread) - 1] = t.hi
                for place in t.deep:
                    mid = (lo + hi) * 0.5
                    high_half = x > mid
                    np.copyto(lo, mid, where=high_half)
                    np.copyto(hi, mid, where=~high_half)
                    keys |= high_half.astype(np.uint64) << np.uint64(place)
    return keys


def _path_cuboid(key: int, depth: int, bounds: IndexSpaceBounds,
                 m: int) -> tuple[list[float], list[float]]:
    """The cuboid of the first ``depth`` bits of ``key`` in Python floats,
    for a descent to carry on from (the midpoint sequence of the hash,
    hence its bounds bit for bit)."""
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


def prefix_to_cuboid(
    prefix_key: int,
    prefix_len: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The hypercuboid (lows, highs) addressed by a prefix of length ``prefix_len``."""
    lo, hi = _path_cuboid(prefix_key, prefix_len, bounds, m)
    return np.array(lo), np.array(hi)


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
    lo_r: list[float] = np.asarray(lows, dtype=np.float64).tolist()
    hi_r: list[float] = np.asarray(highs, dtype=np.float64).tolist()
    lo: list[float] = bounds.lows.tolist()
    hi: list[float] = bounds.highs.tolist()
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
    rl: Sequence[float], rh: Sequence[float], m: int,
) -> Iterator[tuple[int, Floats, Floats]]:
    """Algorithm 5's descent along the path of ``eff``, the one both walks run.

    ``[lo, hi]`` is the cuboid of the first ``prefix_len`` bits of ``eff``
    (consumed: carried down and halved once per bit), ``[rl, rh]`` the
    rectangle.  The keys above ``eff`` in that cuboid decompose into one
    *sibling* per zero bit ``i`` of ``eff`` below the prefix — the first
    ``i - 1`` bits of ``eff`` followed by a 1, the upper half along dimension
    ``(i - 1) mod k`` of the depth ``i - 1`` path cuboid.  Yields ``(i, lows,
    highs)``, tuples, in ascending ``i`` for every sibling whose closed
    cuboid meets the closed rectangle.  The path cuboid meets the rectangle in
    every dimension or the descent never starts, and a halving can only break
    that in the dimension it halves, so only that one is tested; every deeper
    sibling lies inside the path cuboid, so once that misses the walk is over.
    """
    for a, b, c, d in zip(lo, hi, rl, rh):
        if not max(a, c) <= min(b, d):
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
            yield i, tuple(sib_lo), tuple(hi)
        if rl[j] > mid:
            return
        hi[j] = mid


def sibling_pieces(
    eff: int,
    prefix_len: int,
    cuboid: tuple[Sequence[float], Sequence[float]],
    rect_lows: Sequence[float],
    rect_highs: Sequence[float],
    m: int,
) -> Iterator[tuple[int, int, Floats, Floats, Cuboid]]:
    """The sibling cuboids SurrogateRefine forwards, in one descent (Algorithm 5).

    ``cuboid`` is the cuboid of the first ``prefix_len`` bits of ``eff`` and
    the rectangle meets it, all in Python floats.  Yields ``(prefix_key, i,
    lows, highs, sibling)`` in ascending ``i`` for every sibling of ``eff``
    below the prefix (:func:`_siblings_meeting`) whose closed cuboid meets
    the closed rectangle: ``sibling`` is that cuboid and ``lows``/``highs``
    its intersection with the rectangle, elementwise as ``np.maximum`` /
    ``np.minimum`` give it (a NaN bound stays NaN; a tie takes the cuboid's
    float).  The descent halves the given cuboid, so a cuboid built by
    :func:`prefix_to_cuboid` gives its float sequence bit for bit.
    """
    tail = (1 << (m - prefix_len)) - 1
    if eff & tail == tail:
        return  # no zero bit below the prefix, so no sibling
    for i, sib_lo, sib_hi in _siblings_meeting(
            eff, prefix_len, list(cuboid[0]), list(cuboid[1]), rect_lows, rect_highs, m):
        bit = 1 << (m - i)
        yield ((eff & -bit) | bit, i,
               tuple([c if c >= r else r for r, c in zip(rect_lows, sib_lo)]),
               tuple([c if c <= r else r for r, c in zip(rect_highs, sib_hi)]),
               (sib_lo, sib_hi))


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
    midpoint sequence as :func:`sibling_pieces`: against the hash's strict
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
    :func:`sibling_pieces`, and a deeper sibling holds smaller keys than a
    shallower one: the answer is the first such key of the deepest sibling
    that walk would yield — the last yield of the one descent both run
    (:func:`_siblings_meeting`), entered here from a float cuboid.
    """
    lo, hi = _path_cuboid(eff, prefix_len, bounds, m)
    rl: list[float] = rect_lows.tolist()
    deepest: tuple[int, Floats, Floats] | None = None
    for deepest in _siblings_meeting(eff, prefix_len, lo, hi, rl, rect_highs.tolist(), m):
        pass
    if deepest is None:
        return None
    i, sib_lo, sib_hi = deepest
    bit = 1 << (m - i)
    return _first_leaf_meeting((eff & -bit) | bit, i, list(sib_lo), list(sib_hi), rl, m)
