"""Range-query objects and query splitting (paper §3.3, Algorithm 4).

A near-neighbour query ``(q, r)`` in the metric space becomes the range query
over the hypercube of side ``2r`` centred at the query's index point, clipped
to the index-space boundary.  Each in-flight (sub)query carries a
``(prefix_key, prefix_length)`` identifying the smallest hypercuboid that
completely holds its region; routing progressively extends the prefix.

``query_split(q, p)`` is Algorithm 4: it reconstructs the splitting range of
dimension ``j = (p-1) mod k`` from the prefix bits, computes the midpoint,
and either advances the query wholly into one half (extending the prefix by
one bit) or splits it into two subqueries, one per half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import dimension_range, smallest_enclosing_prefix
from repro.util.bits import set_bit_at

__all__ = ["Rect", "RangeQuery", "QidAllocator", "query_split"]


class QidAllocator:
    """A scoped monotonic query-id source.

    Query ids key per-query stats, message traces and lifecycle records, so
    they must be unique within whatever shares those tables — a platform, or
    a standalone protocol.  Each :class:`repro.core.platform.IndexPlatform`
    owns one allocator (shared by all of its indexes), replacing the old
    process-global counter: two platforms built in one process now draw the
    same id sequence, which keeps stats and traces reproducible across
    repeated runs, and concurrent queries on one platform can never collide
    (the way ``knn_search``'s hardcoded ``qid=0`` used to).
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        qid = self._next
        self._next += 1
        return qid

    def reset(self, start: int = 0) -> None:
        self._next = start

    def peek(self) -> int:
        """The id the next :meth:`next` call will return."""
        return self._next


#: fallback for bare ``RangeQuery.from_point`` calls outside any platform
#: (platform/protocol paths always pass an explicit qid or allocator)
_fallback_qids = QidAllocator()


@dataclass
class Rect:
    """An axis-aligned hyper-rectangle in the index space."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        self.lows = np.asarray(self.lows, dtype=np.float64)
        self.highs = np.asarray(self.highs, dtype=np.float64)
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("rect bounds must be 1-D arrays of equal length")

    @property
    def k(self) -> int:
        return len(self.lows)

    def copy(self) -> Rect:
        return Rect(self.lows.copy(), self.highs.copy())

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of index points inside the rectangle (inclusive)."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lows) & (pts <= self.highs), axis=1)

    def intersects_box(self, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Whether the rectangle overlaps the (closed) box ``[lows, highs]``."""
        return bool(np.all(self.lows <= highs) & np.all(self.highs >= lows))

    def is_empty(self) -> bool:
        """True when some dimension has negative extent."""
        return bool(np.any(self.highs < self.lows))

    def volume(self) -> float:
        return float(np.prod(np.maximum(self.highs - self.lows, 0.0)))


@dataclass
class RangeQuery:
    """One (sub)query in flight: region + routing prefix + provenance.

    Attributes
    ----------
    rect:
        The query region in index space.
    prefix_key:
        ``m``-bit key: the prefix padded with zeros (figure 1a).
    prefix_len:
        Valid bit count of the prefix.
    qid:
        Stable id of the *original* query — subqueries inherit it, which is
        how per-query cost metrics are aggregated.
    source:
        Identifier of the querying node (results return directly to it).
    index_name:
        Which index of the multi-index platform this query targets.
    payload:
        Opaque reference to the original query object (used by index nodes to
        refine candidates with true metric distances).
    """

    rect: Rect
    prefix_key: int
    prefix_len: int
    qid: int
    source: Any = None
    index_name: str = "default"
    payload: Any = None
    radius: float | None = None

    def copy(self) -> RangeQuery:
        rect = self.rect
        return self._child(
            rect.lows.copy(), rect.highs.copy(), self.prefix_key, self.prefix_len)

    def _child(self, lows: np.ndarray, highs: np.ndarray,
               prefix_key: int, prefix_len: int) -> RangeQuery:
        """A subquery of this query over ``[lows, highs]``, which it takes
        ownership of.  The arrays must already be what :class:`Rect` coerces
        to (float64, 1-D, equal length — a ``.copy()`` of validated bounds or
        an elementwise min/max with them) and are not checked again."""
        rect = Rect.__new__(Rect)
        rect.lows = lows
        rect.highs = highs
        return RangeQuery(
            rect, prefix_key, prefix_len, self.qid, self.source,
            self.index_name, self.payload, self.radius)

    @classmethod
    def from_point(
        cls,
        center: np.ndarray,
        radius: float,
        bounds: IndexSpaceBounds,
        m: int,
        source: Any = None,
        index_name: str = "default",
        payload: Any = None,
        qid: int | None = None,
        alloc: QidAllocator | None = None,
    ) -> RangeQuery:
        """Build the initial query: hypercube of side ``2r`` clipped to bounds.

        Clipping realises the paper's observation that a query point mapped
        near the boundary searches ``[I_q - r, upper_boundary]`` rather than
        a full ``2r`` box (§4.3).
        """
        center = np.asarray(center, dtype=np.float64)
        lows = np.maximum(center - radius, bounds.lows)
        highs = np.minimum(center + radius, bounds.highs)
        key, length = smallest_enclosing_prefix(lows, highs, bounds, m)
        return cls(
            rect=Rect(lows, highs),
            prefix_key=key,
            prefix_len=length,
            qid=(alloc or _fallback_qids).next() if qid is None else qid,
            source=source,
            index_name=index_name,
            payload=payload,
            radius=float(radius),
        )


def query_split(
    q: RangeQuery,
    p: int,
    bounds: IndexSpaceBounds,
    m: int,
) -> list[RangeQuery]:
    """Algorithm 4 (QuerySplit): advance/split ``q`` at division position ``p``.

    ``p`` must be ``q.prefix_len + 1`` — the next division of the recursive
    partition.  Returns one subquery when the region lies wholly in one half
    (prefix extended by the matching bit) or two complementary subqueries
    otherwise.  The returned queries all have ``prefix_len == p``.
    """
    if not 1 <= p <= m:
        raise ValueError(f"split position {p} out of range 1..{m}")
    k = bounds.k
    j = (p - 1) % k
    # Reconstruct the dim-j extent of the cuboid addressed by the first
    # p-1 prefix bits (the while-loop of Algorithm 4).
    lo, hi = dimension_range(q.prefix_key, p - 1, j, bounds, m)
    mid = (lo + hi) / 2.0
    lows, highs, key = q.rect.lows, q.rect.highs, q.prefix_key
    # every subquery owns fresh copies of the bounds: nothing aliases q
    if lows[j] > mid:
        return [q._child(lows.copy(), highs.copy(), set_bit_at(key, p, m), p)]
    if highs[j] < mid:
        return [q._child(lows.copy(), highs.copy(), key, p)]
    # Straddles the midpoint: split into higher (bit 1) and lower (bit 0)
    # halves; Algorithm 4 line 22 assigns mid to both new boundaries.
    upper_lows = lows.copy()
    upper_lows[j] = mid
    lower_highs = highs.copy()
    lower_highs[j] = mid
    return [
        q._child(upper_lows, highs.copy(), set_bit_at(key, p, m), p),
        q._child(lows.copy(), lower_highs, key, p),
    ]
