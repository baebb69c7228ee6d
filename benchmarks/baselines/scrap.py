"""SCRAP-style baseline: space-filling-curve mapping + 1-d interval queries.

SCRAP [11] ("One torus to rule them all", §5 of the paper) maps the
multi-dimensional space to one dimension with a space-filling curve and
resolves range queries as a set of 1-d key intervals routed to their owners.
This module reproduces that design on our Chord substrate so the paper's
embedded-tree routing can be compared against it quantitatively:

* :class:`SfcIndex` re-keys an existing landmark index's entries by Morton
  or Hilbert curve position (same index space, same refinement — only the
  1-d mapping differs);
* :class:`SfcRangeProtocol` decomposes a query rectangle into curve-key
  intervals (:func:`benchmarks.baselines.sfc.decompose_rect_to_intervals`),
  routes each interval to the owner of its start key with the naive
  baseline's hop-by-hop Chord lookup, and walks successors across the
  interval.

The trade-off this exposes: Hilbert fragments rectangles into fewer
intervals than Morton (continuity), but *every* interval costs an O(log n)
lookup plus a successor walk, whereas the paper's embedded-tree routing
shares prefixes across subqueries.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from benchmarks.baselines.sfc import (
    decompose_rect_to_intervals,
    hilbert_encode,
    morton_encode,
    quantize,
)
from repro.core.naive import NaiveProtocol
from repro.core.platform import LandmarkIndex
from repro.core.query import RangeQuery
from repro.dht.idspace import cw_distance
from repro.sim.messages import query_message_size

__all__ = ["SfcIndex", "SfcRangeProtocol"]

_CURVES = {"morton": morton_encode, "hilbert": hilbert_encode}


class SfcIndex(LandmarkIndex):
    """A landmark index re-keyed by space-filling-curve position.

    Built from an existing :class:`repro.core.platform.LandmarkIndex`
    (sharing its index space, dataset and refinement); entries are placed on
    the Chord successor of their curve key, scaled into the ``m``-bit ring by
    a left shift, with no rotation and no replicas.
    """

    def __init__(self, landmark_index: Any, p: int | None = None,
                 curve: str = "hilbert") -> None:
        if curve not in _CURVES:
            raise ValueError(f"unknown curve {curve!r} (use 'morton'/'hilbert')")
        base = landmark_index
        super().__init__(base.name, base.space, base.ring, base.dataset)
        self.qids = base.qids
        self.curve = curve
        self.encode = _CURVES[curve]
        max_p = self.m // self.k
        self.p = min(p, max_p) if p is not None else min(8, max_p)
        if self.p < 1:
            raise ValueError(f"m={self.m} too small for {self.k} dimensions")
        #: ring key = curve key << shift
        self.shift = self.m - self.k * self.p
        cells = quantize(base._points, self.bounds.lows, self.bounds.highs, self.p)
        self._keys = self.encode(cells, self.p) << np.uint64(self.shift)
        self._points = base._points
        self._object_ids = base._object_ids
        self.distribute()

    def query_intervals(self, rect: Any,
                        max_intervals: int = 4096) -> list[tuple[int, int]]:
        """Ring-key intervals covering the rectangle (scaled curve intervals).

        Adaptively coarsens the decomposition when a fine one would exceed
        ``max_intervals`` — coarser intervals are supersets, which only cost
        extra traffic (the rectangle filter at solve time keeps results
        exact).  High-dimensional fragmentation is the documented weakness of
        SFC interval routing.
        """
        lo_cells = quantize(np.array([rect.lows]), self.bounds.lows, self.bounds.highs, self.p)[0]
        hi_cells = quantize(np.array([rect.highs]), self.bounds.lows, self.bounds.highs, self.p)[0]
        for level in range(self.p, 0, -1):
            try:
                raw = decompose_rect_to_intervals(
                    lo_cells, hi_cells, self.k, self.p, self.encode,
                    max_intervals=max_intervals, max_level=level,
                )
                break
            except RuntimeError:
                continue
        else:
            raw = [(0, (1 << (self.k * self.p)) - 1)]
        return [
            (a << self.shift, ((b + 1) << self.shift) - 1) for a, b in raw
        ]


class SfcRangeProtocol(NaiveProtocol):
    """Route a rectangle's curve intervals to their owner chains.

    The naive baseline's hop-by-hop Chord lookup takes each curve interval
    to the owner of its first key, as ``scrap:interval`` messages; the
    interval walk continues from there across the owner's successors.  Local
    resolution, result replies and :class:`StatsCollector` semantics are
    :class:`repro.core.routing.QueryProtocol`'s, so the comparison benches
    treat every protocol alike.
    """

    def _start(self, node: Any, query: RangeQuery) -> None:
        for key_lo, key_hi in self.index.query_intervals(query.rect):
            self._lookup(node, key_lo, query, "scrap:interval",
                         self._walk_interval, key_lo, key_hi)

    def _walk_interval(self, owner: Any, q: RangeQuery, hops: int,
                       key_lo: int, key_hi: int) -> None:
        """Solve at the interval's current owner, then continue clockwise.

        Positions are clockwise distances from ``key_lo``: the walk ends at
        the owner at or past ``key_hi``, or where the successor would wrap
        back past ``key_lo``.  No predecessor is read — maintenance clears
        it when the predecessor stops answering.
        """
        self._solve_local(owner, q, hops, key_lo, key_hi)
        m = self.index.m
        here = cw_distance(key_lo, owner.id, m)
        if here >= cw_distance(key_lo, key_hi, m):
            return
        nxt = owner.successor_node()
        if cw_distance(key_lo, nxt.id, m) <= here:
            return
        size = query_message_size(1, self.index.k)
        self._tracked_send(
            owner, nxt, self._walk_interval, nxt, q, hops + 1, key_lo, key_hi,
            kind="scrap:interval", size=size, qid=q.qid,
        )
