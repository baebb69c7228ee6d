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
  intervals (:func:`repro.core.sfc.decompose_rect_to_intervals`), routes
  each interval to the owner of its start key via a Chord lookup, and walks
  successors across the interval.

The trade-off this exposes: Hilbert fragments rectangles into fewer
intervals than Morton (continuity), but *every* interval costs an O(log n)
lookup plus a successor walk, whereas the paper's embedded-tree routing
shares prefixes across subqueries.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.query import RangeQuery
from repro.core.sfc import (
    decompose_rect_to_intervals,
    hilbert_encode,
    morton_encode,
    quantize,
)
from repro.core.routing import QueryProtocol
from repro.core.storage import Shard, group_by_owner
from repro.dht.idspace import in_interval_open_closed
from repro.sim.messages import query_message_size

__all__ = ["SfcIndex", "SfcRangeProtocol"]

_CURVES = {"morton": morton_encode, "hilbert": hilbert_encode}


class SfcIndex:
    """A landmark index re-keyed by space-filling-curve position.

    Built from an existing :class:`repro.core.platform.LandmarkIndex`
    (sharing its index space, dataset and refinement); entries are placed on
    the Chord successor of their curve key, scaled into the ``m``-bit ring by
    a left shift.
    """

    def __init__(self, landmark_index: Any, p: int | None = None,
                 curve: str = "hilbert") -> None:
        if curve not in _CURVES:
            raise ValueError(f"unknown curve {curve!r} (use 'morton'/'hilbert')")
        self.base = landmark_index
        self.ring = landmark_index.ring
        self.m = landmark_index.m
        self.k = landmark_index.k
        self.bounds = landmark_index.bounds
        self.curve = curve
        self.encode = _CURVES[curve]
        max_p = self.m // self.k
        self.p = min(p, max_p) if p is not None else min(8, max_p)
        if self.p < 1:
            raise ValueError(f"m={self.m} too small for {self.k} dimensions")
        #: ring key = curve key << shift
        self.shift = self.m - self.k * self.p
        self.shards: dict[object, Shard] = {}
        self._build()

    def _build(self) -> None:
        points = self.base._points
        cells = quantize(points, self.bounds.lows, self.bounds.highs, self.p)
        curve_keys = self.encode(cells, self.p)
        ring_keys = curve_keys << np.uint64(self.shift)
        owners = self.ring.owners_of_keys(ring_keys)
        nodes = self.ring.nodes()
        order, offsets = group_by_owner(owners, len(nodes))
        self.shards = {}
        for i, node in enumerate(nodes):
            sel = order[offsets[i] : offsets[i + 1]]
            shard = Shard(self.k)
            if len(sel):
                shard.add(ring_keys[sel], points[sel], self.base._object_ids[sel])
            self.shards[node] = shard

    def refine_distances(self, q: Any, object_ids: Any, radius: Any = None) -> Any:
        """Delegates candidate refinement to the underlying landmark index."""
        return self.base.refine_distances(q, object_ids, radius=radius)

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

    def load_distribution(self) -> np.ndarray:
        empty = Shard(self.k)
        return np.asarray(
            [self.shards.get(n, empty).load for n in self.ring.nodes()], dtype=np.int64
        )


class SfcRangeProtocol(QueryProtocol):
    """Route a rectangle's curve intervals to their owner chains.

    A :class:`repro.core.routing.QueryProtocol` subclass sharing its local
    resolution, result replies and :class:`StatsCollector` semantics (so the
    comparison benches treat both uniformly) — only query decomposition and
    routing differ: each curve interval takes an independent hop-by-hop
    Chord lookup through the shared transport, then walks successors across
    the interval.
    """

    def _start(self, node: Any, query: RangeQuery) -> None:
        for key_lo, key_hi in self.index.query_intervals(query.rect):
            path = self.index.ring.lookup_path(node, key_lo)
            self._lookup_hop(path, 0, query, key_lo, key_hi, 0)

    def _lookup_hop(self, path: Any, i: int, q: RangeQuery,
                    key_lo: int, key_hi: int, hops: int) -> None:
        node = path[i]
        if i == len(path) - 1:
            self._walk_interval(node, q, key_lo, key_hi, hops)
            return
        nxt = path[i + 1]
        self._hop_message(node, nxt, q, self._lookup_hop, path, i + 1, q, key_lo, key_hi, hops + 1)

    def _walk_interval(self, owner: Any, q: RangeQuery,
                       key_lo: int, key_hi: int, hops: int) -> None:
        """Solve at the interval's current owner, then continue clockwise."""
        self._solve_local(owner, q, hops, key_lo, key_hi)
        if in_interval_open_closed(key_hi, owner.predecessor["id"], owner.id, self.index.m):
            return
        nxt = owner.successor_node()
        if nxt is owner:
            return
        self._hop_message(owner, nxt, q, self._walk_interval, nxt, q, key_lo, key_hi, hops + 1)

    def _hop_message(self, src: Any, dst: Any, q: RangeQuery,
                     handler: Callable[..., None], *args: Any) -> None:
        size = query_message_size(1, self.index.k)
        self._tracked_send(
            src, dst, handler, *args,
            kind="scrap:interval", size=size, qid=q.qid,
        )
