"""The naive range-query baseline the paper argues against (§3.3).

"A naive approach is to subdivide a range query into many subqueries, each of
which is covered by only one of the ``2^m`` hypercuboids, and to route each
subquery to the corresponding index node.  This method is obviously
inefficient and will cause high overhead especially when the query
selectivity is large."

We implement the practical form of that strawman: the querying node
decomposes the query region into canonical prefix cuboids *down to owner
granularity* (descending only while a cuboid spans more than one owner, so
the subquery count equals the number of index nodes touched — the best case
for the naive scheme) and performs an **independent Chord lookup per
subquery**, with no path sharing, no bundling and no surrogate refinement.
Every lookup hop is a separate query message delivered through the shared
transport (so naive routing degrades under the same injected faults as the
embedded-tree routing it is compared against); this per-hop cost is what the
embedded-tree routing amortises away.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.query import RangeQuery, Rect
from repro.core.routing import QueryProtocol
from repro.dht.idspace import cw_distance, rotate
from repro.sim.messages import query_message_size

__all__ = ["NaiveProtocol", "decompose_to_owner_cuboids"]


def decompose_to_owner_cuboids(
    index: Any,
    rect: Rect,
    max_subqueries: int = 1 << 14,
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Split ``rect`` into prefix cuboids each owned by a single node.

    Returns ``(prefix_key, prefix_len, lows, highs)`` tuples whose boxes
    cover ``rect`` (intersected).  Descends the k-d partition; a cuboid stops
    splitting when one node owns its whole (rotated) key range or the depth
    hits ``m``.  Raises if the decomposition exceeds ``max_subqueries`` —
    the blow-up is the point of the baseline, but unbounded recursion would
    be unusable.
    """
    m = index.m
    k = index.bounds.k
    ring = index.ring
    out: list[tuple[int, int, np.ndarray, np.ndarray]] = []
    # (prefix_key, prefix_len, cuboid lows, cuboid highs); a child halves one
    # dimension of its parent's cuboid, the float sequence of prefix_to_cuboid.
    # The arrays are shared between entries and never written after creation.
    stack: list[tuple[int, int, np.ndarray, np.ndarray]] = [
        (0, 0, index.bounds.lows, index.bounds.highs)
    ]
    while stack:
        prefix_key, prefix_len, lows, highs = stack.pop()
        nl = np.maximum(rect.lows, lows)
        nh = np.minimum(rect.highs, highs)
        if np.any(nl > nh):
            continue
        span = 1 << (m - prefix_len)
        key_lo = rotate(prefix_key, index.rotation, m)
        # One owner covers the whole (possibly wrapping, after rotation) key
        # range iff the first node at or after its low end lies at or beyond
        # its high end: no node id inside [key_lo, key_lo + span - 1).
        single = cw_distance(key_lo, ring.successor_of(key_lo).id, m) >= span - 1
        if single or prefix_len == m:
            out.append((prefix_key, prefix_len, nl, nh))
            if len(out) > max_subqueries:
                raise RuntimeError(
                    f"naive decomposition exceeded {max_subqueries} subqueries"
                )
            continue
        child_len = prefix_len + 1
        high_child = prefix_key | (1 << (m - child_len))
        j = prefix_len % k
        mid = (lows[j] + highs[j]) / 2.0
        low_highs = highs.copy()
        low_highs[j] = mid
        high_lows = lows.copy()
        high_lows[j] = mid
        stack.append((prefix_key, child_len, lows, low_highs))
        stack.append((high_child, child_len, high_lows, highs))
    return out


class NaiveProtocol(QueryProtocol):
    """Per-cuboid independent Chord lookups (no tree sharing, no bundling).

    ``issue()``/lifecycle tracking are inherited from
    :class:`repro.core.routing.QueryProtocol`; only the first step
    (:meth:`_start`) and the hop-by-hop lookup (:meth:`_lookup`) differ.
    """

    def _start(self, node: Any, query: RangeQuery) -> None:
        index = self.index
        pieces = decompose_to_owner_cuboids(index, query.rect)
        for prefix_key, prefix_len, nl, nh in pieces:
            # a piece is looked up and solved, never split: no cuboid needed
            sq = query._child(Rect(nl, nh), prefix_key, prefix_len, None)
            target = rotate(prefix_key, index.rotation, index.m)
            self._lookup(node, target, sq, "naive:lookup",
                         self._solve_local, *self._claimed_range(sq))

    def _lookup(self, node: Any, key: int, q: RangeQuery, kind: str,
                then: Callable[..., None], *args: Any) -> None:
        """Walk the Chord lookup path from ``node`` to ``key``'s owner, one
        tracked ``kind`` message per hop, then run
        ``then(owner, q, hops, *args)`` at the owner."""
        path = self.index.ring.lookup_path(node, key)
        self._lookup_hop(path, 0, q, 0, kind, then, args)

    def _lookup_hop(self, path: Any, i: int, q: RangeQuery, hops: int, kind: str,
                    then: Callable[..., None], args: tuple[Any, ...]) -> None:
        node = path[i]
        if i == len(path) - 1:
            then(node, q, hops, *args)
            return
        size = query_message_size(1, self.index.k)
        self._tracked_send(
            node, path[i + 1], self._lookup_hop, path, i + 1, q, hops + 1, kind, then, args,
            kind=kind, size=size, qid=q.qid,
        )
