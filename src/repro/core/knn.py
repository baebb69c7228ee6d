"""k-nearest-neighbour search via iterative range expansion.

The architecture answers *range* queries natively (§3.1 converts a
near-neighbour ball into an index-space hypercube).  Exact k-NN with an
unknown radius is obtained by the classic radius-doubling loop: query with a
small radius, grow it geometrically until at least ``k`` results lie within
the queried radius — at which point the k-th candidate distance certifies
that no unexplored region can hold a closer object (the landmark projection
is contractive, so the range query has no false negatives).

Each round is one lifecycle-tracked query on the platform's *live*
simulator: the engine's completion future tells the loop when the round's
results are all in, so nothing ever calls ``sim.reset()`` — co-scheduled
events (stabilisation timers, other queries' messages) survive k-NN rounds
untouched.  Round qids come from the platform's allocator, so concurrent
searches never collide in stats or traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from typing import Any

from repro.core.lifecycle import RetryPolicy
from repro.sim.messages import ResultEntry, merge_entries

__all__ = ["KnnResult", "knn_search"]


@dataclass
class KnnResult:
    """Outcome of a k-NN search."""

    object_ids: np.ndarray
    distances: np.ndarray
    rounds: int
    final_radius: float
    exact: bool  # certified exact (k-th distance <= final radius)
    query_messages: int
    query_bytes: int
    result_bytes: int
    index_nodes: int


def knn_search(
    platform: Any,
    name: str,
    obj: Any,
    k: int = 10,
    initial_radius: float | None = None,
    growth: float = 2.0,
    max_rounds: int = 12,
    source_node: Any = None,
    policy: RetryPolicy | None = None,
    **protocol_kwargs: Any,
) -> KnnResult:
    """Find the ``k`` nearest indexed objects to ``obj``.

    ``initial_radius`` defaults to 1% of the index-space extent; each round
    multiplies the radius by ``growth`` until ``k`` results are certified or
    ``max_rounds`` is exhausted (the last round runs with the metric's upper
    bound when one is known, making the result exact for bounded metrics).
    ``policy`` configures per-round deadlines/retransmission for searches
    under faults; rounds run on the live simulator either way.
    """
    index = platform.indexes[name]
    node = source_node or platform.ring.nodes()[0]
    extent = float(np.max(index.bounds.highs - index.bounds.lows))
    radius = initial_radius if initial_radius is not None else 0.01 * extent
    if index.metric.is_bounded:
        radius = min(radius, index.metric.upper_bound)

    engine = platform.lifecycle(policy)
    proto, _ = platform.protocol(
        name, top_k=max(k, 10), range_filter=True, engine=engine, **protocol_kwargs,
    )
    total_msgs = 0
    total_qbytes = 0
    total_rbytes = 0
    nodes_touched: set[int] = set()
    found: list[ResultEntry] = []  # merged over the rounds so far
    rounds = 0
    exact = False
    for rounds in range(1, max_rounds + 1):
        qid = platform.qids.next()
        q = index.make_query(obj, radius, qid=qid)
        fut = proto.issue(q, node)
        engine.run_until_complete([fut])
        total_msgs += fut.query_messages
        total_qbytes += fut.query_bytes
        total_rbytes += fut.result_bytes
        nodes_touched |= fut.index_nodes
        found = merge_entries(found + fut.entries)
        if sum(e.distance <= radius for e in found) >= k:
            exact = True
            break
        if index.metric.is_bounded and radius >= index.metric.upper_bound:
            exact = True  # the whole space has been covered
            break
        radius *= growth
        if index.metric.is_bounded:
            radius = min(radius, index.metric.upper_bound)

    ids = np.asarray([e.object_id for e in found[:k]], dtype=np.int64)
    dists = np.asarray([e.distance for e in found[:k]])
    return KnnResult(
        object_ids=ids,
        distances=dists,
        rounds=rounds,
        final_radius=radius,
        exact=exact,
        query_messages=total_msgs,
        query_bytes=total_qbytes,
        result_bytes=total_rbytes,
        index_nodes=len(nodes_touched),
    )
