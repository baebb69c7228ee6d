"""Per-query and system-wide cost metrics (paper §4.1).

The paper's evaluation metrics:

1. **hops** — maximum overlay path length needed to deliver a query to all
   of its index nodes;
2. **response time** — elapsed time from injecting the query to receiving
   the *first* result;
3. **maximum latency** — elapsed time until responses from *all* index nodes
   arrived;
4. **bandwidth cost** — total bytes for query delivery plus result delivery;
5. **recall** — ``|X ∩ Y| / |X|`` of the top-k (k = 10) result sets versus
   exact search.

:class:`QueryStats` accumulates 1–4 during simulation; recall is computed by
:mod:`repro.eval.metrics` against ground truth afterwards.  On the event
simulator each query's row is its lifecycle record,
:class:`repro.core.lifecycle.QueryFuture`, filed by the engine that
registered it in that engine's :class:`StatsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["QueryStats", "StatsCollector"]


@dataclass
class QueryStats:
    """Cost accumulators for one query (identified by ``qid``)."""

    qid: int
    issued_at: float = 0.0
    first_result_at: float | None = None
    last_result_at: float | None = None
    max_hops: int = 0
    query_bytes: int = 0
    result_bytes: int = 0
    query_messages: int = 0
    result_messages: int = 0
    #: messages that arrived at a crashed node and were lost (churn runs)
    dropped_messages: int = 0
    index_nodes: set[int] = field(default_factory=set)
    entries: list[Any] = field(default_factory=list)
    #: lifecycle state: issued/routing/resolving/complete/timed_out
    state: str = "issued"
    #: simulation time the query reached a terminal state
    completed_at: float | None = None
    #: message branches re-sent by the lifecycle engine (retries are real
    #: traffic: their bytes land in query_bytes like any other send)
    retransmissions: int = 0
    #: duplicate deliveries suppressed by idempotent branch ids
    duplicate_messages: int = 0
    #: branches abandoned after exhausting retries
    failed_branches: int = 0

    @property
    def response_time(self) -> float | None:
        """Time to first result, or None if nothing ever came back."""
        if self.first_result_at is None:
            return None
        return self.first_result_at - self.issued_at

    @property
    def max_latency(self) -> float | None:
        """Time to last result, or None if nothing ever came back."""
        if self.last_result_at is None:
            return None
        return self.last_result_at - self.issued_at

    @property
    def total_bytes(self) -> int:
        """Query-delivery plus result-delivery bandwidth."""
        return self.query_bytes + self.result_bytes

    def record_result_message(self, size: int, at: float) -> None:
        self.result_messages += 1
        self.result_bytes += size
        if self.first_result_at is None or at < self.first_result_at:
            self.first_result_at = at
        if self.last_result_at is None or at > self.last_result_at:
            self.last_result_at = at

    def record_index_node(self, node_id: int, hops: int) -> None:
        self.index_nodes.add(node_id)
        if hops > self.max_hops:
            self.max_hops = hops


class StatsCollector:
    """All per-query stats of a simulation run, with aggregate views.

    ``maintenance_bytes``/``maintenance_messages`` hold the stabilisation
    (maintenance-class) traffic of the run that produced these queries —
    filled by ``IndexPlatform.run_workload`` from the transport's per-class
    byte counters, so summaries separate the cost of answering queries from
    the background cost of keeping the overlay alive (Fig. 3/5).
    """

    def __init__(self) -> None:
        self.queries: dict[int, QueryStats] = {}
        self.maintenance_bytes: int = 0
        self.maintenance_messages: int = 0

    def for_query(self, qid: int) -> QueryStats:
        """The row of ``qid`` (``KeyError`` if no query of that id ran)."""
        return self.queries[qid]

    def __len__(self) -> int:
        return len(self.queries)

    # -- aggregates ----------------------------------------------------------

    def _collect(self, attr: str) -> np.ndarray:
        vals = []
        for qs in self.queries.values():
            v = getattr(qs, attr)
            if v is not None:
                vals.append(v)
        return np.asarray(vals, dtype=np.float64)

    def mean_hops(self) -> float:
        return float(self._collect("max_hops").mean()) if self.queries else 0.0

    def mean_response_time(self) -> float:
        v = self._collect("response_time")
        return float(v.mean()) if v.size else float("nan")

    def mean_max_latency(self) -> float:
        v = self._collect("max_latency")
        return float(v.mean()) if v.size else float("nan")

    def mean_total_bytes(self) -> float:
        return float(self._collect("total_bytes").mean()) if self.queries else 0.0

    def mean_query_bytes(self) -> float:
        return float(self._collect("query_bytes").mean()) if self.queries else 0.0

    def mean_result_bytes(self) -> float:
        return float(self._collect("result_bytes").mean()) if self.queries else 0.0

    def mean_query_messages(self) -> float:
        return float(self._collect("query_messages").mean()) if self.queries else 0.0

    def mean_index_nodes(self) -> float:
        if not self.queries:
            return 0.0
        return float(np.mean([len(q.index_nodes) for q in self.queries.values()]))

    def state_counts(self) -> dict[str, int]:
        """Queries per lifecycle state (``{"complete": 48, "timed_out": 2}``)."""
        out: dict[str, int] = {}
        for qs in self.queries.values():
            out[qs.state] = out.get(qs.state, 0) + 1
        return out

    def total_retransmissions(self) -> int:
        return sum(qs.retransmissions for qs in self.queries.values())

    def total_timed_out(self) -> int:
        return sum(1 for qs in self.queries.values() if qs.state == "timed_out")

    def summary(self) -> dict[str, float]:
        """All aggregate metrics as a flat dict (one row of a results table)."""
        return {
            "queries": float(len(self.queries)),
            "hops": self.mean_hops(),
            "response_time": self.mean_response_time(),
            "max_latency": self.mean_max_latency(),
            "query_bytes": self.mean_query_bytes(),
            "result_bytes": self.mean_result_bytes(),
            "total_bytes": self.mean_total_bytes(),
            "query_messages": self.mean_query_messages(),
            "index_nodes": self.mean_index_nodes(),
            "timed_out": float(self.total_timed_out()),
            "retransmissions": float(self.total_retransmissions()),
            "maintenance_bytes": float(self.maintenance_bytes),
            "maintenance_messages": float(self.maintenance_messages),
        }
