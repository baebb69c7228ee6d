"""Message types and the paper's byte-size accounting (§4.1).

The paper models message sizes exactly as::

    query message  = 20 + 4 + n * (2*2*k + 8 + 1)   bytes
    result message = 20 + 6 * entries               bytes

where 20 bytes are the packet header, 4 the source IP, ``n`` the number of
subqueries bundled in the message, ``k`` the number of landmarks (each
subquery ships its k-dimensional rectangle as 2k coordinates of 2 bytes
each), 8 bytes the prefix key and 1 byte the prefix length.

Bundling matters: Algorithm 3 can produce several subqueries sharing a next
hop; the routing layer groups them into a single message, which is what the
``n x`` term models.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "query_message_size",
    "result_message_size",
    "ResultMessage",
    "ResultEntry",
    "merge_entries",
]

PACKET_HEADER_BYTES = 20
SOURCE_IP_BYTES = 4
COORD_BYTES = 2
PREFIX_KEY_BYTES = 8
PREFIX_LEN_BYTES = 1
RESULT_ENTRY_BYTES = 6


def query_message_size(n_subqueries: int, k: int) -> int:
    """Paper's query-message size model: ``20 + 4 + n (4k + 9)`` bytes."""
    per_subquery = 2 * COORD_BYTES * k + PREFIX_KEY_BYTES + PREFIX_LEN_BYTES
    return PACKET_HEADER_BYTES + SOURCE_IP_BYTES + n_subqueries * per_subquery


def result_message_size(n_entries: int) -> int:
    """Paper's result-message size model: ``20 + 6 * entries`` bytes."""
    return PACKET_HEADER_BYTES + RESULT_ENTRY_BYTES * n_entries


@dataclass(slots=True)
class ResultEntry:
    """One index entry returned to the querier: object id + its distance."""

    object_id: int
    distance: float


def merge_entries(entries: Iterable[ResultEntry]) -> list[ResultEntry]:
    """A query's answer from the result rows its index nodes sent: one entry
    per object id, at its best distance, sorted by (distance, object id).
    Replicas make one object arrive more than once; rows are kept as received
    and merged here, when read."""
    best: dict[int, float] = {}
    for e in entries:
        d = best.get(e.object_id)
        if d is None or e.distance < d:
            best[e.object_id] = e.distance
    merged = [ResultEntry(oid, d) for oid, d in best.items()]
    merged.sort(key=lambda e: (e.distance, e.object_id))
    return merged


@dataclass(slots=True)
class ResultMessage:
    """Results flowing from an index node back to the querying node."""

    qid: int
    entries: list[ResultEntry] = field(default_factory=list)
    from_node: Any = None

    @property
    def size(self) -> int:
        return result_message_size(len(self.entries))
