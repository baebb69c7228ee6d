"""Dynamic datasets: protocol-level insertion and deletion of index entries.

The paper's §6 names dynamic datasets as future work; the natural mechanism
is already implied by the architecture: an insert maps the new object to its
index point (one landmark-distance vector per landmark), hashes it with the
locality-preserving hash, and routes the entry to the owner of its (rotated)
key over the same Chord links queries use.  This module implements that
update path with full message accounting, plus deletions.

Entry messages are modelled like the paper's query entries: 20 bytes header
+ 4 bytes source + per-entry ``(2k coordinates x 2 bytes + 8-byte key +
8-byte object id)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Any

from repro.core.lph import lp_hash_batch
from repro.core.platform import take
from repro.dht.idspace import rotate

__all__ = ["UpdateStats", "UpdateProtocol", "entry_message_size"]

HEADER_BYTES = 24


def entry_message_size(n_entries: int, k: int) -> int:
    """Size of a message carrying ``n_entries`` index entries."""
    return HEADER_BYTES + n_entries * (2 * 2 * k + 8 + 8)


@dataclass
class UpdateStats:
    """Cost counters of update traffic."""

    inserts: int = 0
    deletes: int = 0
    messages: int = 0
    bytes: int = 0
    hops_total: int = 0

    @property
    def mean_hops(self) -> float:
        ops = self.inserts + self.deletes
        return self.hops_total / ops if ops else 0.0


class UpdateProtocol:
    """Routes index-entry updates to their owner nodes over the overlay.

    Parameters
    ----------
    index:
        The :class:`repro.core.platform.LandmarkIndex` being updated.  Its
        ``dataset`` must already contain any object being inserted (the
        index stores references, not objects).
    """

    def __init__(self, index: Any) -> None:
        self.index = index
        self.stats = UpdateStats()

    def _route_cost(self, source_node: Any, key: int) -> None:
        """Account the Chord lookup that carries one update entry to the
        owner of its rotated key."""
        index = self.index
        path = index.ring.lookup_path(source_node, rotate(key, index.rotation, index.m))
        hops = len(path) - 1
        self.stats.hops_total += hops
        self.stats.messages += max(hops, 1)
        self.stats.bytes += max(hops, 1) * entry_message_size(1, self.index.k)

    def insert(self, object_id: int, source_node: Any = None) -> int:
        """Index ``dataset[object_id]``: project, hash, route to the owner.

        Returns the entry's LPH key.  The object must already be present in
        ``index.dataset``.
        """
        index = self.index
        source_node = source_node or index.ring.nodes()[0]
        obj = take(index.dataset, object_id)
        point = index.space.project_one(obj)
        key = int(lp_hash_batch(point[None, :], index.bounds, index.m)[0])
        self._route_cost(source_node, key)
        index.append_entries([object_id], point[None, :], [key])
        self.stats.inserts += 1
        return key

    def delete(self, object_id: int, source_node: Any = None) -> bool:
        """Remove the entry of ``object_id``; returns False when absent."""
        index = self.index
        source_node = source_node or index.ring.nodes()[0]
        key = index.remove_entry(object_id)
        if key is None:
            return False
        self._route_cost(source_node, key)
        self.stats.deletes += 1
        return True

    def insert_many(self, object_ids: Any, source_node: Any = None) -> None:
        """Insert a batch (one routed entry each; the index redistributes
        once at the end)."""
        index = self.index
        source_node = source_node or index.ring.nodes()[0]
        object_ids = np.asarray(object_ids, dtype=np.int64)
        objs = take(index.dataset, object_ids)
        points = index.space.project(objs)
        keys = lp_hash_batch(points, index.bounds, index.m)
        for key in keys:
            self._route_cost(source_node, int(key))
        index.append_entries(object_ids, points, keys)
        self.stats.inserts += len(object_ids)
