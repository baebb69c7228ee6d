"""Centralized linear-scan oracle for differential testing.

The distributed index answers range and k-NN queries through landmark
projection, locality-preserving hashing, DHT routing and per-node
refinement; the oracle answers the same queries by brute force over the
same dataset with the same metric object.  Because the final refinement
step of the distributed path computes *true* metric distances with the
identical vectorised kernel (``metric.one_to_many`` over dataset rows),
faults-off runs must agree with the oracle **exactly** — same object ids,
bit-identical distances — and any divergence is a real bug, not noise.

The oracle tracks the set of currently-indexed object ids so inserts,
deletes and crash-induced entry loss keep it in lockstep with the index
(see :mod:`repro.check.replay` and :mod:`repro.check.fuzz`).

:func:`owners_meeting` is the reference for *where* a range query must be
solved: it pins the two formulations of Algorithm 5 — the event sim's sibling
forwarding and the live coordinator's owner walk — to each other.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import key_to_cuboid, smallest_enclosing_prefix
from repro.core.platform import take
from repro.core.query import Rect
from repro.dht.idspace import owner_slots, rotate_keys

__all__ = ["LinearScanOracle", "owners_meeting"]


def owners_meeting(
    lows: np.ndarray, highs: np.ndarray, sorted_ids: Sequence[int],
    rotation: int, bounds: IndexSpaceBounds, m: int,
) -> set[int]:
    """Ids of the nodes SurrogateRefine must solve at, by brute force.

    Every leaf key of the rectangle's smallest enclosing cuboid (where a query
    starts, figure 1a: by the hash's tie rule no point of the rectangle hashes
    outside it) whose closed cuboid meets the closed rectangle — Algorithm 5's
    test, by :func:`~repro.core.lph.key_to_cuboid` — then the owner of each
    such key after rotation.  Exhaustive, so for small ``m`` only.
    """
    prefix_key, prefix_len = smallest_enclosing_prefix(lows, highs, bounds, m)
    rect = Rect(lows, highs)
    keys = [key for key in range(prefix_key, prefix_key + (1 << (m - prefix_len)))
            if rect.intersects_box(*key_to_cuboid(key, bounds, m))]
    ids = np.asarray(sorted_ids, dtype=np.uint64)
    slots = owner_slots(ids, rotate_keys(np.array(keys, dtype=np.uint64), rotation, m))
    return {int(i) for i in ids[np.unique(slots)]}


class LinearScanOracle:
    """Brute-force reference answers over ``dataset`` with ``metric``."""

    def __init__(self, dataset: Any, metric: Any, ids: Iterable[int] | None = None) -> None:
        self.dataset = dataset
        self.metric = metric
        n = dataset.shape[0] if hasattr(dataset, "shape") else len(dataset)
        self.ids: set[int] = set(range(n)) if ids is None else set(int(i) for i in ids)

    # -- membership lockstep ----------------------------------------------------

    def add(self, oid: int) -> None:
        self.ids.add(int(oid))

    def remove(self, oid: int) -> None:
        self.ids.discard(int(oid))

    def restrict(self, ids: Iterable[int]) -> set[int]:
        """Intersect with ``ids`` (crash survivors); returns what was lost."""
        keep = set(int(i) for i in ids)
        lost = self.ids - keep
        self.ids &= keep
        return lost

    # -- reference answers ---------------------------------------------------------

    def _scan(self, obj: Any) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(sorted(self.ids), dtype=np.int64)
        if ids.size == 0:
            return ids, np.empty(0, dtype=np.float64)
        dists = self.metric.one_to_many(obj, take(self.dataset, ids))
        return ids, np.asarray(dists, dtype=np.float64)

    def range(self, obj: Any, radius: float) -> list[tuple[int, float]]:
        """All indexed objects within ``radius``, sorted by (distance, id)."""
        ids, dists = self._scan(obj)
        keep = dists <= radius
        out = sorted(zip(dists[keep].tolist(), ids[keep].tolist()))
        return [(int(oid), float(d)) for d, oid in out]

    def knn(self, obj: Any, k: int) -> list[tuple[int, float]]:
        """The ``k`` nearest indexed objects, ties broken by object id."""
        ids, dists = self._scan(obj)
        out = sorted(zip(dists.tolist(), ids.tolist()))[:k]
        return [(int(oid), float(d)) for d, oid in out]

    # -- differential comparison -------------------------------------------------------

    def compare_range(
        self, obj: Any, radius: float, entries: Iterable[Any]
    ) -> dict[str, list[int]]:
        """Diff a distributed result set against the reference answer.

        ``entries`` are ``ResultEntry``-like objects (``object_id`` +
        ``distance``).  Returns ``false_negatives`` (reference hits the
        distributed search missed), ``false_positives`` (returned ids the
        reference rejects) and ``distance_errors`` (ids whose reported
        distance is not bit-identical to the reference computation).
        """
        expected = dict(self.range(obj, radius))
        got: dict[int, float] = {}
        for e in entries:
            got[int(e.object_id)] = float(e.distance)
        false_neg = sorted(set(expected) - set(got))
        false_pos = sorted(set(got) - set(expected))
        dist_err = sorted(
            oid for oid in set(expected) & set(got) if expected[oid] != got[oid]
        )
        return {
            "false_negatives": false_neg,
            "false_positives": false_pos,
            "distance_errors": dist_err,
        }
