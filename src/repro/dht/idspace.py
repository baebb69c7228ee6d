"""The key space: how index keys meet the ``m``-bit Chord ring.

A key ``x`` belongs to node ``n`` iff ``x ∈ (predecessor(n), n]`` — its *Chord
successor* (§3.2) — and every rule derived from that is decided here, once,
for all three drivers (``ChordRing``, ``CompactChordRing``, the live
``NodeProcess``), which pass the ids they hold:

* **rotation** (§3.4) — :func:`rotate` / :func:`unrotate` / :func:`rotate_keys`
  shift an index's keys by its offset ``φ``, modulo ``2**m``;
* **ownership** — :func:`in_interval_open_closed` (one key) and
  :func:`keys_in_interval_open_closed` (an array) test ``(pred, id]``,
  :func:`owner_slot` / :func:`owner_slots` find the first id
  ``>= key`` cyclically, :func:`finger_slots` the owner of every
  ``id + 2**i``;
* **adoption** — :func:`adopts_successor` / :func:`adopts_predecessor`, the
  rules by which stabilise and notify move a node's ring pointers;
* **the next hop** (footnote 4) — :func:`closest_preceding` picks "the one
  from the routing table whose identifier is immediately before" a key (the
  reference scan; a node answers it from a memo, see
  :meth:`repro.dht.maintenance.ChordState.closest_preceding`).

Pure functions of ints, sorted id sequences and NumPy arrays: no node
objects, no simulator, no sockets.  A *slot* is a position in the sorted ids
the caller passes.  Scalar forms take Python ints (exact at any ``m``), array
forms ``uint64`` (``m <= 64``).  Placement's grouping step lives beside the
store it feeds: :func:`repro.core.storage.group_by_owner`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "cw_distance", "in_interval_open", "in_interval_open_closed", "in_interval_closed_open",
    "keys_in_interval_open_closed", "adopts_successor", "adopts_predecessor",
    "rotate", "unrotate", "rotate_keys",
    "owner_slot", "owner_slots", "finger_slots",
    "closest_preceding",
]

#: :func:`finger_slots` sweeps this many nodes at a time to bound the
#: transient ``(rows, m)`` uint64 block of finger starts (16384 × 64 ≈ 8 MB).
_FINGER_CHUNK = 16384


def cw_distance(a: int, b: int, m: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the ``2**m`` ring."""
    return (b - a) % (1 << m)


# An interval whose ends coincide is not empty: by Chord convention it wraps
# all the way round, ``2**m`` long, so a single node owns the whole ring.


def in_interval_open(x: int, a: int, b: int, m: int) -> bool:
    """``x ∈ (a, b)`` on the ring; ``(a, a)`` is the full ring minus ``a``."""
    return 0 < cw_distance(a, x, m) < (cw_distance(a, b, m) or 1 << m)


def in_interval_open_closed(x: int, a: int, b: int, m: int) -> bool:
    """``x ∈ (a, b]`` on the ring (ownership interval: successor owns it)."""
    return (cw_distance(a, x, m) or 1 << m) <= (cw_distance(a, b, m) or 1 << m)


def keys_in_interval_open_closed(xs: np.ndarray, a: int, b: int, m: int) -> np.ndarray:
    """:func:`in_interval_open_closed` over a ``uint64`` array of ring keys
    in ``[0, 2**m)`` (``m <= 64``): a boolean mask.  Decided as the closed
    interval ``[a + 1, b]``, whose length less one always fits ``m`` bits —
    the full ring ``(a, a]`` included, where ``2**m`` itself would not."""
    mask = (1 << m) - 1
    first = (a + 1) & mask
    ahead = (np.asarray(xs, dtype=np.uint64) - np.uint64(first)) & np.uint64(mask)
    return ahead <= np.uint64((b - first) & mask)


def in_interval_closed_open(x: int, a: int, b: int, m: int) -> bool:
    """``x ∈ [a, b)`` on the ring (finger-candidate interval)."""
    return cw_distance(a, x, m) < (cw_distance(a, b, m) or 1 << m)


# -- adoption rules (Chord's stabilize / notify) -------------------------------


def adopts_successor(cand: int, self_id: int, succ_id: int, m: int) -> bool:
    """Stabilise's rule: node ``self_id`` takes ``cand`` as its successor iff
    ``cand ∈ (self, successor)`` — a node alone (``succ_id == self_id``)
    takes anyone else."""
    return in_interval_open(cand, self_id, succ_id, m)


def adopts_predecessor(cand: int, self_id: int, pred_id: int | None, m: int) -> bool:
    """Notify's rule: node ``self_id`` takes ``cand`` as its predecessor iff it
    knows none or ``cand ∈ (predecessor, self)``."""
    return pred_id is None or in_interval_open(cand, pred_id, self_id, m)


# -- rotation (§3.4) -----------------------------------------------------------


def rotate(key: int, offset: int, m: int) -> int:
    """Ring position of index key ``key`` under rotation offset ``offset``."""
    return (key + offset) & ((1 << m) - 1)


def unrotate(ring_key: int, offset: int, m: int) -> int:
    """Inverse of :func:`rotate`: a node id seen from the index's key space."""
    return (ring_key - offset) & ((1 << m) - 1)


def rotate_keys(keys: np.ndarray, offset: int | np.ndarray, m: int) -> np.ndarray:
    """:func:`rotate` over a ``uint64`` array (``m <= 64``; the sum wraps at
    ``2**64`` and the mask is all ones there, so one rule serves every ``m``)."""
    shifted = np.asarray(keys, dtype=np.uint64) + np.asarray(offset, dtype=np.uint64)
    return shifted & np.uint64((1 << m) - 1)


# -- ownership -----------------------------------------------------------------


def owner_slot(sorted_ids: Sequence[int], ring_key: int) -> int:
    """Slot of the node owning ``ring_key``: the first id ``>= ring_key``,
    wrapping to slot 0 past the largest id."""
    slot = bisect_left(sorted_ids, ring_key)
    return slot if slot < len(sorted_ids) else 0


def owner_slots(sorted_ids: np.ndarray, ring_keys: np.ndarray) -> np.ndarray:
    """:func:`owner_slot` for an array of ring keys (``int64`` slots)."""
    ids = np.asarray(sorted_ids, dtype=np.uint64)
    slots = np.searchsorted(ids, np.asarray(ring_keys, dtype=np.uint64), side="left")
    slots[slots == len(ids)] = 0
    return slots


def finger_slots(sorted_ids: np.ndarray, m: int) -> np.ndarray:
    """Classic finger tables of a whole ring: ``out[s, i]`` is the slot owning
    ``sorted_ids[s] + 2**i``, shape ``(n, m)``, ``int32``."""
    ids = np.asarray(sorted_ids, dtype=np.uint64)
    out = np.empty((len(ids), m), dtype=np.int32)
    steps = np.uint64(1) << np.arange(m, dtype=np.uint64)
    for lo in range(0, len(ids), _FINGER_CHUNK):
        starts = rotate_keys(ids[lo : lo + _FINGER_CHUNK, None], steps, m)
        out[lo : lo + _FINGER_CHUNK] = owner_slots(ids, starts.ravel()).reshape(-1, m)
    return out


# -- the next hop (footnote 4) ---------------------------------------------------


def closest_preceding(self_id: int, key: int, ids: Iterable[int], m: int) -> int:
    """Position in ``ids`` of the id closest before ``key`` clockwise of
    ``self_id`` — strictly between the two — or ``-1`` when there is none (the
    node itself is then the closest known predecessor of ``key``).

    An id equal to ``key`` never qualifies (an owner is reached through its
    predecessor's successor pointer); ``key == self_id`` routes the full ring.
    """
    mask = (1 << m) - 1
    limit = ((key - self_id) & mask) or mask + 1
    best, best_d = -1, 0
    for pos, other in enumerate(ids):
        d = (other - self_id) & mask
        if best_d < d < limit:
            best, best_d = pos, d
    return best

