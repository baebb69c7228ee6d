"""Per-node index-entry storage.

Each overlay node stores, for every index it participates in, the entries
whose (rotated) keys fall in its ownership interval.  An entry is
``(key, index_point, object_id)``; keys are stored *unrotated* (pure LPH
output) because query prefixes live in unrotated space — rotation is applied
only when deciding ownership/routing.

Shards hold their entries **sorted by key**, one NumPy array per field, and
"columnar" goes one level further for the k-dimensional index points: they
are stored **column-major**, a ``(k, capacity)`` block with one contiguous
column per landmark dimension.  ``points`` stays the logical ``(n, k)`` view,
which is also the shape the WAL, the snapshot and ``digest()`` use, so
consumers and the disk format do not see the layout.  A subquery is then
answered by

1. two ``searchsorted`` calls that cut the claimed key range to one
   contiguous window (the sorted-key invariant), and
2. a *progressive* rectangle filter (:func:`_rect_positions`): dimension 0 is
   tested over the window and every further dimension only on the rows that
   survived — the pivot-by-pivot discard of metric pivot tables.  Without
   §3.4 balancing one node can hold most of the data set (65k of the 100k
   Table-1 entries on 64 nodes), and testing all k coordinates of every row
   in its window was the top line of the query ledger; with one row in six
   passing a dimension the filter reads about 1.2 contiguous columns in
   place of ten strided ones.

A large window is mostly rows that fail: on ``sim_dense`` a window averages
17k rows and yields under one.  Key order is LPH order, which keeps
neighbouring rows close in index space, so :class:`Shard` also keeps a
**zone map** — per run of ``_ZONE_ROWS`` sorted rows, the minimum and
maximum of each coordinate — and a window of ``_ZONE_MIN_ROWS`` rows or more
(:func:`_zoned_positions`) reads only the zones whose bounding box meets the
rectangle, the partition pruning of DIMS-style metric indexes.  The map is
exact (a row inside the rectangle lies inside its zone's box), built once
``_ZONE_BUILD_AFTER`` such searches have met no write in between, and
dropped by every write.

Two storage shapes share that layout and invariant:

* :class:`Shard` — one node's slice, grown with **amortised doubling** and
  sorted **lazily** on first read after a batch of appends.  A stable sort
  of the appended batches in append order produces exactly the array a
  sort on every ``add`` would (stable sorts compose), so index distribution
  costs one deferred sort per shard, not O(n log n) *per replica batch*.
  It holds the zone map; the batched store does not (its slots hold about
  one row each on the scale path).
* :class:`ShardStore` — the scale path: **all** nodes' entries of one index
  in a single CSR-like block (one global sort by ``(owner, key)`` plus an
  offsets array; points column-major here too), so a 100k-node index costs
  three arrays instead of 100k Python shard objects.  Its search is batched:
  one call answers many ``(slot, rectangle, key range)`` subqueries with the
  same dimension-by-dimension filter over all their windows at once.  Used
  by :mod:`repro.core.scale`.

The live-deployment path (:mod:`repro.net`) adds durability on top:

* :class:`WriteAheadLog` — append-only JSONL of entry batches, flushed per
  record and sequence-numbered, tolerant of a torn final line (the state a
  SIGKILL mid-append leaves behind);
* :class:`PersistentShard` — a :class:`Shard` plus its WAL, a compacting
  snapshot, and a small ``meta.json`` carrying the node's overlay state
  (successor list, predecessor), so a killed node restarts with the exact
  entries — bit-identical, via :mod:`repro.util.arrays` raw-buffer
  encoding — and ring hints it held before the crash.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.util.arrays import compact_json_encoder, decode_array, encode_array

__all__ = ["Shard", "ShardStore", "WriteAheadLog", "PersistentShard", "group_by_owner"]

#: Below this many candidate rows the filter tests all remaining dimensions
#: in one block instead of one pass each.  A pass costs ~2 us of NumPy call
#: overhead whatever it reads; a block test ~5 us plus ~15 ns per row.  Timed
#: on windows of 10-d columns, the two cross at 130-200 rows when one row in
#: six to twenty passes a dimension and near 2000 when half do, so under 128
#: rows the block test is never the slower one.  The usual window of a
#: many-node query holds a handful of rows; this keeps it at ~5 us, not ~15.
#: Re-timed on windows recorded from the ledger's workloads (498 calls of
#: 10-d sim_wide, 294 of 10-d sim_dense, 306 of 4-d live_query, best of five
#: replays): 128 / 256 / 512 / 1024 rows read 43 / 40 / 38 / 34 us a call on
#: sim_wide, 105 / 92 / 93 / 102 and 105 / 123 / 111 / 134 on sim_dense (two
#: replay runs) and 24 / 24 / 24 / 26 on live_query.  Only sim_wide gains from
#: a larger block, so the bound stays.
_BLOCK_ROWS = 128

#: The zone map: rows per zone, the smallest key window searched through the
#: map, and the largest share of that window the surviving zones may cover
#: before the contiguous filter is the cheaper one.  Timed by replaying 764
#: recorded sim_dense calls (best of five, against the contiguous filter
#: alone): windows of 32k rows and more read 128 -> 54 us a call, 8k-32k
#: 57 -> 43 us, and the whole replay x0.65; zoning the 2k-8k windows too made
#: them x1.13-1.15 slower (their zones survive more often and the zone test
#: costs ~5 us), so the map starts at 8,192 rows.  Zones of 64 and 256 rows
#: read within the noise of 128.  On 65k-row windows with the surviving
#: share set by construction, gathering beat the contiguous filter up to a
#: share of 0.3 at one row in six passing a dimension and 0.55 at one in
#: two; sim_dense keeps a median 4 % (p90 10 %) of the zones, sim_wide 13 %.
_ZONE_ROWS = 128
_ZONE_MIN_ROWS = 8192
_ZONE_MAX_SHARE = 0.25
#: The map is built on the ``_ZONE_BUILD_AFTER``-th window of ``_ZONE_MIN_ROWS``
#: since the shard's last write, so that a shard written between its
#: searches keeps the contiguous filter.  A build costs about 16 zoned
#: searches' saving: 886 us on sim_dense's 65k-row shard (k = 10) against a
#: mean 56 us saved a zoned call; 135 us on 22k LPH-keyed rows of k = 4, about
#: 8 searches at 16 us.  live_mixed writes a shard every 1.8 such searches, and
#: building on the first one cost it 420 ms of 12 s in 2,618 builds.
_ZONE_BUILD_AFTER = 16


def group_by_owner(owner_slots: Any, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Placement's grouping step: cut a batch of entries, each with the slot
    that owns it (the caller's business, :mod:`repro.dht.idspace`), into one
    run per slot.  Returns ``(order, offsets)``: ``order[offsets[s] :
    offsets[s + 1]]`` are the entries of slot ``s``, in input order."""
    owner_slots = np.asarray(owner_slots, dtype=np.int64)
    offsets = np.zeros(n_slots + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner_slots, minlength=n_slots), out=offsets[1:])
    return np.argsort(owner_slots, kind="stable"), offsets


def _coerce_batch(
    k: int, keys: Any, points: Any, object_ids: Any
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch of entries as ``(m,)`` keys, ``(m, k)`` points, ``(m,)`` ids.

    NumPy would broadcast a single point row or id across the batch on
    assignment; a count mismatch is a caller bug and raises instead.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    points = np.asarray(points, dtype=np.float64)
    object_ids = np.asarray(object_ids, dtype=np.int64)
    m = keys.size
    if keys.ndim != 1 or points.size != m * k or object_ids.size != m:
        raise ValueError(
            f"entry batch of keys {keys.shape} needs points ({m}, {k}) and "
            f"object ids ({m},), got points {points.shape} and ids {object_ids.shape}"
        )
    return keys, points.reshape(m, k), object_ids.reshape(m)


def _rect_bounds(k: int, lows: Any, highs: Any) -> tuple[np.ndarray, np.ndarray]:
    """A rectangle's ``(k,)`` float bounds; anything else (a shape NumPy would
    broadcast) raises ``ValueError``."""
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    if lows.shape != (k,) or highs.shape != (k,):
        raise ValueError(
            f"rectangle bounds must have shape ({k},), got lows {lows.shape} "
            f"and highs {highs.shape}"
        )
    return lows, highs


def _rect_positions(
    cols: np.ndarray, start: int, stop: int, lows: np.ndarray, highs: np.ndarray,
    pos: np.ndarray | None = None,
) -> np.ndarray:
    """Progressive rectangle filter over the non-empty window ``[start, stop)``,
    or over the ascending candidate positions ``pos`` when given.

    Dimension 0 is tested over the window, each further dimension only on
    the positions that survived, until none do — or until fewer than
    ``_BLOCK_ROWS`` do, which are finished in one block test.  Work is one
    contiguous pass over the window plus a gather of the survivors per
    further dimension; temporaries are two bytes per candidate for the masks
    and eight per survivor.
    """
    k = len(cols)
    # pos None: the whole window, not yet materialised
    size = stop - start if pos is None else pos.size
    d = 0
    while d < k and size >= _BLOCK_ROWS:
        col = cols[d, start:stop] if pos is None else cols[d].take(pos)
        keep = col >= lows[d]
        keep &= col <= highs[d]
        pos = _narrow(pos, keep, start)
        size = pos.size
        d += 1
    if d < k and size:
        # fancy indexing, not take(): take() would first copy a strided block whole
        block = cols[d:, start:stop] if pos is None else cols[d:, pos]
        keep = np.logical_and.reduce((block >= lows[d:, None]) & (block <= highs[d:, None]),
                                     axis=0)
        pos = _narrow(pos, keep, start)
    if pos is None:  # k == 0: nothing to test
        return np.arange(start, stop)
    return pos


def _narrow(pos: np.ndarray | None, keep: np.ndarray, start: int) -> np.ndarray:
    """The candidates (``pos``, or the window from ``start``) that ``keep`` marks."""
    if pos is not None:
        return pos[keep]
    pos = keep.nonzero()[0]
    pos += start
    return pos


def _zone_bounds(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The zone map of sorted columns ``(k, n)``: per run of ``_ZONE_ROWS``
    rows (the last one short), the minimum and the maximum of each
    coordinate, as two ``(k, n_zones)`` arrays (column-major, like the rows).

    ``fmin``/``fmax`` skip NaN, so a NaN coordinate cannot hide its zone's
    other rows; a zone whose column is all NaN gets NaN bounds, which no
    rectangle passes, as no row of it does.
    """
    k, n = cols.shape
    n_full = n // _ZONE_ROWS
    zmin = np.empty((k, -(-n // _ZONE_ROWS)))
    zmax = np.empty_like(zmin)
    blocks = cols[:, : n_full * _ZONE_ROWS].reshape(k, n_full, _ZONE_ROWS)
    np.fmin.reduce(blocks, axis=2, out=zmin[:, :n_full])
    np.fmax.reduce(blocks, axis=2, out=zmax[:, :n_full])
    if n_full < zmin.shape[1]:
        np.fmin.reduce(cols[:, n_full * _ZONE_ROWS :], axis=1, out=zmin[:, -1])
        np.fmax.reduce(cols[:, n_full * _ZONE_ROWS :], axis=1, out=zmax[:, -1])
    return zmin, zmax


def _zoned_positions(
    cols: np.ndarray, zmin: np.ndarray, zmax: np.ndarray,
    start: int, stop: int, lows: np.ndarray, highs: np.ndarray,
) -> np.ndarray:
    """:func:`_rect_positions` over the non-empty window ``[start, stop)``,
    reading only the zones whose bounding box meets the rectangle.

    A row inside the rectangle lies inside its zone's box, so a zone whose
    box misses the rectangle in any dimension holds no answer.  The zones
    overlapping the window are tested in one ``(k, zones)`` compare; the
    survivors' rows, cut to the window, go through the progressive filter.
    When they cover more than ``_ZONE_MAX_SHARE`` of the window, gathering
    them costs more than it saves, and the contiguous filter runs instead.
    """
    z0 = start // _ZONE_ROWS
    z1 = (stop - 1) // _ZONE_ROWS + 1
    hit = zmax[:, z0:z1] >= lows[:, None]
    hit &= zmin[:, z0:z1] <= highs[:, None]
    # reduced across rows of the block, not along them: twice as fast at k = 10
    zones = np.logical_and.reduce(hit, axis=0).nonzero()[0]
    if zones.size * _ZONE_ROWS > _ZONE_MAX_SHARE * (stop - start):
        return _rect_positions(cols, start, stop, lows, highs)
    if not zones.size:
        return np.empty(0, dtype=np.int64)
    zones += z0
    zones *= _ZONE_ROWS
    rows = (zones[:, None] + np.arange(_ZONE_ROWS)).ravel()
    # only the first and the last zone can reach past the window
    rows = rows[rows.searchsorted(start) : rows.searchsorted(stop)]
    return _rect_positions(cols, start, stop, lows, highs, rows)


class Shard:
    """Column-major store of the index entries held by one node for one index.

    Invariant: ``keys`` is non-decreasing; ``points``/``object_ids`` are
    aligned with it.  The fields are exposed as read-only views of the live
    prefix of preallocated capacity buffers; ``points`` is the ``(n, k)``
    transpose view of the ``(k, capacity)`` block, so ``points[pos]`` gathers
    rows as from a row-major array.  ``add`` appends in amortised O(batch)
    and the key order is re-established lazily on the next read.
    """

    __slots__ = ("_k", "_keys", "_cols", "_ids", "_n", "_dirty", "_zones", "_wide_reads")

    def __init__(self, k: int) -> None:
        self._k = int(k)
        self._keys = np.empty(0, dtype=np.uint64)
        self._cols = np.empty((self._k, 0), dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        self._n = 0
        self._dirty = False
        #: (minima, maxima) of :func:`_zone_bounds`, built by the
        #: ``_ZONE_BUILD_AFTER``-th search of a window of ``_ZONE_MIN_ROWS``
        #: since the last write (counted in ``_wide_reads``); None until then
        self._zones: tuple[np.ndarray, np.ndarray] | None = None
        self._wide_reads = 0

    def __len__(self) -> int:
        return self._n

    @property
    def load(self) -> int:
        """The paper's load measure: number of index entries stored."""
        return self._n

    @property
    def keys(self) -> np.ndarray:
        self._ensure_sorted()
        return self._keys[: self._n]

    @property
    def points(self) -> np.ndarray:
        self._ensure_sorted()
        return self._cols[:, : self._n].T

    @property
    def object_ids(self) -> np.ndarray:
        self._ensure_sorted()
        return self._ids[: self._n]

    def _grow(self, extra: int) -> None:
        need = self._n + extra
        cap = len(self._keys)
        if need <= cap:
            return
        new_cap = max(need, 2 * cap, 8)
        keys = np.empty(new_cap, dtype=np.uint64)
        cols = np.empty((self._k, new_cap), dtype=np.float64)
        ids = np.empty(new_cap, dtype=np.int64)
        n = self._n
        keys[:n] = self._keys[:n]
        cols[:, :n] = self._cols[:, :n]
        ids[:n] = self._ids[:n]
        self._keys, self._cols, self._ids = keys, cols, ids

    def _ensure_sorted(self) -> None:
        if not self._dirty:
            return
        n = self._n
        order = np.argsort(self._keys[:n], kind="stable")
        self._keys[:n] = self._keys[:n][order]
        for col in self._cols:
            col[:n] = col[:n][order]
        self._ids[:n] = self._ids[:n][order]
        self._dirty = False

    def add(self, keys: np.ndarray, points: np.ndarray, object_ids: np.ndarray) -> None:
        """Append a batch of entries; key order is restored on next read.

        Raises ``ValueError`` unless there is one point row and one id per key.
        """
        keys, points, object_ids = _coerce_batch(self._k, keys, points, object_ids)
        m = len(keys)
        if m == 0:
            return
        self._grow(m)
        n = self._n
        self._keys[n : n + m] = keys
        self._cols[:, n : n + m] = points.T
        self._ids[n : n + m] = object_ids
        self._n = n + m
        self._dirty = True
        self._zones = None
        self._wide_reads = 0

    def clear(self) -> None:
        self._n = 0
        self._dirty = False
        self._zones = None
        self._wide_reads = 0

    def range_search(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        key_lo: int | None = None,
        key_hi: int | None = None,
    ) -> np.ndarray:
        """Positions of entries inside the rectangle (and key range, if given).

        Bounds are closed on both sides and positions ascend.  The key-range
        filter restricts to the subquery's *claimed* cuboid key interval,
        which both prevents double counting when one node is surrogate for
        several sibling subqueries of the same query, and — thanks to the
        sorted-key invariant — narrows the rectangle test to a contiguous
        window.  A window of ``_ZONE_MIN_ROWS`` or more is searched through
        the zone map (:func:`_zoned_positions`) once a shard unwritten for
        ``_ZONE_BUILD_AFTER`` such searches has built it.  Raises
        ``ValueError`` unless ``lows``/``highs`` have shape ``(k,)``.
        """
        self._ensure_sorted()
        lows, highs = _rect_bounds(self._k, lows, highs)
        n = self._n
        keys, cols = self._keys[:n], self._cols[:, :n]
        start, stop = 0, n
        if key_lo is not None:
            start = int(keys.searchsorted(np.uint64(key_lo), "left"))
        if key_hi is not None:
            stop = int(keys.searchsorted(np.uint64(key_hi), "right"))
        if stop - start >= _ZONE_MIN_ROWS:
            if self._zones is None:
                self._wide_reads += 1
                if self._wide_reads >= _ZONE_BUILD_AFTER:
                    self._zones = _zone_bounds(cols)
            if self._zones is not None:
                return _zoned_positions(cols, *self._zones, start, stop, lows, highs)
        elif start >= stop:
            return np.empty(0, dtype=np.int64)
        return _rect_positions(cols, start, stop, lows, highs)


class ShardStore:
    """All nodes' entries of one index in a single column-major block.

    Entries are held sorted by ``(owner_slot, key)``; ``offsets[s] :
    offsets[s+1]`` delimits node slot ``s``'s shard, within which keys are
    non-decreasing — i.e. each slice satisfies the :class:`Shard` invariant
    without a per-node Python object.  This is the storage half of the
    scale refactor: at 100k nodes the per-node dict-of-``Shard`` layout costs
    hundreds of MB of object headers before a single entry is stored.

    Points are kept as one ``(k, n)`` block, a contiguous column per
    landmark dimension, like :class:`Shard`; ``points`` and the second
    array of :meth:`slice` are its ``(n, k)`` transpose views.
    """

    __slots__ = ("n_slots", "keys", "_cols", "object_ids", "offsets")

    def __init__(
        self,
        n_slots: int,
        keys: np.ndarray,
        points: np.ndarray,
        object_ids: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        self.n_slots = int(n_slots)
        self.keys = keys
        # no copy when ``points`` already is the transpose of a (k, n) block
        self._cols = np.ascontiguousarray(np.asarray(points, dtype=np.float64).T)
        self.object_ids = object_ids
        self.offsets = offsets

    @classmethod
    def build(
        cls,
        owner_slots: np.ndarray,
        keys: np.ndarray,
        points: np.ndarray,
        object_ids: np.ndarray,
        n_slots: int,
    ) -> ShardStore:
        """Distribute ``(keys, points, object_ids)`` to their owners at once.

        Two stable sorts, by key and then by owner, replace the per-node
        append loop; ties within ``(owner, key)`` keep input order, matching
        what per-shard stable sorts would produce.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        by_key = np.argsort(keys, kind="stable")
        order, offsets = group_by_owner(np.asarray(owner_slots)[by_key], n_slots)
        order = by_key[order]
        points = np.asarray(points, dtype=np.float64)
        cols = np.empty(points.shape[::-1], dtype=np.float64)
        for d, col in enumerate(cols):  # a column at a time: no second (n, k) copy
            col[:] = points[:, d][order]
        return cls(
            n_slots,
            keys[order],
            cols.T,
            np.asarray(object_ids, dtype=np.int64)[order],
            offsets,
        )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def points(self) -> np.ndarray:
        return self._cols.T

    def loads(self) -> np.ndarray:
        """Stored-entry count per node slot (the paper's load measure)."""
        return np.diff(self.offsets)

    def slice(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, points, object_ids)`` views of one node's shard."""
        lo, hi = int(self.offsets[slot]), int(self.offsets[slot + 1])
        return self.keys[lo:hi], self._cols[:, lo:hi].T, self.object_ids[lo:hi]

    def range_search(
        self,
        slots: Any,
        lows: Any,
        highs: Any,
        key_lo: Any = None,
        key_hi: Any = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A batch of subqueries, each one rectangle on one node's shard.

        Subquery ``i`` searches slot ``slots[i]`` for rows inside the closed
        rectangle ``lows[i]``..``highs[i]`` and, if given, the closed key
        range ``key_lo[i]``..``key_hi[i]`` (``(n,)`` arrays; a slot may
        repeat).  Returns ``(which, rows)``: row ``rows[j]`` of the store
        answers subquery ``which[j]``; ``which`` ascends, and so do the rows
        of one subquery — per subquery the :meth:`Shard.range_search`
        positions of its slot's :meth:`slice`, plus ``offsets[slot]``.

        One pass for the whole batch: each key window is cut by a binary
        search inside its slice (sorted by key), the windows' rows are laid
        end to end, and the rectangle is tested one dimension at a time on
        the rows still standing, as :func:`_rect_positions` does for one
        window.  Raises ``ValueError`` unless the rectangles have shape
        ``(n, k)``, the key bounds ``(n,)``, and every slot is in range.
        """
        slots = np.asarray(slots, dtype=np.int64)
        n = slots.size
        k = len(self._cols)
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if slots.shape != (n,) or lows.shape != (n, k) or highs.shape != (n, k):
            raise ValueError(
                f"a batch of {slots.shape} slots needs rectangle bounds of shape "
                f"({n}, {k}), got lows {lows.shape} and highs {highs.shape}"
            )
        if n and (slots.min() < 0 or slots.max() >= self.n_slots):
            raise ValueError(f"slots must lie in [0, {self.n_slots})")
        start = self.offsets[slots]
        stop = self.offsets[slots + 1]
        if key_lo is not None:
            start = _cut(self.keys, start, stop, _key_bounds(key_lo, n), "left")
        if key_hi is not None:
            stop = _cut(self.keys, start, stop, _key_bounds(key_hi, n), "right")
        sizes = stop - start
        which = np.repeat(np.arange(n, dtype=np.int64), sizes)
        # rows[j] = start[which[j]] + (j - first candidate of which[j])
        rows = np.arange(which.size, dtype=np.int64)
        rows += np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
        for d in range(k):
            if not rows.size:
                break
            col = self._cols[d].take(rows)
            keep = col >= lows[:, d].take(which)
            keep &= col <= highs[:, d].take(which)
            rows = rows[keep]
            which = which[keep]
        return which, rows


def _key_bounds(bounds: Any, n: int) -> np.ndarray:
    """One key bound per subquery as ``(n,)`` uint64."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.shape != (n,):
        raise ValueError(f"key bounds must have shape ({n},), got {bounds.shape}")
    return bounds


def _cut(
    keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray, side: str
) -> np.ndarray:
    """Per window ``keys[lo[i]:hi[i]]`` (sorted), ``searchsorted(bound[i], side)``
    as a global position: one bisection step a round for all windows at once."""
    lo = lo.copy()
    hi = hi.copy()
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) >> 1
        at = keys[mid]
        right = at < bound[live] if side == "left" else at <= bound[live]
        lo[live[right]] = mid[right] + 1
        hi[live[~right]] = mid[~right]
        live = live[lo[live] < hi[live]]
    return lo


#: the encoder ``json.dumps(record, separators=(",", ":"))`` builds on every
#: call, built once: the lines it writes are that call's, byte for byte
_WAL_ENCODE = compact_json_encoder(json.JSONEncoder().default)


def _seq_field(value: Any, low: int, where: str) -> int:
    """A recovered ``seq``: an int of at least ``low`` — not a float, a
    string or a bool, which ``int()`` would coerce — else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{where} seq {value!r} is not an integer >= {low}")
    return value


class WriteAheadLog:
    """Append-only JSONL log of shard mutations.

    Every record is one JSON object on one line, stamped with a monotonic
    ``seq`` by the caller.  :meth:`append` flushes to the OS after each
    record, which is durable against process death (SIGKILL) — the crash
    mode the live backend recovers from; ``fsync=True`` extends that to
    power loss at a per-append cost.

    :meth:`replay` yields records in order and **stops silently at the
    first undecodable line** — a process killed mid-``append`` leaves a
    torn final line, which is indistinguishable from the record never
    having been acknowledged, so dropping it is the correct recovery.
    A corrupt line *followed by* valid ones indicates real damage and
    raises ``ValueError``.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._fh: Any = None
        #: byte offset after the last valid record seen by :meth:`replay`
        self._valid_end = 0

    def _handle(self) -> Any:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def append(self, record: dict[str, Any]) -> None:
        fh = self._handle()
        fh.write("".join(_WAL_ENCODE(record, 0)) + "\n")
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def replay(self) -> list[dict[str, Any]]:
        self._valid_end = 0
        if not self.path.exists():
            return []
        records: list[dict[str, Any]] = []
        torn_at: int | None = None
        pos = 0
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh):
                pos += len(raw)
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    if torn_at is None:
                        self._valid_end = pos
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    torn_at = lineno
                    continue
                if torn_at is not None:
                    raise ValueError(
                        f"{self.path}: undecodable record at line {torn_at + 1} "
                        "followed by valid records — log is damaged, not torn"
                    )
                if isinstance(obj, dict):
                    records.append(obj)
                self._valid_end = pos
        return records

    def trim_torn_tail(self) -> None:
        """Truncate whatever trails the last valid record :meth:`replay` saw.

        A SIGKILL mid-append leaves a torn final line; appending after it
        would weld the new record onto the torn bytes and lose both.  The
        recovery path replays, then trims, then resumes appending.
        """
        if self.path.exists() and self.path.stat().st_size > self._valid_end:
            self.close()
            with open(self.path, "rb+") as fh:
                fh.truncate(self._valid_end)

    def truncate(self) -> None:
        """Reset the log (after its records were folded into a snapshot)."""
        self.close()
        with open(self.path, "w", encoding="utf-8"):
            pass

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """Write ``payload`` as JSON via a same-directory rename (atomic on POSIX)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class PersistentShard:
    """A :class:`Shard` with crash recovery: snapshot + WAL + node meta.

    Directory layout (one per node per index)::

        <data_dir>/snapshot.json   compacted entries + the WAL seq they cover
        <data_dir>/wal.jsonl       entry batches appended since the snapshot
        <data_dir>/meta.json       overlay state (successors, predecessor, ...)

    Recovery order is snapshot first, then every WAL record whose ``seq``
    exceeds the snapshot's high-water mark — so a crash *between* writing
    the snapshot and truncating the WAL cannot double-apply a batch.  All
    arrays ride :mod:`repro.util.arrays` raw-buffer encoding, making the
    restored columns bit-identical to what was acknowledged before the
    crash (asserted by :meth:`digest` equality in the recovery tests).
    """

    SNAPSHOT = "snapshot.json"
    WAL = "wal.jsonl"
    META = "meta.json"

    def __init__(self, data_dir: str | Path, k: int, fsync: bool = False) -> None:
        self.dir = Path(data_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.k = int(k)
        self.shard = Shard(self.k)
        self.wal = WriteAheadLog(self.dir / self.WAL, fsync=fsync)
        self._seq = 0
        self._snapshot_seq = 0
        self._wal_records = 0
        self.meta: dict[str, Any] = {}
        #: the state ``meta.json`` holds, as last written or recovered
        self._meta_on_disk: str | None = None
        self._recover()

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> None:
        snap_path = self.dir / self.SNAPSHOT
        if snap_path.exists():
            with open(snap_path, encoding="utf-8") as fh:
                snap = json.load(fh)
            k = snap.get("k")
            if type(k) is not int or k != self.k:
                raise ValueError(
                    f"{snap_path}: snapshot k={k!r} != shard k={self.k}"
                )
            self._snapshot_seq = _seq_field(snap.get("seq"), 0, f"{snap_path}: snapshot")
            keys = decode_array(snap["keys"])
            if len(keys):
                self.shard.add(keys, decode_array(snap["points"]), decode_array(snap["ids"]))
            self._seq = self._snapshot_seq
        for rec in self.wal.replay():
            self._wal_records += 1
            seq = _seq_field(rec.get("seq"), 1, f"{self.wal.path}: record")
            if seq <= self._snapshot_seq:
                continue  # already folded into the snapshot
            self.shard.add(
                decode_array(rec["keys"]),
                decode_array(rec["points"]),
                decode_array(rec["ids"]),
            )
            self._seq = max(self._seq, seq)
        self.wal.trim_torn_tail()
        meta_path = self.dir / self.META
        if meta_path.exists():
            with open(meta_path, encoding="utf-8") as fh:
                self.meta = json.load(fh)
            self._meta_on_disk = json.dumps(self.meta, sort_keys=True)

    # -- mutation ---------------------------------------------------------------

    def add(self, keys: np.ndarray, points: np.ndarray, object_ids: np.ndarray) -> int:
        """Durably append a batch: WAL record first, then the in-memory shard.

        Returns the record's sequence number (0 for an empty batch).
        """
        # checked before the WAL sees it: a logged batch must replay
        keys, points, object_ids = _coerce_batch(self.k, keys, points, object_ids)
        if len(keys) == 0:
            return 0
        self._seq += 1
        self.wal.append({
            "seq": self._seq,
            "keys": encode_array(keys),
            "points": encode_array(points),
            "ids": encode_array(object_ids),
        })
        self._wal_records += 1
        self.shard.add(keys, points, object_ids)
        return self._seq

    def set_meta(self, **fields: Any) -> None:
        """Merge and persist overlay state (successors, predecessor, ...).

        Writes (and fsyncs) only when the merged state differs from what
        ``meta.json`` already holds: a converged node calls this every
        stabilise round with nothing new to say.
        """
        self.meta.update(fields)
        # compared as text: the caller's lists and dicts may change under us
        text = json.dumps(self.meta, sort_keys=True)
        if text != self._meta_on_disk:
            _atomic_write_json(self.dir / self.META, self.meta)
            self._meta_on_disk = text

    def snapshot(self) -> int:
        """Fold the WAL into a compacted snapshot; returns entries covered."""
        _atomic_write_json(self.dir / self.SNAPSHOT, {
            "k": self.k,
            "seq": self._seq,
            "keys": encode_array(self.shard.keys),
            "points": encode_array(self.shard.points),
            "ids": encode_array(self.shard.object_ids),
        })
        self.wal.truncate()
        self._snapshot_seq = self._seq
        self._wal_records = 0
        return len(self.shard)

    # -- inspection -------------------------------------------------------------

    @property
    def wal_records(self) -> int:
        """Records currently in the live WAL segment."""
        return self._wal_records

    def digest(self) -> int:
        """CRC32 over the sorted columns — equal iff the entries are
        bit-identical (the crash-recovery acceptance check)."""
        crc = zlib.crc32(self.shard.keys.tobytes())
        crc = zlib.crc32(self.shard.points.tobytes(), crc)
        return zlib.crc32(self.shard.object_ids.tobytes(), crc)

    def close(self) -> None:
        self.wal.close()
