"""Stabilised Chord state as flat arrays: the one definition of a ring's tables.

:class:`CompactChordRing` holds a ring's stabilised steady state as arrays
keyed by **dense node slots** (positions in identifier order):

* ``ids``    — sorted ``uint64`` identifiers, shape ``(n,)``;
* ``hosts``  — latency-endpoint index per slot, shape ``(n,)``;
* ``fingers``— classic finger *slots* per node and level, shape ``(n, m)``,
  ``int32`` (a 100k-node, 64-bit ring costs ~26 MB instead of ~2.5 GB);
* :meth:`pns_fingers` — the proximity-neighbour-selection rows (Chord-PNS
  [9], the paper's protocol), derived from ``fingers`` and a latency model.

Successor lists need no storage at all: in the stabilised state the
successor list of slot ``s`` is exactly the next ``r`` slots clockwise,
``(s+1) ... (s+r) mod n``.

Two drivers read it.  The scale path routes on it directly; the event sim's
:class:`repro.dht.ring.ChordRing` keeps one as ``ring.table`` for its
current members and writes each :class:`~repro.dht.node.ChordNode`'s tables
from its rows.

Routing is the same greedy closest-preceding-entry rule as
:meth:`ChordNode.next_hop` (footnote 4: fingers + successor list + self),
evaluated for *batches* of lookups at once: :meth:`route_batch` advances all
active queries one hop per vectorised round, so a million lookups cost
~``O(log n)`` NumPy passes rather than a million Python loops; each hop
reads the one finger level the greedy rule ends at, ``floor(log2(gap))``
(see :meth:`route_batch`).  On a classic (non-PNS) ring it reproduces
:meth:`ChordRing.lookup_path` hop-for-hop — the differential tests in
``tests/test_scale.py`` assert exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.dht.hashing import random_ids
from repro.dht.idspace import finger_slots, owner_slots
from repro.util.rng import as_rng

__all__ = ["CompactChordRing"]


def _int_array(a: object, what: str) -> np.ndarray:
    """``a`` as an array; ``ValueError`` unless it is a 1-D integer array."""
    arr = np.asarray(a)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be a 1-D integer array, not {arr.dtype} {arr.shape}")
    return arr


def _ring_keys(keys: object, mask: np.uint64) -> np.ndarray:
    """Lookup keys modulo ``2**m`` as ``uint64``; ``ValueError`` unless they
    are a 1-D integer array with no negative key."""
    arr = _int_array(keys, "keys")
    if arr.dtype.kind == "i" and arr.size and arr.min() < 0:
        raise ValueError("keys must be non-negative")
    return arr.astype(np.uint64) & mask


class CompactChordRing:
    """Stabilised Chord membership and routing state in flat arrays.

    Parameters
    ----------
    ids:
        Node identifiers (any order; sorted internally, must be distinct).
    hosts:
        Latency-endpoint index per identifier, aligned with ``ids``.
    m:
        Identifier bits (paper: 64).
    successor_list_len:
        Successor-list length ``r`` (paper / p2psim default: 16).
    """

    __slots__ = ("m", "mask", "successor_list_len", "ids", "hosts", "fingers")

    def __init__(
        self,
        ids: np.ndarray,
        hosts: np.ndarray,
        m: int = 64,
        successor_list_len: int = 16,
    ) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        hosts = np.asarray(hosts, dtype=np.int64)
        if ids.ndim != 1 or ids.shape != hosts.shape:
            raise ValueError("ids and hosts must be aligned 1-D arrays")
        order = np.argsort(ids)
        ids = ids[order]
        # not np.unique: it imports numpy.ma, ~1.5 MB of RSS
        if np.any(ids[1:] == ids[:-1]):
            raise ValueError("node identifiers must be distinct")
        self.m = int(m)
        self.mask = np.uint64((1 << self.m) - 1)
        self.successor_list_len = int(successor_list_len)
        self.ids = ids
        self.hosts = hosts[order]
        self.fingers = finger_slots(self.ids, self.m)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        n_nodes: int,
        m: int = 64,
        seed: int | np.random.Generator | None = 0,
        n_hosts: int | None = None,
        successor_list_len: int = 16,
    ) -> CompactChordRing:
        """A stabilised ring of ``n_nodes`` with uniform random identifiers.

        Hosts are drawn from ``n_hosts`` endpoints (default: one per node) —
        a permutation when the host space is large enough, with replacement
        otherwise, mirroring :meth:`ChordRing.build`.
        """
        rng = as_rng(seed)
        ids = random_ids(n_nodes, m, rng)
        pool = n_nodes if n_hosts is None else int(n_hosts)
        hosts = (
            rng.permutation(pool)[:n_nodes]
            if pool >= n_nodes
            else rng.integers(0, pool, size=n_nodes)
        )
        return cls(ids, hosts, m=m, successor_list_len=successor_list_len)

    def __len__(self) -> int:
        return len(self.ids)

    # -- oracle views ----------------------------------------------------------

    def owners_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Slot of the owner (first node clockwise) of each key.

        ``keys`` is a 1-D integer array (non-negative, read modulo
        ``2**m``); anything else is a ``ValueError``.
        """
        return owner_slots(self.ids, _ring_keys(keys, self.mask))

    def pns_fingers(self, latency: object) -> np.ndarray:
        """Proximity-neighbour-selection finger rows, shaped like ``fingers``.

        Level ``i`` of slot ``s`` is the member of ``[ids[s] + 2**i,
        ids[s] + 2**(i+1))`` with the least ``latency`` from ``hosts[s]``,
        the first clockwise on a tie, or classic finger ``i`` when no member
        lies there.  Those members are the slots from classic finger ``i`` up
        to classic finger ``i + 1``, and after level ``m - 1`` up to ``s``
        itself: one row's runs cut the ring clockwise of ``s`` into ``m``
        consecutive pieces, so a row costs one latency row and one sort.
        """
        n, m = len(self.ids), self.m
        out = self.fingers.copy()
        if n < 2:
            return out
        clockwise = np.arange(1, n)
        levels = np.arange(m)
        for s, row in enumerate(self.fingers):
            # position p holds slot s + 1 + p; run i spans starts[i]:ends[i]
            slots = clockwise + s
            slots[slots >= n] -= n
            lat = latency.latency_row(  # type: ignore[attr-defined]
                int(self.hosts[s]), self.hosts[slots])
            starts = (row - (s + 1)) % n
            ends = np.append(starts[1:], n - 1)
            held = ends > starts
            by_run = np.lexsort((lat, np.repeat(levels, ends - starts)))
            out[s, held] = slots[by_run[starts[held]]]
        return out

    def check_invariants(self) -> None:
        """Structural self-check: sorted distinct ids, finger oracle equality.

        Raises ``AssertionError`` on violation.  The finger check recomputes
        the classic-finger definition from scratch and compares, so an
        indexing slip cannot silently misroute.
        """
        n = len(self.ids)
        if n == 0:
            return
        assert np.all(np.diff(self.ids.astype(np.uint64)) > 0), "ids not sorted/unique"
        assert self.fingers.shape == (n, self.m), "finger table shape mismatch"
        assert np.all((self.fingers >= 0) & (self.fingers < n)), "finger slot range"
        assert np.array_equal(
            finger_slots(self.ids, self.m), self.fingers), "fingers differ from oracle"
        assert np.array_equal(
            self.owners_of_keys(self.ids), np.arange(n, dtype=np.int64)
        ), "each node must own its own identifier"

    # -- bulk routing ----------------------------------------------------------

    def route_batch(
        self,
        src_slots: np.ndarray,
        keys: np.ndarray,
        latency: object | None = None,
        count_visits: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Greedy Chord lookup for a batch of ``(source, key)`` pairs.

        Returns ``(owner_slots, hops, path_latency_s, visit_counts)``:

        * ``owner_slots[i]`` — slot owning ``keys[i]``;
        * ``hops[i]`` — forwarding hops, identical to
          ``len(ChordRing.lookup_path(...)) - 1`` on the same membership
          with classic (non-PNS) fingers;
        * ``path_latency_s[i]`` — sum of one-way delays along the hop path
          (zeros when ``latency`` is None), via
          :meth:`LatencyModel.latency_pairs`;
        * ``visit_counts`` — per-slot count of lookups *processed* (source
          and every intermediate node; the terminal owner hop is excluded —
          that is index load, not forwarding load).  None unless
          ``count_visits``.

        ``src_slots`` and ``keys`` are aligned 1-D integer arrays (keys
        non-negative, read modulo ``2**m``); anything else is a
        ``ValueError``.

        Each round moves every active lookup one hop; finished ones drop out
        of the round's arrays, so the loop runs ~``O(log n)`` rounds for the
        whole batch.  A lookup at ``cur`` whose key's predecessor is slot
        ``p`` takes the furthest of its successor list (``min(ps, r)`` slots,
        ``ps`` the slot distance to ``p``) and its best finger.  The finger
        of level ``l`` owns ``ids[cur] + 2**l``, so it lies in ``(cur, p]``
        exactly when ``2**l <= gap = (ids[p] - ids[cur]) mod 2**m``: the
        best level is ``floor(log2(gap))``, read from the float64 exponent
        and lowered by one where rounding lifted ``gap`` to the next power
        of two (``gap >= 2**53``).  This holds for classic fingers only,
        which are the only fingers this ring keeps.
        """
        n = len(self.ids)
        if n == 0:
            raise RuntimeError("empty ring")
        keys = _ring_keys(keys, self.mask)
        cur = _int_array(src_slots, "source slots").astype(np.int64)
        nq = len(keys)
        if len(cur) != nq:
            raise ValueError(f"{len(cur)} source slots for {nq} keys")
        if np.any((cur < 0) | (cur >= n)):
            raise ValueError("source slot out of range")
        owner = owner_slots(self.ids, keys)
        hops = np.zeros(nq, dtype=np.int64)
        lat = np.zeros(nq, dtype=np.float64)
        if n == 1:
            return owner, hops, lat, np.zeros(n, dtype=np.int64) if count_visits else None
        m = self.m
        r = min(self.successor_list_len, n - 1)
        fingers = self.fingers.ravel()
        pred = (owner - 1) % n
        # every lookup ends with the hop pred -> owner: priced once, up front
        last_hop = np.zeros(nq)
        if latency is not None:
            last_hop = latency.latency_pairs(  # type: ignore[attr-defined]
                self.hosts[pred], self.hosts[owner])
        # the active lookups, compacted every round: batch index, current
        # slot, ids[pred], slot distance to pred, latency so far
        idx = np.arange(nq, dtype=np.int64)
        pid = self.ids[pred]
        ps = (pred - cur) % n
        acc = np.zeros(nq, dtype=np.float64)
        path = [cur]
        # every round advances each active query >= 1 slot toward the
        # predecessor of its key, so n + 4m rounds is an unreachable cap
        for t in range(n + 4 * m):
            if idx.size == 0:
                break
            done = ps == 0
            fin = idx[done]
            hops[fin] = t + 1
            lat[fin] = acc[done] + last_hop[fin]
            keep = ~done
            idx, cur, pid, ps, acc = idx[keep], cur[keep], pid[keep], ps[keep], acc[keep]
            gap = (pid - self.ids[cur]) & self.mask
            lvl = np.frexp(gap.astype(np.float64))[1].astype(np.int64) - 1
            # one lower where float64 rounded gap up to 2**lvl (NumPy reads a
            # shift by 64, after a round-up to 2**64, as 0)
            lvl -= (gap >> lvl.view(np.uint64)) == 0
            step = fingers.take(cur * m + lvl) - cur
            step[step < 0] += n
            np.maximum(step, np.minimum(ps, r), out=step)
            nxt = cur + step
            nxt[nxt >= n] -= n
            if latency is not None:
                acc += latency.latency_pairs(  # type: ignore[attr-defined]
                    self.hosts[cur], self.hosts[nxt])
            ps -= step
            cur = nxt
            path.append(cur)
        else:
            raise RuntimeError("bulk lookup did not converge")
        visits = np.bincount(np.concatenate(path), minlength=n) if count_visits else None
        return owner, hops, lat, visits
