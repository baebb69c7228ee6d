"""`repro.dht.idspace`: each key-space rule against a reference written here.

The helpers are the one definition of rotation, ownership, the lookup step
and (with :func:`repro.core.storage.group_by_owner`) placement that the event
simulator, the array ring and the live node share, so every reference below
is spelled out in this file and uses nothing of the module under test but
the scalar interval predicates: a scan over all nodes, a Python loop, a
boolean mask.  The last test is the cross-driver differential: the same ids
and keys get the same owner from the simulated ring's table
(``ChordRing.table``, the ``CompactChordRing`` the scale path routes on too)
and from the ``insert`` batches a live ``NodeProcess.route_insert`` sends.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.lph import lp_hash_batch
from repro.core.storage import group_by_owner
from repro.dht import idspace
from repro.dht.compact import CompactChordRing
from repro.dht.idspace import (
    closest_preceding,
    finger_slots,
    in_interval_closed_open,
    in_interval_open_closed,
    keys_in_interval_open_closed,
    owner_slot,
    owner_slots,
    rotate,
    rotate_keys,
    unrotate,
)
from repro.dht.ring import ChordRing
from repro.net.transport import TcpTransport
from repro.sim.network import ConstantLatency
from tests.test_net_query import BOUNDS, M as LIVE_M, Ring

BIG_M = (16, 32, 63, 64)


def rings(m: int, seed: int = 0) -> list[list[int]]:
    """Sorted id lists on the ``m``-bit ring: every subset for ``m <= 3``,
    else one node, both ends of the id range, and seeded draws."""
    size = 1 << m
    if m <= 3:
        return [list(c) for n in range(1, size + 1)
                for c in itertools.combinations(range(size), n)]
    rng = np.random.default_rng(seed + m)
    out = [[0], [size - 1], [0, size - 1], [size // 2]]
    for n in (1, 2, 3, 7, 12):
        ids = {int(v) for v in rng.integers(0, size, size=n, dtype=np.uint64)}
        out.append(sorted(ids))
    return out


def keys_for(ids: list[int], m: int, seed: int = 0) -> list[int]:
    """Every key for ``m <= 8``; else the edges (each id and its neighbours,
    0, ``2**m - 1``, just above the largest id) and seeded draws."""
    size = 1 << m
    if m <= 8:
        return list(range(size))
    rng = np.random.default_rng(seed)
    keys = {0, size - 1, (ids[-1] + 1) % size}
    for i in ids:
        keys |= {i, (i - 1) % size, (i + 1) % size}
    keys |= {int(v) for v in rng.integers(0, size, size=32, dtype=np.uint64)}
    return sorted(keys)


def owners_by_scan(ids: list[int], key: int, m: int) -> list[int]:
    """Every slot whose ``(predecessor, id]`` holds ``key`` — there must be one."""
    return [s for s in range(len(ids))
            if in_interval_open_closed(key, ids[s - 1], ids[s], m)]


# -- ownership ------------------------------------------------------------------------


@pytest.mark.parametrize("m", [*range(1, 9), *BIG_M])
def test_owner_slot_is_the_one_node_whose_interval_holds_the_key(m):
    for ids in rings(m):
        for key in keys_for(ids, m):
            assert owners_by_scan(ids, key, m) == [owner_slot(ids, key)], (ids, key)


@pytest.mark.parametrize("m", [1, 4, 8, *BIG_M])
def test_owner_slots_is_owner_slot_per_key(m):
    for ids in rings(m)[-6:]:
        keys = keys_for(ids, m)
        got = owner_slots(np.asarray(ids, dtype=np.uint64), np.asarray(keys, dtype=np.uint64))
        assert got.tolist() == [owner_slot(ids, key) for key in keys]
        assert got.dtype == np.int64


@pytest.mark.parametrize("m", [1, 3, 8, *BIG_M])
def test_keys_in_interval_open_closed_is_the_scalar_predicate_per_key(m):
    """Every arc a ring has (a node alone included: ``(a, a]`` is the full
    ring, which at ``m = 64`` is one more than ``uint64`` holds)."""
    for ids in rings(m)[-6:]:
        keys = keys_for(ids, m)
        for s in range(len(ids)):
            got = keys_in_interval_open_closed(
                np.asarray(keys, dtype=np.uint64), ids[s - 1], ids[s], m)
            assert got.dtype == np.bool_
            assert got.tolist() == [
                in_interval_open_closed(key, ids[s - 1], ids[s], m) for key in keys]


def slots_between_fingers(row: list[int], s: int, n: int) -> list[list[int]]:
    """Per level ``i``, the slots clockwise from classic finger ``i`` up to
    (not including) finger ``i + 1``, and after the last level up to ``s``
    itself: the candidate runs ``CompactChordRing.pns_fingers`` picks from."""
    runs = []
    for start, end in zip(row, [*row[1:], s]):
        run, t = [], start
        while t != end:
            run.append(t)
            t = (t + 1) % n
        runs.append(run)
    return runs


@pytest.mark.parametrize("m", [2, 5, 8, *BIG_M])
def test_slots_between_is_the_closed_open_interval_clockwise(m):
    """The slots between consecutive classic fingers of ``s`` are the members
    of ``[ids[s] + 2**i, ids[s] + 2**(i+1))``, clockwise from its start."""
    size = 1 << m
    for ids in rings(m)[-6:]:
        table = finger_slots(np.asarray(ids, dtype=np.uint64), m).tolist()
        for s, row in enumerate(table):
            for i, run in enumerate(slots_between_fingers(row, s, len(ids))):
                lo, hi = (ids[s] + (1 << i)) % size, (ids[s] + (2 << i)) % size
                inside = [t for t in range(len(ids)) if in_interval_closed_open(ids[t], lo, hi, m)]
                inside.sort(key=lambda t: (ids[t] - lo) % size)
                assert run == inside, (ids, s, i)


def test_slots_between_on_an_empty_ring():
    assert finger_slots(np.asarray([], dtype=np.uint64), 3).shape == (0, 3)
    table = CompactChordRing(np.asarray([], dtype=np.uint64), np.asarray([], dtype=np.int64), m=3)
    assert table.pns_fingers(ConstantLatency(1, 0.01)).tolist() == []


@pytest.mark.parametrize("m", [1, 3, 8, *BIG_M])
def test_finger_slots_is_owner_slot_per_level(m, monkeypatch):
    monkeypatch.setattr(idspace, "_FINGER_CHUNK", 5)  # several chunks, one ragged
    size = 1 << m
    for ids in rings(m)[-6:]:
        table = finger_slots(np.asarray(ids, dtype=np.uint64), m)
        assert table.shape == (len(ids), m) and table.dtype == np.int32
        for s, i in itertools.product(range(len(ids)), range(m)):
            assert table[s, i] == owner_slot(ids, (ids[s] + (1 << i)) % size)


# -- rotation -------------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 8, *BIG_M])
def test_rotation_scalar_array_and_inverse_agree(m):
    size = 1 << m
    rng = np.random.default_rng(m)
    draws = [int(v) for v in rng.integers(0, size, size=24, dtype=np.uint64)]
    keys = [0, 1, size - 1, size // 2, *draws]
    for offset in (0, 1, size - 1, size // 2, *draws[:4]):
        rotated = [rotate(key, offset, m) for key in keys]
        assert rotated == [(key + offset) % size for key in keys]
        assert [unrotate(r, offset, m) for r in rotated] == keys
        got = rotate_keys(np.asarray(keys, dtype=np.uint64), offset, m)
        assert got.dtype == np.uint64 and got.tolist() == rotated


def test_rotate_keys_wraps_at_64_bits_without_a_warning(recwarn):
    top = (1 << 64) - 1
    got = rotate_keys(np.asarray([top, top - 1, 0], dtype=np.uint64), top, 64)
    assert got.tolist() == [top - 1, top - 2, top]
    assert not recwarn.list


# -- the lookup step ------------------------------------------------------------------


def next_hop_loop(self_id: int, key: int, table: list[int], m: int) -> int:
    """``ChordNode.next_hop`` as the parent commit wrote it, over ids:
    position of the winner in ``table``, ``-1`` for the node itself."""
    size = 1 << m
    target = (key - self_id) % size
    if target == 0:
        target = size
    best, best_d = -1, 0
    for pos, cand in enumerate(table):
        if cand == key:
            continue
        d = (cand - self_id) % size
        if d < target and d > best_d:
            best, best_d = pos, d
    return best


@pytest.mark.parametrize("m", [2, 5, 8, *BIG_M])
def test_closest_preceding_is_the_next_hop_loop(m):
    rng = np.random.default_rng(100 + m)
    for ids in rings(m)[-6:]:
        for self_id in ids[:4]:
            # a routing table: self, duplicates and unsorted entries included
            table = [self_id, *(ids[int(j)] for j in rng.integers(0, len(ids), size=9))]
            for key in keys_for(ids, m):
                want = next_hop_loop(self_id, key, table, m)
                assert closest_preceding(self_id, key, table, m) == want


# -- placement ------------------------------------------------------------------------


@pytest.mark.parametrize("n_slots,n", [(1, 0), (1, 5), (4, 40), (64, 1000), (1000, 64)])
def test_group_by_owner_is_one_boolean_mask_per_owner(n_slots, n):
    owners = np.random.default_rng(n).integers(0, n_slots, size=n)
    order, offsets = group_by_owner(owners, n_slots)
    assert offsets.shape == (n_slots + 1,) and offsets[0] == 0 and offsets[-1] == n
    for s in range(n_slots):
        # input order within one owner: what a stable per-shard sort relies on
        assert order[offsets[s] : offsets[s + 1]].tolist() == np.flatnonzero(owners == s).tolist()


# -- cross-driver differential --------------------------------------------------------


@pytest.mark.timeout(60)
def test_three_drivers_place_the_same_keys_on_the_same_owners(monkeypatch):
    live = Ring(3, n_points=40, seed=11)
    try:
        ring = ChordRing(m=LIVE_M)
        for node in live.nodes:
            ring.add_node(node.id, rebuild=False)
        node_ids = np.asarray([node.id for node in ring.nodes()])

        rng = np.random.default_rng(12)
        points = rng.uniform(0.0, 1000.0, size=(300, 2))
        object_ids = np.arange(1000, 1300, dtype=np.int64)
        keys = lp_hash_batch(points, BOUNDS, LIVE_M)
        ring_keys = rotate_keys(keys, live.nodes[0].rotation, LIVE_M)

        slots = ring.table.owners_of_keys(ring_keys)
        assert slots.tolist() == [owner_slot(node_ids.tolist(), key) for key in ring_keys.tolist()]
        assert len(set(slots.tolist())) == 3, "the batch should land on every node"

        sent: list[tuple[str, np.ndarray]] = []
        original = TcpTransport.rpc

        async def recording(self, dst_addr, kind, payload=None, **kw):
            if kind == "insert":
                sent.append((dst_addr, payload["ids"]))
            return await original(self, dst_addr, kind, payload, **kw)

        monkeypatch.setattr(TcpTransport, "rpc", recording)
        assert live.run(live.nodes[1].route_insert(keys, points, object_ids)) == 300
        id_at = {node.addr: node.id for node in live.nodes}
        live_owner = np.zeros(300, dtype=node_ids.dtype)
        for addr, ids in sent:
            live_owner[ids - 1000] = id_at[addr]
        assert sorted(id_at[addr] for addr, _ in sent) == sorted(node_ids.tolist())
        assert np.array_equal(live_owner, node_ids[slots])
    finally:
        live.close()
