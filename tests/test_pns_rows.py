"""PNS finger rows against their definition, and the event sim's node tables
against the rows.

Proximity neighbour selection (Chord-PNS, the paper's protocol) picks finger
level ``i`` of node ``id`` among the members of ``[id + 2**i, id + 2**(i+1))``:
the one with the least latency from the node, the first clockwise on a tie,
and ``successor(id + 2**i)`` when no member lies there.
:meth:`CompactChordRing.pns_fingers` derives that from the classic rows;
:func:`reference_rows` scans the sorted ids for it instead.  A
:class:`ChordRing` writes every node's tables from its ``table``'s rows after
each membership change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dht.compact import CompactChordRing
from repro.dht.ring import ChordRing
from repro.sim.king import king_coordinate_model, king_latency_model
from repro.sim.network import ConstantLatency

N_HOSTS = 48
LATENCIES = {
    "constant": ConstantLatency(N_HOSTS, 0.01),
    "king-matrix": king_latency_model(n_hosts=N_HOSTS, seed=3),
    "coordinates": king_coordinate_model(n_hosts=N_HOSTS, seed=4),
}


def reference_rows(ids: list[int], hosts: list[int], m: int, latency) -> list[list[int]]:
    """PNS finger slots by the definition: for each slot and level ``i``, the
    lowest-latency member of ``[id + 2**i, id + 2**(i+1))`` found by scanning
    the sorted ``ids``, the first clockwise on a tie, else the slot of
    ``successor(id + 2**i)``."""
    size, n = 1 << m, len(ids)
    rows = []
    for s, nid in enumerate(ids):
        row = []
        for i in range(m):
            ahead = [(ids[t] - nid) % size for t in range(n)]
            members = sorted((t for t in range(n) if 1 << i <= ahead[t] < 2 << i),
                             key=ahead.__getitem__)
            if members:
                lats = [latency.latency(hosts[s], hosts[t]) for t in members]
                row.append(members[lats.index(min(lats))])
            else:
                start = (nid + (1 << i)) % size
                row.append(next((t for t in range(n) if ids[t] >= start), 0))
        rows.append(row)
    return rows


def check_rows(ids: list[int], hosts: list[int], m: int, kind: str) -> None:
    table = CompactChordRing(np.asarray(ids, dtype=np.uint64), np.asarray(hosts), m=m)
    got = table.pns_fingers(LATENCIES[kind])
    assert got.dtype == table.fingers.dtype and got.shape == (len(ids), m)
    assert got.tolist() == reference_rows(ids, hosts, m, LATENCIES[kind])


@st.composite
def pns_rings(draw) -> tuple[list[int], list[int], int, str]:
    """Up to 24 ids on an ``m``-bit ring (m 6–64), crowding both ends of the
    id range so rings wrap zero, with hosts that may repeat (latency 0)."""
    m = draw(st.integers(6, 64))
    top = (1 << m) - 1
    near = st.one_of(st.integers(0, 40), st.integers(top - 40, top), st.integers(0, top))
    ids = sorted(draw(st.sets(near, min_size=1, max_size=24)))
    hosts = draw(st.lists(st.integers(0, N_HOSTS - 1), min_size=len(ids), max_size=len(ids)))
    return ids, hosts, m, draw(st.sampled_from(sorted(LATENCIES)))


@given(pns_rings())
def test_pns_rows_are_the_reference_scan(case):
    check_rows(*case)


SMALL_RINGS = {
    "one": lambda top: [top // 3],
    "two-wrapping": lambda top: [2, top - 1],
    "three-at-zero": lambda top: [0, 5, top],
    "three-spread": lambda top: [1, top // 2 + 1, top - 3],
}


@pytest.mark.parametrize("kind", sorted(LATENCIES))
@pytest.mark.parametrize("m", [6, 7, 33, 64])
@pytest.mark.parametrize("ring", sorted(SMALL_RINGS))
def test_small_rings_are_the_reference_scan(ring, m, kind):
    ids = SMALL_RINGS[ring]((1 << m) - 1)
    check_rows(ids, list(range(7, 7 + len(ids))), m, kind)


def test_constant_latency_ties_every_level_to_the_classic_finger():
    table = CompactChordRing.build(200, m=64, seed=5, n_hosts=N_HOSTS * 10)
    table.hosts %= N_HOSTS  # repeats: a same-host member is 0 s away
    rows = table.pns_fingers(LATENCIES["constant"])
    differs = rows != table.fingers
    assert np.all(table.hosts[rows[differs]] == np.repeat(table.hosts, differs.sum(1)))
    distinct = CompactChordRing(table.ids, np.arange(200), m=64)
    assert np.array_equal(distinct.pns_fingers(LATENCIES["constant"]), distinct.fingers)


def assert_nodes_hold_the_rows(ring: ChordRing) -> None:
    """Each node's successor list, predecessor and fingers are ``table``'s."""
    nodes = ring.nodes()
    n = len(nodes)
    table = ring.table
    assert [node.id for node in nodes] == table.ids.tolist()
    assert [node.host for node in nodes] == table.hosts.tolist()
    rows = table.pns_fingers(ring.latency) if ring.pns else table.fingers
    r = min(ring.successor_list_len, n - 1)
    for s, node in enumerate(nodes):
        assert node.predecessor["node"] is nodes[s - 1]
        assert [e["node"] for e in node.successors] == [nodes[(s + k) % n] for k in range(1, r + 1)]
        want = {} if n == 1 else {i: nodes[f] for i, f in enumerate(rows[s].tolist())}
        assert {i: e["node"] for i, e in node.fingers.items()} == want
        assert all(e == e["node"].entry() for e in (*node.successors, *node.fingers.values()))


@pytest.mark.parametrize("kind", ["king-matrix", "coordinates"])
@pytest.mark.parametrize("pns", [True, False], ids=["pns", "classic"])
def test_node_tables_are_the_rows_after_every_membership_change(pns, kind):
    m = 16
    ring = ChordRing.build(14, m=m, seed=9, latency=LATENCIES[kind], pns=pns,
                           successor_list_len=4)
    assert_nodes_hold_the_rows(ring)
    free = iter(sorted(set(range(0, 1 << m, 997)) - set(ring.nodes_by_id)))
    for host in (3, 3, 40):
        ring.add_node(next(free), host=host)
        assert_nodes_hold_the_rows(ring)
    ring.move_node(ring.nodes()[5], next(free))
    assert_nodes_hold_the_rows(ring)
    while len(ring) > 1:
        ring.remove_node(ring.nodes()[len(ring) // 2])
        assert_nodes_hold_the_rows(ring)
    ring.move_node(ring.nodes()[0], next(free))
    assert_nodes_hold_the_rows(ring)
    ring.add_node(next(free), host=0)
    assert_nodes_hold_the_rows(ring)
    if pns:
        ids, hosts = ring.table.ids.tolist(), ring.table.hosts.tolist()
        assert ring.table.pns_fingers(ring.latency).tolist() == reference_rows(
            ids, hosts, m, ring.latency)
