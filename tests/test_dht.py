"""Tests for the Chord substrate: id space, hashing, nodes, rings, PNS, lookups."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dht.hashing import hash_to_id, node_id, random_ids, rotation_offset
from repro.dht.idspace import (
    closest_preceding,
    cw_distance,
    in_interval_closed_open,
    in_interval_open,
    in_interval_open_closed,
)
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing
from repro.sim.network import ConstantLatency, MatrixLatency

M = 16


class TestIdSpace:
    def test_cw_distance(self):
        assert cw_distance(0, 5, M) == 5
        assert cw_distance(5, 0, M) == 2**M - 5
        assert cw_distance(7, 7, M) == 0

    def test_open_closed_basic(self):
        assert in_interval_open_closed(5, 3, 7, M)
        assert in_interval_open_closed(7, 3, 7, M)
        assert not in_interval_open_closed(3, 3, 7, M)
        assert not in_interval_open_closed(8, 3, 7, M)

    def test_open_closed_wrap(self):
        hi = 2**M - 2
        assert in_interval_open_closed(1, hi, 3, M)
        assert in_interval_open_closed(2**M - 1, hi, 3, M)
        assert not in_interval_open_closed(hi, hi, 3, M)

    def test_full_ring_convention(self):
        # (a, a] is the full ring: single node owns everything.
        assert in_interval_open_closed(123, 7, 7, M)

    def test_open_interval(self):
        assert in_interval_open(5, 3, 7, M)
        assert not in_interval_open(7, 3, 7, M)
        assert not in_interval_open(3, 3, 7, M)

    def test_closed_open(self):
        assert in_interval_closed_open(3, 3, 7, M)
        assert not in_interval_closed_open(7, 3, 7, M)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**M - 1), st.integers(0, 2**M - 1), st.integers(0, 2**M - 1))
    def test_interval_partition(self, x, a, b):
        """(a,b] and (b,a] partition the ring minus nothing (for a != b)."""
        if a == b:
            return
        assert in_interval_open_closed(x, a, b, M) != in_interval_open_closed(x, b, a, M) or x in (a, b)


class TestHashing:
    def test_in_range(self):
        for name in ("a", "b", "node-1"):
            assert 0 <= node_id(name, 24) < 2**24

    def test_deterministic(self):
        assert node_id("x", 24) == node_id("x", 24)

    def test_rotation_differs_from_node_id(self):
        assert rotation_offset("x", 24) != node_id("x", 24)

    def test_hash_to_id_width(self):
        assert 0 <= hash_to_id(b"data", 8) < 256

    def test_random_ids_distinct(self):
        ids = random_ids(100, 16, seed=0)
        assert len(set(int(i) for i in ids)) == 100

    def test_random_ids_overflow_guard(self):
        with pytest.raises(ValueError):
            random_ids(10, 3, seed=0)


def _line_ring(ids, m=M):
    """Hand-built ring with oracle tables for unit tests."""
    ring = ChordRing(m=m, successor_list_len=4)
    for i, nid in enumerate(ids):
        ring.add_node(nid, name=f"n{i}", host=i, rebuild=False)
    ring.rebuild_tables()
    return ring


class TestRingStructure:
    def test_successor_predecessor_oracle(self):
        ring = _line_ring([10, 100, 1000, 30000])
        assert ring.successor_of(5).id == 10
        assert ring.successor_of(10).id == 10
        assert ring.successor_of(11).id == 100
        assert ring.successor_of(60000).id == 10  # wrap
        assert ring.successor_of(10).predecessor.id == 30000
        assert ring.successor_of(101).predecessor.id == 100

    def test_successor_lists_ordered(self):
        ring = _line_ring([10, 100, 1000, 30000])
        n10 = ring.nodes_by_id[10]
        assert [s.id for s in n10.successors] == [100, 1000, 30000]

    def test_predecessors(self):
        ring = _line_ring([10, 100, 1000])
        assert ring.nodes_by_id[10].predecessor.id == 1000
        assert ring.nodes_by_id[100].predecessor.id == 10

    def test_fingers_point_at_interval_successors(self):
        ring = _line_ring([10, 100, 1000, 30000])
        node = ring.nodes_by_id[10]
        for i, f in enumerate(node.fingers):
            start = (10 + (1 << i)) % 2**M
            assert f.id == ring.successor_of(start).id

    def test_build_hash_ids(self):
        ring = ChordRing.build(50, m=24, seed=0)
        assert len(ring) == 50
        ids = [n.id for n in ring.nodes()]
        assert ids == sorted(ids)

    def test_owners_of_keys_matches_oracle(self):
        ring = ChordRing.build(32, m=20, seed=1)
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**20, size=200, dtype=np.uint64)
        pos = ring.owners_of_keys(keys)
        nodes = ring.nodes()
        for key, p in zip(keys, pos):
            assert nodes[p] is ring.successor_of(int(key))

    def test_join_leave(self):
        ring = _line_ring([10, 1000])
        n = ring.add_node(500, name="joiner")
        assert ring.successor_of(200) is n
        ring.remove_node(n)
        assert ring.successor_of(200).id == 1000

    def test_duplicate_id_rejected(self):
        ring = _line_ring([10, 1000])
        with pytest.raises(ValueError):
            ring.add_node(10)

    def test_move_node(self):
        ring = _line_ring([10, 1000, 5000])
        n = ring.nodes_by_id[1000]
        ring.move_node(n, 4000)
        assert n.id == 4000
        assert 1000 not in ring.nodes_by_id
        assert ring.successor_of(999).id == 4000
        assert ring.successor_of(4500).id == 5000


class TestNextHop:
    def test_next_hop_progresses_toward_key(self):
        ring = ChordRing.build(64, m=20, seed=2)
        nodes = ring.nodes()
        key = 12345
        cur = nodes[0]
        seen = 0
        while True:
            nh = cur.next_hop(key)
            if nh is cur:
                break
            assert cw_distance(nh.id, key, 20) < cw_distance(cur.id, key, 20)
            cur = nh
            seen += 1
            assert seen < 64
        # terminal node is the true predecessor
        assert cur is ring.successor_of(key).predecessor

    def test_next_hop_never_returns_key_owner_id(self):
        ring = _line_ring([10, 100, 1000])
        n = ring.nodes_by_id[10]
        # keying exactly at a node id routes to its predecessor side
        nh = n.next_hop(1000)
        assert nh.id != 1000

    def test_single_node_ring(self):
        ring = _line_ring([42])
        n = ring.nodes_by_id[42]
        assert n.next_hop(7) is n
        assert n.successor is n
        assert ring.successor_of(7) is n

    @given(st.sampled_from([8, 16, 64]), st.data())
    def test_bisection_table_agrees_with_closest_preceding(self, m, data):
        """``next_hop`` answers from a table sorted by clockwise distance; the
        oracle is the live node's scan, ``closest_preceding``, over fingers +
        successors.  Tables hold duplicates (one node twice, two nodes with
        one id), entries that are the node itself or share its id, and keys
        on every entry, one off every entry and on the node's own id."""
        ids = st.integers(0, 2**m - 1)
        me = ChordNode(data.draw(ids), m, name="me")
        drawn = data.draw(st.lists(ids, max_size=10))
        pool = [ChordNode(i, m, name=f"n{j}") for j, i in enumerate(drawn)]
        pool += [me, ChordNode(me.id, m, name="twin")]
        pool += [ChordNode(n.id, m, name=f"copy-{n.name}") for n in pool[:2]]
        for _ in range(2):  # a table change, then the next_hop after invalidate_routing
            me.fingers = data.draw(st.lists(st.sampled_from(pool), max_size=24))
            me.successors = data.draw(st.lists(st.sampled_from(pool), max_size=6))
            me.invalidate_routing()
            table = [*me.fingers, *me.successors]
            keys = {me.id, *data.draw(st.lists(ids, max_size=6))}
            keys |= {(n.id + d) % 2**m for n in table for d in (-1, 0, 1)}
            for key in sorted(keys):
                pos = closest_preceding(me.id, key, [n.id for n in table], m)
                assert me.next_hop(key) is (table[pos] if pos >= 0 else me)
            # one entry per distinct non-zero clockwise distance, ascending
            _, dists, nodes = me._nh_table
            assert dists == sorted({cw_distance(me.id, n.id, m) for n in table} - {0})
            assert len(nodes) == len(dists)


class TestLookup:
    def test_lookup_reaches_oracle_owner(self):
        ring = ChordRing.build(80, m=24, seed=3)
        nodes = ring.nodes()
        rng = np.random.default_rng(1)
        for _ in range(100):
            key = int(rng.integers(0, 2**24))
            start = nodes[int(rng.integers(0, len(nodes)))]
            path = ring.lookup_path(start, key)
            assert path[-1] is ring.successor_of(key)

    def test_lookup_hop_count_logarithmic(self):
        ring = ChordRing.build(256, m=24, seed=4)
        nodes = ring.nodes()
        rng = np.random.default_rng(2)
        hops = []
        for _ in range(100):
            key = int(rng.integers(0, 2**24))
            start = nodes[int(rng.integers(0, len(nodes)))]
            hops.append(len(ring.lookup_path(start, key)) - 1)
        assert np.mean(hops) < 2 * np.log2(256)

    def test_lookup_from_owner_is_short(self):
        ring = ChordRing.build(32, m=20, seed=5)
        node = ring.nodes()[0]
        path = ring.lookup_path(node, node.id)
        assert path[-1] is node


class TestPNS:
    def _latency(self, n):
        rng = np.random.default_rng(0)
        mat = rng.uniform(0.01, 0.2, size=(n, n))
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 0.0)
        return MatrixLatency(mat)

    def test_pns_requires_latency(self):
        with pytest.raises(ValueError):
            ChordRing(m=8, pns=True)

    def test_pns_fingers_are_valid_candidates(self):
        lat = self._latency(64)
        ring = ChordRing.build(64, m=20, seed=6, latency=lat, pns=True)
        for node in ring.nodes():
            for i, f in enumerate(node.fingers):
                start = (node.id + (1 << i)) % 2**20
                end = (node.id + (1 << (i + 1))) % 2**20
                # finger must be in [start, end) when any candidate exists,
                # else equal to successor(start)
                if f.id != ring.successor_of(start).id:
                    assert in_interval_closed_open(f.id, start, end, 20)

    def test_pns_picks_lower_latency_than_plain(self):
        lat = self._latency(128)
        plain = ChordRing.build(128, m=20, seed=7, latency=lat, pns=False)
        pns = ChordRing.build(128, m=20, seed=7, latency=lat, pns=True)

        def mean_finger_latency(ring):
            vals = []
            for node in ring.nodes():
                for f in node.fingers:
                    if f is not node:
                        vals.append(lat.latency(node.host, f.host))
            return np.mean(vals)

        assert mean_finger_latency(pns) <= mean_finger_latency(plain)

    def test_pns_lookup_still_correct(self):
        lat = self._latency(64)
        ring = ChordRing.build(64, m=20, seed=8, latency=lat, pns=True)
        rng = np.random.default_rng(3)
        nodes = ring.nodes()
        for _ in range(60):
            key = int(rng.integers(0, 2**20))
            start = nodes[int(rng.integers(0, len(nodes)))]
            assert ring.lookup_path(start, key)[-1] is ring.successor_of(key)


class TestRoutingTable:
    def test_contains_self_fingers_successors(self):
        ring = ChordRing.build(32, m=20, seed=9, latency=ConstantLatency(32), pns=False)
        node = ring.nodes()[0]
        table = list(node.routing_table())
        assert table[0] is node
        ids = {t.id for t in table}
        for f in node.fingers:
            assert f.id in ids
        for s in node.successors:
            assert s.id in ids

    def test_no_duplicates(self):
        ring = ChordRing.build(32, m=20, seed=10)
        node = ring.nodes()[0]
        table = list(node.routing_table())
        assert len(table) == len({t.id for t in table})
