"""Tests for the Pastry substrate: digits, tables, leaf sets, routing."""

import numpy as np
import pytest

from benchmarks.baselines.pastry import PastryNode, PastryRing, cyclic_distance
from repro.sim.network import MatrixLatency

M, B = 16, 4


def _latency(n, seed=0):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(0.01, 0.2, size=(n, n))
    mat = 0.5 * (mat + mat.T)
    np.fill_diagonal(mat, 0.0)
    return MatrixLatency(mat)


class TestBasics:
    def test_cyclic_distance(self):
        assert cyclic_distance(0, 1, M) == 1
        assert cyclic_distance(1, 0, M) == 1
        assert cyclic_distance(0, 2**M - 1, M) == 1
        assert cyclic_distance(0, 2 ** (M - 1), M) == 2 ** (M - 1)

    def test_digit_extraction(self):
        node = PastryNode(0xA3F1, M, B)
        assert node.digit(0) == 0xA
        assert node.digit(1) == 0x3
        assert node.digit(2) == 0xF
        assert node.digit(3) == 0x1

    def test_m_must_be_digit_multiple(self):
        with pytest.raises(ValueError):
            PastryRing(m=10, b=4)


class TestConstruction:
    def test_build(self):
        ring = PastryRing.build(40, m=M, b=B, seed=0)
        assert len(ring) == 40

    def test_leaf_sets_are_ring_neighbours(self):
        ring = PastryRing.build(30, m=M, b=B, seed=0, leaf_set_size=8)
        nodes = ring.nodes()
        for pos, node in enumerate(nodes):
            expect = {nodes[(pos + off) % 30].id for off in (1, 2, 3, 4, -4, -3, -2, -1)}
            assert {x.id for x in node.leaf_set} == expect

    def test_routing_table_invariants(self):
        """Entry at [row][col] shares exactly `row` digits and has digit
        `col` at position row."""
        ring = PastryRing.build(50, m=M, b=B, seed=1)
        for node in ring.nodes():
            for row, cells in enumerate(node.routing_table):
                for col, entry in enumerate(cells):
                    if entry is None:
                        continue
                    for r in range(row):
                        assert entry.digit(r) == node.digit(r)
                    assert entry.digit(row) == col
                    assert col != node.digit(row)

    def test_proximity_tables_pick_closer(self):
        lat = _latency(60)
        prox = PastryRing.build(60, m=M, b=B, seed=2, latency=lat)
        plain = PastryRing.build(60, m=M, b=B, seed=2)

        def mean_entry_latency(ring):
            vals = []
            for node in ring.nodes():
                for row in node.routing_table:
                    for e in row:
                        if e is not None:
                            vals.append(lat.latency(node.host, e.host))
            return np.mean(vals)

        # hosts differ between builds (plain build numbers hosts 0..n-1);
        # compare against a randomised assignment on the same ring instead
        assert mean_entry_latency(prox) <= np.mean(lat.matrix[lat.matrix > 0])


class TestOwnership:
    def test_owner_is_numerically_closest(self):
        ring = PastryRing.build(25, m=M, b=B, seed=3)
        rng = np.random.default_rng(0)
        ids = [n.id for n in ring.nodes()]
        for _ in range(100):
            key = int(rng.integers(0, 2**M))
            owner = ring.owner_of(key)
            best = min(cyclic_distance(i, key, M) for i in ids)
            assert cyclic_distance(owner.id, key, M) == best

    def test_owner_of_node_id_is_node(self):
        ring = PastryRing.build(10, m=M, b=B, seed=4)
        for node in ring.nodes():
            assert ring.owner_of(node.id) is node


class TestRouting:
    def test_lookup_reaches_owner(self):
        ring = PastryRing.build(64, m=M, b=B, seed=5)
        nodes = ring.nodes()
        rng = np.random.default_rng(1)
        for _ in range(150):
            key = int(rng.integers(0, 2**M))
            start = nodes[int(rng.integers(0, len(nodes)))]
            path = ring.lookup_path(start, key)
            assert path[-1] is ring.owner_of(key)

    def test_hop_count_logarithmic(self):
        ring = PastryRing.build(128, m=24, b=B, seed=6)
        nodes = ring.nodes()
        rng = np.random.default_rng(2)
        hops = []
        for _ in range(100):
            key = int(rng.integers(0, 2**24))
            start = nodes[int(rng.integers(0, len(nodes)))]
            hops.append(len(ring.lookup_path(start, key)) - 1)
        # Pastry: ~log_{2^b}(N) = log_16(128) ≈ 1.75
        assert np.mean(hops) < 4.0

    def test_route_from_owner_is_zero_hops(self):
        ring = PastryRing.build(20, m=M, b=B, seed=7)
        node = ring.nodes()[0]
        assert ring.lookup_path(node, node.id) == [node]

    def test_single_node_ring(self):
        ring = PastryRing(m=M, b=B)
        n = PastryNode(123, M, B)
        ring.nodes_by_id[123] = n
        ring._sorted_ids = [123]
        ring.rebuild_tables()
        assert ring.lookup_path(n, 9999) == [n]

    def test_two_node_ring(self):
        ring = PastryRing(m=M, b=B)
        for nid in (100, 40000):
            ring.nodes_by_id[nid] = PastryNode(nid, M, B)
        ring._sorted_ids = sorted(ring.nodes_by_id)
        ring.rebuild_tables()
        a = ring.nodes_by_id[100]
        path = ring.lookup_path(a, 39999)
        assert path[-1].id == 40000
