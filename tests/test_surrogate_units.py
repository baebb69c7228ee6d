"""Unit tests for SurrogateRefine internals (beyond the integration suite).

These pin down the mechanics of both surrogate modes on hand-built rings
where ownership intervals are known exactly.
"""

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.query import RangeQuery, Rect
from repro.core.routing import QueryProtocol
from repro.core.storage import Shard
from repro.dht.ring import ChordRing
from repro.sim.transport import Transport
from repro.util.bits import first_zero_bit, prefix_of

M = 8  # tiny id space so cuboids are enumerable


class FakeIndex:
    """A minimal index duck-type: 2-D space, hand-placed entries."""

    def __init__(self, ring, rotation=0):
        self.ring = ring
        self.m = M
        self.k = 2
        self.bounds = IndexSpaceBounds.uniform(2, 0.0, 1.0)
        self.rotation = rotation
        self.shards = {node: Shard(2) for node in ring.nodes()}
        self.name = "fake"

    def place(self, key: int, point, object_id: int):
        mask = (1 << self.m) - 1
        owner = self.ring.successor_of((key + self.rotation) & mask)
        self.shards[owner].add(
            np.array([key], dtype=np.uint64),
            np.asarray(point, dtype=np.float64)[None, :],
            np.array([object_id]),
        )

    def refine_distances(self, q, object_ids, radius=None):
        # no dataset: every candidate is kept (range_filter is off, top_k 100)
        return np.zeros(len(object_ids))


def _line_ring(ids):
    ring = ChordRing(m=M, successor_list_len=4)
    for i, nid in enumerate(ids):
        ring.add_node(nid, name=f"n{nid}", host=i, rebuild=False)
    ring.rebuild_tables()
    return ring


def _proto(index, mode="fixed"):
    transport = Transport()
    sim = transport.sim
    proto = QueryProtocol(transport, index, surrogate_mode=mode,
                          top_k=100, range_filter=False)
    # the tests enter below issue(): the engine keeps a query's result rows,
    # so the one qid they use is registered as issue() would
    proto.engine.register(0)
    return proto, sim, proto.stats


class TestClaimedRange:
    def test_claimed_range_spans_cuboid(self):
        ring = _line_ring([10, 200])
        index = FakeIndex(ring)
        proto, _, _ = _proto(index)
        q = RangeQuery(Rect(np.zeros(2), np.ones(2)), prefix_key=0b01000000,
                       prefix_len=2, qid=0)
        lo, hi = proto._claimed_range(q)
        assert lo == 0b01000000
        assert hi == 0b01111111


class TestFixedSurrogate:
    def test_full_coverage_when_prefix_differs(self):
        """Owner id beyond the cuboid -> it owns the whole claimed range and
        solves locally, forwarding nothing."""
        # nodes at 16 and 240; cuboid prefix 0001xxxx (keys 16..31) is fully
        # owned by node 16's *successor interval*? keys 17..240 owned by 240.
        ring = _line_ring([16, 240])
        index = FakeIndex(ring)
        # entry inside the cuboid at key 20, point in the matching cell
        index.place(20, [0.1, 0.3], 7)
        proto, sim, stats = _proto(index)
        node240 = ring.nodes_by_id[240]
        q = RangeQuery(Rect(np.zeros(2), np.ones(2)), prefix_key=0b00010100,
                       prefix_len=6, qid=0, source=node240, payload=np.zeros(2))
        # claimed keys 20..23; owner of 20 is 240 whose prefix differs
        proto._surrogate_refine(node240, q, hops=0)
        sim.run()
        st = stats.for_query(0)
        assert {e.object_id for e in st.entries} == {7}
        assert st.index_nodes == {240}

    def test_partial_coverage_forwards_siblings(self):
        """Owner inside the cuboid: answers [prefix, id], forwards the rest."""
        # node ids 0b0101_0000 = 80 and 0b1110_0000 = 224
        ring = _line_ring([80, 224])
        index = FakeIndex(ring)
        proto, sim, stats = _proto(index)
        node80 = ring.nodes_by_id[80]
        # whole-space query claiming keys 0..255 arriving at node 80
        q = RangeQuery(Rect(np.zeros(2), np.ones(2)), prefix_key=0, prefix_len=0,
                       qid=0, source=node80, payload=np.zeros(2))
        # place entries: key 10 (owned by 80) and key 200 (owned by 224)
        index.place(10, [0.2, 0.2], 1)
        index.place(200, [0.9, 0.6], 2)
        proto._surrogate_refine(node80, q, hops=0)
        sim.run()
        st = stats.for_query(0)
        assert {e.object_id for e in st.entries} == {1, 2}
        assert st.index_nodes == {80, 224}

    def test_zero_bits_drive_sibling_count(self):
        """The number of forwarded sibling prefixes equals the number of zero
        bits of the effective id after the prefix (bounded by m)."""
        eff = 0b10100000
        zeros = []
        j = first_zero_bit(eff, 1, M)
        while j is not None:
            zeros.append(j)
            j = first_zero_bit(eff, j + 1, M)
        assert zeros == [2, 4, 5, 6, 7, 8]
        assert prefix_of(eff, 1, M) == 0b10000000


class TestLiteralVsFixedUnit:
    def test_literal_loses_straddling_sliver(self):
        """Hand-built scenario from DESIGN.md §4b where the literal mode
        provably drops an entry the fixed mode returns."""
        # Ring: nodes at 0b11000000 (192) and 0b00100000 (32).
        # Query: whole space (prefix len 0) surrogated at node 192
        # (owner of key 0).  eff = 192 = 0b11000000: bits 1,2 are 1, first
        # zero at j=3.  Literal re-prefixes to 0b11 (len 2) — claiming the
        # rect sits in the [0.75,1.0]x[0.5,1.0] cuboid — and splits at 3.
        # An entry at key 0b01xxxxxx (lower half of div 1, upper of div 2)
        # with x-coordinate > the div-3 midpoint ends up ONLY in the
        # forwarded subquery, whose keys start at 0b11100000 — missed.
        ring = _line_ring([32, 192])
        node192 = ring.nodes_by_id[192]
        results = {}
        for mode in ("fixed", "literal"):
            index = FakeIndex(ring)
            # key 0b01100000 = 96: dim0 in (0.25,0.5], dim1 in (0.5,0.75]...
            # place a point that hashes there: x in lower half div1,
            # y upper half div2, x upper half div3.
            index.place(96, [0.45, 0.6], 42)
            proto, sim, stats = _proto(index, mode=mode)
            q = RangeQuery(Rect(np.zeros(2), np.ones(2)), prefix_key=0,
                           prefix_len=0, qid=0, source=node192,
                           payload=np.zeros(2))
            proto._surrogate_refine(node192, q, hops=0)
            sim.run()
            results[mode] = {e.object_id for e in stats.for_query(0).entries}
        assert 42 in results["fixed"]
        assert 42 not in results["literal"]
