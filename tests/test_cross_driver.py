"""Algorithm 5 on two drivers, held to one oracle.

The event sim forwards sibling cuboids (``walk_siblings``); the live
coordinator walks owners in key order (``first_key_meeting`` /
``next_key_meeting``).  Both run the same descent of ``core.lph``, and on one
ring — the same node ids as a ``ChordRing`` and as a converged
``LocalCluster``, the same entries — they must solve at the same places:

* the owners that answered the live walk's ``range_solve`` with ids **equal**
  :func:`repro.check.oracle.owners_meeting`;
* the oracle set is **contained in** the sim's ``solve``-span node set, and
  every sim-only node replied with no entries (the sim also solves at the
  owner of a cuboid's low end when the rectangle meets the cuboid only above
  that owner's id);
* both drivers' id answers equal brute force.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.check.oracle import owners_meeting
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import key_to_cuboid, lp_hash_batch, smallest_enclosing_prefix
from repro.core.query import RangeQuery, Rect
from repro.core.routing import QueryProtocol
from repro.core.storage import Shard
from repro.dht.idspace import rotate, rotate_keys, unrotate
from repro.dht.ring import ChordRing
from repro.net.cluster import ClusterClient, LocalCluster
from repro.obs import Observability
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector

M = 12  # small enough to enumerate every leaf key
K = 2
SIZE = 1 << M
N_NODES = 8
BOUNDS = IndexSpaceBounds.uniform(K, 0.0, 1000.0)
ENTRY_NODES = (0, 5)  # positions in LocalCluster.nodes

pytestmark = pytest.mark.timeout(60)


def _points() -> np.ndarray:
    rng = np.random.default_rng(22)
    points = rng.uniform(0.0, 1000.0, size=(600, K))
    # some exactly on split planes, where the tie rule decides the key
    points[:60] = rng.choice([0.0, 250.0, 500.0, 625.0, 750.0, 1000.0], size=(60, K))
    return points


def _rects(rotation: int, node_ids: list[int]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    # a leaf just below the last node id and one just above the first: their
    # bounding box is a cuboid whose ring positions wrap past 2**m - 1
    lo_a, hi_a = key_to_cuboid(unrotate(max(node_ids) - 1, rotation, M), BOUNDS, M)
    lo_b, hi_b = key_to_cuboid(unrotate(min(node_ids) + 1, rotation, M), BOUNDS, M)
    rects = {
        "whole-space": ([0.0, 0.0], [1000.0, 1000.0]),
        "on-plane": ([250.0, 500.0], [500.0, 750.0]),
        "plane-sliver": ([500.0, 100.0], [500.0, 900.0]),
        "one-arc": ([85.0, 90.0], [120.0, 125.0]),
        "rotation-wrap": (np.minimum(lo_a, lo_b) + 1.0, np.maximum(hi_a, hi_b) - 1.0),
    }
    return {name: (np.asarray(lo, float), np.asarray(hi, float))
            for name, (lo, hi) in rects.items()}


async def _live_answers(points, object_ids, keys):
    """Every rectangle from every entry node on a converged ``LocalCluster``:
    ``(node ids, rotation, {(rect, entry): (owners that answered, ids)})``."""
    cluster = LocalCluster(N_NODES, m=M, k=K)
    client = ClusterClient()
    try:
        addrs = await cluster.start()
        await client.start()
        assert await client.wait_converged(addrs, poll=0.02)
        assert await client.insert(addrs[0], keys, points, object_ids) == len(object_ids)
        answered: list[int] = []
        for node in cluster.nodes:
            def recording(payload, src, node=node):
                reply = node._rpc_range_solve(payload, src)
                if "ids" in reply:
                    answered.append(node.id)
                return reply
            node.transport.register_rpc("range_solve", recording)
        rotation = cluster.nodes[0].rotation
        node_ids = [node.id for node in cluster.nodes]
        out = {}
        for name, (lows, highs) in _rects(rotation, node_ids).items():
            for entry in ENTRY_NODES:
                answered.clear()
                ids = await cluster.nodes[entry].range_query(lows, highs)
                out[name, entry] = (set(answered), np.sort(ids))
        return node_ids, rotation, out
    finally:
        await client.close()
        await cluster.close()


class _SimIndex:
    """The duck-typed index ``QueryProtocol`` needs, holding the live entries."""

    name = "index"
    m = M
    k = K
    bounds = BOUNDS

    def __init__(self, ring: ChordRing, rotation: int, points, object_ids, keys) -> None:
        self.rotation = rotation
        self.shards = {node: Shard(K) for node in ring.nodes()}
        ring_keys = rotate_keys(keys, rotation, M)
        owners = np.array([ring.successor_of(int(rk)).id for rk in ring_keys])
        for node, shard in self.shards.items():
            sel = owners == node.id
            shard.add(keys[sel], points[sel], object_ids[sel])

    def refine_distances(self, q, points, object_ids):
        return np.zeros(len(object_ids))


@pytest.fixture(scope="module")
def drivers():
    points = _points()
    object_ids = np.arange(len(points), dtype=np.int64)
    keys = lp_hash_batch(points, BOUNDS, M)
    node_ids, rotation, live = asyncio.run(_live_answers(points, object_ids, keys))
    assert len(set(node_ids)) == N_NODES, "node ids collide at this m"
    assert rotation != 0
    ring = ChordRing(m=M, successor_list_len=4)
    for i, nid in enumerate(node_ids):
        ring.add_node(nid, name=f"node-{i}", host=i, rebuild=False)
    ring.rebuild_tables()
    index = _SimIndex(ring, rotation, points, object_ids, keys)
    return SimpleNamespace(points=points, object_ids=object_ids, node_ids=node_ids,
                           rotation=rotation, live=live, ring=ring, index=index)


def _sim_answer(ring, index, entry_id, lows, highs):
    """``({solve node: entries it replied with}, ids)`` of one sim query."""
    sim = Simulator()
    stats = StatsCollector()
    obs = Observability(metrics=False, tracing=True).bind(sim)
    proto = QueryProtocol(sim, index, stats, latency=None, top_k=10**6,
                          range_filter=False, obs=obs)
    prefix_key, prefix_len = smallest_enclosing_prefix(lows, highs, BOUNDS, M)
    proto.issue(RangeQuery(Rect(lows, highs), prefix_key, prefix_len, qid=0),
                ring.nodes_by_id[entry_id])
    sim.run()
    solved: dict[int, int] = {}
    for span in obs.span_memory.by_kind("solve"):
        solved[span.node] = solved.get(span.node, 0) + span.attrs["results"]
    ids = np.sort([e.object_id for e in stats.for_query(0).entries])
    return solved, ids


@pytest.mark.parametrize("entry", ENTRY_NODES, ids=lambda e: f"entry-{e}")
@pytest.mark.parametrize(
    "name", ["whole-space", "on-plane", "plane-sliver", "one-arc", "rotation-wrap"])
def test_both_walks_solve_where_the_oracle_says(drivers, name, entry):
    d = drivers
    lows, highs = _rects(d.rotation, d.node_ids)[name]
    oracle = owners_meeting(lows, highs, sorted(d.node_ids), d.rotation, BOUNDS, M)
    brute = d.object_ids[np.all((d.points >= lows) & (d.points <= highs), axis=1)]
    live_owners, live_ids = d.live[name, entry]
    solved, sim_ids = _sim_answer(d.ring, d.index, d.node_ids[entry], lows, highs)

    assert live_owners == oracle
    assert oracle <= set(solved)
    assert all(solved[n] == 0 for n in set(solved) - oracle)
    assert live_ids.tolist() == brute.tolist()
    assert sim_ids.tolist() == brute.tolist()


def test_rectangles_are_the_shapes_they_claim(drivers):
    """The shapes above are what their names say on this ring."""
    rotation = drivers.rotation
    rects = _rects(rotation, drivers.node_ids)
    ids = sorted(drivers.node_ids)
    assert owners_meeting(*rects["whole-space"], ids, rotation, BOUNDS, M) == set(ids)
    assert len(owners_meeting(*rects["one-arc"], ids, rotation, BOUNDS, M)) == 1
    prefix_key, prefix_len = smallest_enclosing_prefix(*rects["rotation-wrap"], BOUNDS, M)
    key_hi = prefix_key + (1 << (M - prefix_len)) - 1
    assert rotate(prefix_key, rotation, M) > rotate(key_hi, rotation, M)
    assert {ids[0], ids[-1]} <= owners_meeting(*rects["rotation-wrap"], ids, rotation, BOUNDS, M)
