"""Algorithm 5 on two drivers, held to one oracle.

The event sim forwards sibling cuboids (``sibling_pieces``); the live
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
* both drivers' id answers equal brute force;
* a node walks a query exactly as a client does: warm, the two send
  ``range_solve`` to the same owners in the same order and get the same ids.
"""

from __future__ import annotations

import asyncio
import inspect
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
from repro.net.node import RingWalker
from repro.obs import Observability
from repro.sim.stats import StatsCollector
from repro.sim.transport import Transport

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


def _logging(transport, sent: list) -> None:
    """Append ``(dst addr, kind)`` to ``sent`` as ``transport`` sends each RPC."""
    rpc = transport.rpc

    async def logged(dst_addr, kind, payload=None, **kw):
        sent.append((dst_addr, kind))
        return await rpc(dst_addr, kind, payload, **kw)

    transport.rpc = logged


async def _live_answers(points, object_ids, keys):
    """Every rectangle on a converged ``LocalCluster``, walked from every
    entry node and by a client, cold and warm: ``(node ids, rotation,
    {(rect, caller): (owners that answered, ids)}, {rect: (addr, kind) of each
    RPC the warm client sent}, {addr: node id}, {rect: (range_solve
    destinations, ids) of the warm node and of the warm client, each asked
    right after the other})``.  A caller is an entry node's position,
    ``"node-cold"`` (the last entry node with its view cleared),
    ``"client-cold"`` (a client that has asked nothing before) or
    ``"client-warm"`` (one whose view a whole-space query tiled)."""
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
        rects = _rects(rotation, node_ids)
        out = {}
        for name, (lows, highs) in rects.items():
            for entry in ENTRY_NODES:
                answered.clear()
                ids = await cluster.nodes[entry].range_query(lows, highs)
                out[name, entry] = (set(answered), np.sort(ids))

        node = cluster.nodes[ENTRY_NODES[-1]]
        for name, (lows, highs) in rects.items():
            node.walker.view.clear()
            answered.clear()
            ids = await node.range_query(lows, highs)
            out[name, "node-cold"] = (set(answered), np.sort(ids))

        await node.range_query(*rects["whole-space"])
        await client.query(addrs[0], *rects["whole-space"])
        assert client.walker is not None and client.walker.view.tiling() is not None
        assert node.walker.view.tiling() is not None
        sent: list[tuple[str, str]] = []
        node_sent: list[tuple[str, str]] = []
        _logging(client.transport, sent)
        _logging(node.transport, node_sent)  # its stabilise rounds' RPCs too
        paired = {}
        for name, (lows, highs) in rects.items():
            del sent[:], node_sent[:]
            walked = await node.range_query(lows, highs)
            client_ids = await client.query(node.addr, lows, highs)
            solves = [addr for addr, kind in node_sent if kind == "range_solve"]
            paired[name] = (solves, walked, [addr for addr, _ in sent], client_ids)
        warm_sent = {}
        for name, (lows, highs) in rects.items():
            cold = ClusterClient()
            try:
                await cold.start()
                answered.clear()
                ids = await cold.query(addrs[ENTRY_NODES[-1]], lows, highs)
                out[name, "client-cold"] = (set(answered), ids)
            finally:
                await cold.close()
            answered.clear()
            del sent[:]
            ids = await client.query(addrs[ENTRY_NODES[-1]], lows, highs)
            out[name, "client-warm"] = (set(answered), ids)
            warm_sent[name] = list(sent)
        return (node_ids, rotation, out, warm_sent, {n.addr: n.id for n in cluster.nodes},
                paired)
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

    def refine_distances(self, q, object_ids, radius=None):
        return np.zeros(len(object_ids))


@pytest.fixture(scope="module")
def drivers():
    points = _points()
    object_ids = np.arange(len(points), dtype=np.int64)
    keys = lp_hash_batch(points, BOUNDS, M)
    node_ids, rotation, live, warm_sent, id_of, paired = asyncio.run(
        _live_answers(points, object_ids, keys))
    assert len(set(node_ids)) == N_NODES, "node ids collide at this m"
    assert rotation != 0
    ring = ChordRing(m=M, successor_list_len=4)
    for i, nid in enumerate(node_ids):
        ring.add_node(nid, name=f"node-{i}", host=i, rebuild=False)
    ring.rebuild_tables()
    index = _SimIndex(ring, rotation, points, object_ids, keys)
    return SimpleNamespace(points=points, object_ids=object_ids, node_ids=node_ids,
                           rotation=rotation, live=live, warm_sent=warm_sent, id_of=id_of,
                           paired=paired, ring=ring, index=index)


def _sim_answer(ring, index, entry_id, lows, highs):
    """``({solve node: entries it replied with}, ids)`` of one sim query."""
    transport = Transport()
    sim = transport.sim
    stats = StatsCollector()
    obs = Observability(metrics=False, tracing=True).bind(sim)
    proto = QueryProtocol(transport, index, stats, top_k=10**6,
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


RECTS = ["whole-space", "on-plane", "plane-sliver", "one-arc", "rotation-wrap"]


@pytest.mark.parametrize("entry", ENTRY_NODES, ids=lambda e: f"entry-{e}")
@pytest.mark.parametrize("name", RECTS)
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


def _oracle_and_brute(d, name):
    lows, highs = _rects(d.rotation, d.node_ids)[name]
    oracle = owners_meeting(lows, highs, sorted(d.node_ids), d.rotation, BOUNDS, M)
    return oracle, d.object_ids[np.all((d.points >= lows) & (d.points <= highs), axis=1)]


@pytest.mark.parametrize("view", ["cold", "warm"])
@pytest.mark.parametrize("name", RECTS)
def test_the_client_walk_solves_where_the_oracle_says(drivers, name, view):
    """``ClusterClient.query`` is the third caller of the walk: with an empty
    view (its owners found by lookups from the node it was handed) and with
    one a whole-space query tiled, the owners that answered are the oracle's
    and the ids brute force's."""
    oracle, brute = _oracle_and_brute(drivers, name)
    owners, ids = drivers.live[name, f"client-{view}"]
    assert owners == oracle
    assert ids.dtype == np.int64
    assert ids.tolist() == brute.tolist()


@pytest.mark.parametrize("name", RECTS)
def test_a_warm_client_sends_one_range_solve_per_owner_and_nothing_else(drivers, name):
    """No ``lookup_step``, no ``status`` and no ``query`` RPC: each RPC of a
    warm client's query is a ``range_solve`` at an owner the oracle names,
    one per owner — the client is the querying peer, no node relays for it."""
    oracle, _ = _oracle_and_brute(drivers, name)
    sent = drivers.warm_sent[name]
    assert [kind for _, kind in sent] == ["range_solve"] * len(oracle)
    assert sorted(drivers.id_of[addr] for addr, _ in sent) == sorted(oracle)


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


@pytest.mark.parametrize("name", RECTS)
def test_a_cold_node_walk_solves_where_the_oracle_says(drivers, name):
    """A node whose view was cleared finds every owner through lookups that
    start at itself and the owners' successor lists, and stays exact."""
    oracle, brute = _oracle_and_brute(drivers, name)
    owners, ids = drivers.live[name, "node-cold"]
    assert owners == oracle
    assert ids.tolist() == brute.tolist()


@pytest.mark.parametrize("name", RECTS)
def test_a_warm_node_queries_as_a_client_does(drivers, name):
    """A node's ``range_query`` is the client's walk started at the node:
    once both views tile the ring, the two send ``range_solve`` to the same
    owners in the same order, one per owner, and return the same ids."""
    oracle, brute = _oracle_and_brute(drivers, name)
    node_solves, node_ids, client_sent, client_ids = drivers.paired[name]
    assert node_solves == client_sent
    assert sorted(drivers.id_of[addr] for addr in node_solves) == sorted(oracle)
    assert node_ids.dtype == client_ids.dtype == np.int64
    assert node_ids.tolist() == client_ids.tolist() == brute.tolist()


def test_the_walker_has_one_way_to_start_a_lookup():
    """No peer-local links or lookup step: every walker, a node's included,
    starts each lookup with an RPC at the node it names."""
    assert list(inspect.signature(RingWalker).parameters) == [
        "transport", "m", "bounds", "rotation", "drop"]
    for method in (RingWalker.find_successor, RingWalker.range_query):
        assert inspect.signature(method).parameters["via"].default is inspect.Parameter.empty
