"""A querying peer's ring view: what owners prove is remembered, never trusted.

Every ``range_solve`` reply proves its owner's arc ``(pred, id]`` and names
the owner's successors; the walker's view (``walker.view``, on a node and on
a client alike) keeps them, and a node's ``ring_snapshot`` refills it.  A
warm node therefore walks a query with no Chord lookup and places a batch
with no ring walk — and when the view has gone stale (a node joined, a node
died, a node came back on a new port) the owners' own checks still make the
answer exact: ``not_owner`` and predecessor pointers, a timeout and a lookup,
a refused ``insert`` and one re-placement over a fresh snapshot.
"""

from __future__ import annotations

import asyncio
import copy

import numpy as np
import pytest

import repro.net.node as node_module
from repro.core.lph import key_to_cuboid, lp_hash_batch
from repro.dht.hashing import node_id, rotation_offset
from repro.dht.idspace import keys_in_interval_open_closed, owner_slots, rotate_keys, unrotate
from repro.net.cluster import ClusterClient
from repro.net.node import NodeProcess, RingWalker, _RingView
from repro.net.transport import RpcError, RpcTimeout, TcpTransport
from tests.test_net_query import BOUNDS, SIZE, K, M, Ring

pytestmark = pytest.mark.timeout(60)

WHOLE = (np.zeros(K), np.full(K, 1000.0))


@pytest.fixture
def rpcs(monkeypatch):
    """Every RPC of the process as ``(src_addr, dst_addr, kind, reply or RpcError)``."""
    log: list[tuple] = []
    original = TcpTransport.rpc

    async def recording(self, dst_addr, kind, payload=None, **kw):
        try:
            reply = await original(self, dst_addr, kind, payload, **kw)
        except RpcError as exc:
            log.append((self.addr, dst_addr, kind, exc))
            raise
        log.append((self.addr, dst_addr, kind, reply))
        return reply

    monkeypatch.setattr(TcpTransport, "rpc", recording)
    return log


def _kinds(log: list[tuple]) -> list[str]:
    return [rec[2] for rec in log]


def _point_at(ring_key: int, rotation: int) -> np.ndarray:
    """A point whose key lies at ring position ``ring_key``: the centre of
    that key's leaf cuboid."""
    key = unrotate(ring_key, rotation, M)
    lo, hi = key_to_cuboid(key, BOUNDS, M)
    point = (lo + hi) / 2.0
    assert int(lp_hash_batch(point[None], BOUNDS, M)[0]) == key
    return point


def _add(ring: Ring, node: NodeProcess, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insert ``points`` under fresh ids through ``node``; returns ``(keys, ids)``."""
    ids = np.arange(len(ring.ids), len(ring.ids) + len(points), dtype=np.int64) + 10_000
    keys = lp_hash_batch(points, BOUNDS, M)
    assert ring.run(node.route_insert(keys, points, ids)) == len(ids)
    ring.points = np.vstack([ring.points, points])
    ring.ids = np.concatenate([ring.ids, ids])
    return keys, ids


def _holders(ring: Ring, ids: np.ndarray) -> list[list[int]]:
    """Per object id, the ids of the nodes whose shard holds it."""
    held = [(n.id, set(n.shard.shard.object_ids.tolist())) for n in ring.nodes]
    return [[nid for nid, oids in held if oid in oids] for oid in ids.tolist()]


def _true_owners(ring: Ring, keys: np.ndarray) -> list[int]:
    ring_ids = np.array(ring.ring_ids, dtype=np.uint64)
    rotation = ring.nodes[0].rotation
    return ring_ids[owner_slots(ring_ids, rotate_keys(keys, rotation, M))].tolist()


# -- the view itself ---------------------------------------------------------------


def _entry(i: int) -> dict:
    return {"id": i, "addr": f"127.0.0.1:{i}"}


def test_a_view_tiles_once_every_arc_meets_the_next():
    view = _RingView(M)
    a, b, c = _entry(10), _entry(20), _entry(30)
    view.fill([a, b, c])
    assert view.tiling() is None                      # nobody vouched for (30, 10]
    assert view.owner(15) == b and view.owner(25) == c and view.owner(5) is None
    view.fill([c, a])
    assert view.tiling() == [a, b, c]
    assert view.owner(5) == a and view.owner(SIZE - 1) == a
    view.fill([_entry(15), b])                        # a successor list narrows no arc
    assert view.arcs[20] == (10, b) and view.ids == [10, 20, 30]
    moved = {"id": 20, "addr": "127.0.0.1:9020"}
    view.fill([_entry(15), moved])                    # but a new address replaces the old
    assert view.arcs[20] == (10, moved) and view.owner(15) == moved
    view.forget(moved["addr"])
    assert view.ids == [10, 30] and view.tiling() is None and view.owner(15) is None


def test_a_status_teaches_the_view_where_its_node_is_and_nothing_malformed():
    walker = RingWalker(None, M, BOUNDS, 0)
    walker.view.fill([_entry(10), _entry(20), _entry(30)])
    moved = {"id": 20, "addr": "127.0.0.1:9020"}
    for bad in (None, [], {"id": 20, "addr": moved["addr"]},          # no predecessor
                {"id": 20, "addr": 9020, "predecessor": _entry(10)},
                {"id": -1, "addr": moved["addr"], "predecessor": _entry(10)},
                {"id": 20, "addr": moved["addr"], "predecessor": {"id": "10"}}):
        walker.heard_status(bad)
    assert walker.view.arcs[20] == (10, _entry(20))
    walker.heard_status({"id": 20, "addr": moved["addr"], "predecessor": _entry(15),
                         "entries": 3})
    assert walker.view.arcs[20] == (10, moved)        # the held arc stays; the address moves
    walker.heard_status({"id": 40, "addr": "127.0.0.1:40", "predecessor": _entry(30)})
    assert walker.view.arcs[40] == (30, _entry(40))


def test_a_proved_arc_replaces_the_old_one_and_evicts_the_ids_inside_it():
    view = _RingView(M)
    view.fill([_entry(40), _entry(10), _entry(20), _entry(30), _entry(40)])
    view.prove(10, _entry(30))                        # 20 left the ring
    assert view.ids == [10, 30, 40] and view.tiling() is not None
    view.prove(30, _entry(30))                        # a ring of one owns it all
    assert view.ids == [30] and view.tiling() == [_entry(30)]
    view.fill([_entry(30), _entry(5), _entry(7)])
    view.fill([_entry(30), _entry(SIZE - 1)])
    assert view.ids == [5, 7, 30, SIZE - 1]
    view.prove(SIZE - 2, _entry(6))                   # wraps past 0: SIZE - 1 and 5 go
    assert view.ids == [6, 7, 30] and view.arcs[6] == (SIZE - 2, _entry(6))


def test_the_view_is_cleared_when_it_would_outgrow_its_cap(monkeypatch):
    monkeypatch.setattr(node_module, "RING_VIEW_CAP", 4)
    view = _RingView(M)
    view.fill([_entry(i) for i in range(0, 50, 10)])
    assert view.ids == [10, 20, 30, 40]
    view.fill([_entry(40), _entry(50)])
    assert view.ids == [50] and view.arcs == {50: (40, _entry(50))}
    view.prove(50, _entry(50))
    assert view.arcs == {50: (50, _entry(50))}


def test_a_view_recomputes_its_tiling_only_after_a_change():
    """``tiling`` is asked once per ``range_solve``: the list is kept (the
    same object comes back) while the view holds still — a proof that
    restates a held arc included — and built anew after an arc, an id or an
    address changed."""
    view = _RingView(M)
    a, b, c = _entry(10), _entry(20), _entry(30)
    view.fill([c, a, b, c])
    tiles = view.tiling()
    assert tiles == [a, b, c]
    view.prove(10, dict(b))                           # restated: no change
    view.fill([a, b, c, a])                           # nothing new in it
    view.forget("127.0.0.1:99")                       # nobody there
    assert view.tiling() is tiles
    moved = {"id": 30, "addr": "127.0.0.1:9030"}
    for change, after in ((lambda: view.prove(15, b), None),          # a narrower arc
                          (lambda: view.prove(10, b), [a, b, c]),     # and back
                          (lambda: view.fill([b, moved]), [a, b, moved]),   # an address
                          (lambda: view.forget(moved["addr"]), None),       # an id
                          (lambda: view.fill([b, c, a]), [a, b, c]),
                          (view.clear, None)):
        change()
        assert view.tiling() == after
        assert after is None or view.tiling() is not tiles
        tiles = view.tiling()


# -- a warm coordinator: exact RPC counts ---------------------------------------------


@pytest.fixture(scope="module")
def ring8():
    r = Ring(8, n_points=400, seed=12)
    yield r
    r.close()


def test_a_warm_coordinator_asks_no_lookup_and_walks_no_ring(ring8, rpcs):
    x = ring8.nodes[3]
    x.walker.view.clear()
    assert ring8.query(x, *WHOLE).tolist() == ring8.brute_force(*WHOLE).tolist()
    assert [e["id"] for e in x.walker.view.tiling()] == ring8.ring_ids
    assert {e["addr"] for e in x.walker.view.tiling()} == set(ring8.cluster.addrs)

    rng = np.random.default_rng(3)
    del rpcs[:]
    for _ in range(40):
        centre, half = rng.uniform(0.0, 1000.0, size=K), rng.uniform(5.0, 300.0, size=K)
        lows, highs = centre - half, centre + half
        assert ring8.query(x, lows, highs).tolist() == ring8.brute_force(lows, highs).tolist()
    assert set(_kinds(rpcs)) == {"range_solve"} and len(rpcs) >= 40

    for warm in (False, True):
        if not warm:
            x.walker.view.clear()                       # the first placement walks the ring once
        del rpcs[:]
        keys, ids = _add(ring8, x, rng.uniform(0.0, 1000.0, size=(300, K)))
        assert _kinds(rpcs).count("get_successor") == (0 if warm else len(ring8.nodes) - 1)
        assert set(_kinds(rpcs)) <= {"get_successor", "insert"}
        assert _holders(ring8, ids) == [[owner] for owner in _true_owners(ring8, keys)]
    assert ring8.query(x, *WHOLE).tolist() == ring8.brute_force(*WHOLE).tolist()


# -- a warm client is sent only what its walk reads -------------------------------------


def _fresh_client(ring: Ring) -> ClusterClient:
    client = ClusterClient()
    ring.run(client.start())
    return client


def _rects(seed: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        centre, half = rng.uniform(0.0, 1000.0, size=K), rng.uniform(5.0, 300.0, size=K)
        out.append((centre - half, centre + half))
    return out


def test_owners_send_successors_only_until_the_clients_view_tiles(ring8, rpcs):
    """A cold client asks without ``tiled`` and reads each owner's successor
    list; once its view tiles the ring, it says so and the owners leave the
    list out of every reply, and the answers stay exact."""
    client = _fresh_client(ring8)
    entry = ring8.cluster.addrs[0]
    try:
        del rpcs[:]
        assert ring8.run(client.query(entry, *WHOLE)).tolist() == ring8.brute_force(*WHOLE).tolist()
        solves = [rec[3] for rec in rpcs if rec[0] == client.transport.addr
                  and rec[2] == "range_solve"]
        assert "successors" in solves[0]              # cold: the view has gaps
        assert client.walker.view.tiling() is not None
        del rpcs[:]
        for lows, highs in _rects(31, 30):
            assert ring8.run(client.query(entry, lows, highs)).tolist() == \
                ring8.brute_force(lows, highs).tolist()
        replies = [rec[3] for rec in rpcs if rec[0] == client.transport.addr]
        assert len(replies) >= 30 and set(_kinds(rpcs)) == {"range_solve"}
        assert not any("successors" in reply for reply in replies)
    finally:
        ring8.run(client.close())


def test_a_cold_client_sends_no_more_lookups_than_one_that_always_reads_successors(
        ring8, rpcs, monkeypatch):
    """Leaving the successor list out once the view tiles must not cost a
    cold client lookups: over its first queries it sends no more
    ``lookup_step`` than the same client with the lists read on every reply
    (what every client did before ``tiled``)."""
    def lookups() -> int:
        client = _fresh_client(ring8)
        try:
            del rpcs[:]
            for lows, highs in _rects(37, 24):
                assert ring8.run(client.query(ring8.cluster.addrs[2], lows, highs)).tolist() == \
                    ring8.brute_force(lows, highs).tolist()
            return [rec[2] for rec in rpcs if rec[0] == client.transport.addr].count("lookup_step")
        finally:
            ring8.run(client.close())

    now = lookups()
    monkeypatch.setattr(_RingView, "tiling", lambda self: None)
    always = lookups()
    assert 0 < now <= always


# -- a walk in rounds -------------------------------------------------------------------


def test_a_warm_client_has_every_solve_of_a_query_out_before_it_reads_a_reply(
        ring8, monkeypatch):
    """A view that tiles the ring plans the whole walk: the query is one
    round, each of its ``range_solve``s sent before any reply comes back, a
    whole-space one to every node in ring order from the first owner."""
    client = _fresh_client(ring8)
    entry = ring8.cluster.addrs[0]
    events: list[tuple[str, str]] = []
    original = TcpTransport.rpc

    async def recording(self, dst_addr, kind, payload=None, **kw):
        if self is client.transport:
            events.append(("send", kind))
        reply = await original(self, dst_addr, kind, payload, **kw)
        if self is client.transport:
            events.append(("reply", kind))
        return reply

    try:
        assert ring8.run(client.query(entry, *WHOLE)).tolist() == ring8.brute_force(*WHOLE).tolist()
        assert client.walker.view.tiling() is not None
        monkeypatch.setattr(TcpTransport, "rpc", recording)
        for lows, highs in [WHOLE, *_rects(41, 24)]:
            del events[:]
            assert ring8.run(client.query(entry, lows, highs)).tolist() == \
                ring8.brute_force(lows, highs).tolist()
            n = len(events) // 2
            assert n >= 1 and events == [("send", "range_solve")] * n + [
                ("reply", "range_solve")] * n
            if lows is WHOLE[0]:
                assert n == len(ring8.nodes)
    finally:
        ring8.run(client.close())


def test_two_queries_at_once_on_one_client_share_its_view_and_stay_exact(ring8):
    """Two walks on one client read and teach the same view at once — cold,
    while each reply fills it, and warm — and both answers are exact."""
    client = _fresh_client(ring8)
    a, b = ring8.cluster.addrs[1], ring8.cluster.addrs[6]

    async def both(first, second):
        return await asyncio.gather(client.query(a, *first), client.query(b, *second))

    try:
        assert ring8.run(client.query(a, *WHOLE)).tolist() == ring8.brute_force(*WHOLE).tolist()
        rects = [WHOLE, *_rects(43, 23)]
        for cold in (True, False):
            if cold:
                client.walker.view.clear()
            for first, second in zip(rects[::2], rects[1::2]):
                got = ring8.run(both(first, second))
                assert [g.tolist() for g in got] == [
                    ring8.brute_force(*first).tolist(), ring8.brute_force(*second).tolist()]
        assert [e["id"] for e in client.walker.view.tiling()] == ring8.ring_ids
    finally:
        ring8.run(client.close())


def test_a_node_stopped_mid_walk_costs_one_timeout(rpcs):
    """A warm client's round asks a node that has since stopped, in the
    middle of a whole-space walk.  The rest of the round is answered
    meanwhile; that one solve waits one ``rpc_timeout``, finds the owner by a
    lookup, and the walk plans again from there: the answer is exact over the
    survivors, in less than two timeouts."""
    timeout = 0.3
    r = Ring(8, n_points=300, seed=31, freeze=False)
    try:
        ids = r.ring_ids
        first = r.true_successor(r.nodes[0].rotation)  # the owner of key 0
        dead = next(n for n in r.nodes if n.id == ids[(ids.index(first) + 4) % 8])
        client, entry = r.client, next(n.addr for n in r.nodes if n is not dead)
        client.transport.rpc_timeout = timeout
        assert r.run(client.query(entry, *WHOLE)).tolist() == r.brute_force(*WHOLE).tolist()
        assert client.walker.view.owner(dead.id)["addr"] == dead.addr
        lost = set(dead.shard.shard.object_ids.tolist())
        r.run(r.cluster.stop_node(r.nodes.index(dead)))
        r.cluster.nodes.remove(dead)
        assert r.run(client.wait_converged(r.cluster.addrs, poll=0.02))
        assert client.walker.view.owner(dead.id)["addr"] == dead.addr   # still named

        del rpcs[:]
        t0 = r.loop.time()
        got = r.run(client.query(entry, *WHOLE)).tolist()
        elapsed = r.loop.time() - t0
        assert lost and got == [i for i in r.brute_force(*WHOLE).tolist() if i not in lost]
        sent = [rec for rec in rpcs if rec[0] == client.transport.addr]
        assert [(rec[1], rec[2]) for rec in sent if isinstance(rec[3], RpcTimeout)] == [
            (dead.addr, "range_solve")]
        assert timeout <= elapsed < 2 * timeout
        assert all(e["addr"] != dead.addr for _, e in client.walker.view.arcs.values())
    finally:
        r.close()


# -- a stale view stays exact ----------------------------------------------------------


class Joined(Ring):
    """Eight nodes; coordinators ``x`` (by a whole-space query) and ``y`` (by
    a snapshot) learn them, then node-8 — ``j`` — joins between ``p`` and
    ``s``, and stabilisation stops, so what each node knows stays put.  No
    point is stored in ``j``'s arc before it joins (nothing hands entries over
    on a join), and ``x``'s own links miss that arc."""

    async def _boot(self, freeze: bool) -> None:
        old = sorted(node_id(f"node-{i}", M) for i in range(8))
        j_id = node_id("node-8", M)
        p_id = max((i for i in old if i < j_id), default=old[-1])
        ring_keys = rotate_keys(
            lp_hash_batch(self.points, BOUNDS, M), rotation_offset("index", M), M)
        keep = ~keys_in_interval_open_closed(ring_keys, p_id, j_id, M)
        self.points, self.ids = self.points[keep], self.ids[keep]
        await super()._boot(freeze=False)

        by_id = {n.id: n for n in self.nodes}
        new = sorted([*old, j_id])
        at = new.index(j_id)
        self.p, self.s = by_id[p_id], by_id[new[(at + 1) % 9]]
        # x's successor list (4 long) and predecessor leave j's arc uncovered
        self.x = by_id[new[(at + 3) % 9]]
        self.y = next(n for n in self.nodes if n is not self.x)
        await self.y.ring_snapshot()
        await self.x.range_query(*WHOLE)
        assert len(self.x.walker.view.tiling()) == 8 and len(self.y.walker.view.tiling()) == 8

        self.j = NodeProcess(self.cluster._config(8, self.cluster.addrs[0]))
        await self.j.start()
        self.cluster.nodes.append(self.j)
        assert await self.client.wait_converged(self.cluster.addrs, poll=0.02)
        assert self.j.id == j_id and self.j.successor["addr"] == self.s.addr
        for node in self.nodes:
            node._stabilize_task.cancel()
        self.x.fingers = {}


@pytest.fixture(scope="module")
def joined():
    r = Joined(8, n_points=300, seed=21)
    yield r
    r.close()


def test_a_round_off_a_stale_view_is_cut_where_the_walk_leaves_the_plan(
        joined, rpcs, monkeypatch):
    """``x``'s view still tiles the ring as it was before ``j`` joined, so a
    whole-space query plans ``s`` for ``j``'s arc and the owners after it.
    ``s`` answers ``not_owner``, ``j`` proves ``(p, j]``, and the walk's next
    key, in ``(j, s]``, is not the one planned: the rest of the round is
    dropped and the walk plans again.  The answer is exact, with no lookup.
    (A copy of the view is walked: the tests below need the stale one.)"""
    r, x = joined, joined.x
    monkeypatch.setattr(x.walker, "view", copy.deepcopy(x.walker.view))
    assert x.walker.view.arcs[r.s.id][0] == r.p.id and x.walker.view.tiling() is not None
    del rpcs[:]
    assert r.query(x, *WHOLE).tolist() == r.brute_force(*WHOLE).tolist()
    solves = [(rec[1], isinstance(rec[3], dict) and "not_owner" in rec[3])
              for rec in rpcs if rec[2] == "range_solve"]
    assert (r.s.addr, True) in solves and (r.j.addr, False) in solves
    assert (r.s.addr, False) in solves                # asked again, for (j, s]
    assert "lookup_step" not in _kinds(rpcs)
    assert [e["id"] for e in x.walker.view.tiling()] == r.ring_ids


def test_a_node_that_joined_is_reached_through_not_owner_and_learned(joined, rpcs):
    r, x = joined, joined.x
    assert x.walker.view.arcs[r.s.id][0] == r.p.id      # stale: s's arc still reaches p
    point = _point_at(r.j.id, r.j.rotation)
    _add(r, r.j, point[None])                         # j's view is cold: it snapshots
    lows, highs = point - 1e-7, point + 1e-7
    del rpcs[:]
    assert r.query(x, lows, highs).tolist() == r.brute_force(lows, highs).tolist() != []
    solves = [rec for rec in rpcs if rec[2] == "range_solve"]
    assert [(rec[1], "not_owner" in rec[3]) for rec in solves] == [
        (r.s.addr, True), (r.j.addr, False)]
    assert "lookup_step" not in _kinds(rpcs)
    assert x.walker.view.arcs[r.j.id][0] == r.p.id      # j proved its arc
    assert x.walker.view.owner(r.j.id)["addr"] == r.j.addr
    assert r.query(x, *WHOLE).tolist() == r.brute_force(*WHOLE).tolist()
    assert x.walker.view.arcs[r.s.id][0] == r.j.id      # and s its narrower one
    assert [e["id"] for e in x.walker.view.tiling()] == r.ring_ids


def test_route_insert_off_a_stale_tiling_re_places_the_refused_entries(joined, rpcs):
    r, y = joined, joined.y
    assert r.j.id not in y.walker.view.arcs and y.walker.view.tiling() is not None
    rng = np.random.default_rng(5)
    span = (r.j.id - r.p.id) % SIZE
    in_j = [_point_at((r.p.id + 1 + int(rng.integers(span))) % SIZE, y.rotation)
            for _ in range(6)]
    points = np.vstack([rng.uniform(0.0, 1000.0, size=(60, K)), *in_j])
    del rpcs[:]
    keys, ids = _add(r, y, points)                    # accepted == len(batch), or _add fails
    kinds, walk = _kinds(rpcs), len(r.nodes) - 1
    snap = kinds.index("get_successor")
    assert kinds[snap : snap + walk] == ["get_successor"] * walk   # one fresh snapshot
    first, second = rpcs[:snap], rpcs[snap + walk :]
    # s, the owner of j's arc in the stale view, refuses once; the refused
    # entries alone go out again, to j and to s
    refusals = [rec for rec in first if isinstance(rec[3], RpcError)]
    assert [rec[1] for rec in refusals] == [r.s.addr] and "insert refused" in str(refusals[0][3])
    assert {rec[1] for rec in second} == {r.j.addr, r.s.addr}
    assert set(_kinds(second)) == {"insert"}
    assert not any(isinstance(rec[3], RpcError) for rec in second)
    assert _holders(r, ids) == [[owner] for owner in _true_owners(r, keys)]
    assert sum(owner == r.j.id for owner in _true_owners(r, keys)) >= len(in_j)
    assert [e["id"] for e in y.walker.view.tiling()] == r.ring_ids
    assert r.query(y, *WHOLE).tolist() == r.brute_force(*WHOLE).tolist()


class TwoJoined(Ring):
    """Eight nodes and a client, ``querier``, whose view tiles them; then
    node-8 and node-9 join in two different arcs and stabilisation stops.
    No point is stored in either joiner's arc before it joins.  (The ring's
    own client waits for convergence: the statuses it reads would teach
    ``querier``'s view the joiners.)"""

    async def _boot(self, freeze: bool) -> None:
        old = sorted(node_id(f"node-{i}", M) for i in range(8))
        joiner_ids = [node_id(f"node-{i}", M) for i in (8, 9)]
        preds = [max((i for i in old if i < j), default=old[-1]) for j in joiner_ids]
        assert preds[0] != preds[1]
        ring_keys = rotate_keys(
            lp_hash_batch(self.points, BOUNDS, M), rotation_offset("index", M), M)
        keep = np.ones(len(self.points), dtype=bool)
        for pred, j in zip(preds, joiner_ids):
            keep &= ~keys_in_interval_open_closed(ring_keys, pred, j, M)
        self.points, self.ids = self.points[keep], self.ids[keep]
        await super()._boot(freeze=False)
        addr = self.cluster.addrs[0]
        self.querier = ClusterClient()
        await self.querier.start()
        await self.querier.query(addr, *WHOLE)
        assert len(self.querier.walker.view.tiling()) == 8
        for i in (8, 9):
            joiner = NodeProcess(self.cluster._config(i, addr))
            await joiner.start()
            self.cluster.nodes.append(joiner)
        assert await self.client.wait_converged(self.cluster.addrs, poll=0.02)
        for node in self.nodes:
            node._stabilize_task.cancel()

    async def _shutdown(self) -> None:
        await self.querier.close()
        await super()._shutdown()


def test_only_a_rounds_first_solve_follows_not_owner(monkeypatch):
    """The client's view still tiles the ring as it was before two joins, so
    one round plans a solve at each joiner's successor for the joiner's arc.
    Both answer ``not_owner``; only the solve for the walk's current key
    follows the predecessor pointer, and a later one ends the round instead.
    The answers are exact."""
    r = TwoJoined(8, n_points=300, seed=21)
    try:
        events: list[tuple] = []
        plan = node_module.OwnerWalk.plan

        def planned(self, arc_of):
            events.append(("round",))
            return plan(self, arc_of)

        original = TcpTransport.rpc

        async def recording(self, dst_addr, kind, payload=None, **kw):
            reply = await original(self, dst_addr, kind, payload, **kw)
            if kind == "range_solve":
                events.append(("solve", id(payload), "not_owner" in reply))
            return reply

        monkeypatch.setattr(node_module.OwnerWalk, "plan", planned)
        monkeypatch.setattr(TcpTransport, "rpc", recording)
        addr = r.cluster.addrs[0]
        assert r.run(r.querier.query(addr, *WHOLE)).tolist() == r.brute_force(*WHOLE).tolist()
        for lows, highs in _rects(4, 20):
            got = r.run(r.querier.query(addr, lows, highs))
            assert got.tolist() == r.brute_force(lows, highs).tolist()

        chases_per_round, not_owner = [], 0
        for ev in events:
            if ev[0] == "round":
                chases_per_round.append(0)
                refused: set[int] = set()
                continue
            _, payload, refused_now = ev
            if payload in refused:
                chases_per_round[-1] += 1         # sent again after not_owner
            if refused_now:
                refused.add(payload)
                not_owner += 1
        assert not_owner >= 2
        assert max(chases_per_round) == 1
        assert [e["id"] for e in r.querier.walker.view.tiling()] == r.ring_ids
    finally:
        r.close()


def test_a_node_the_view_names_is_stopped_and_forgotten(rpcs):
    """A query that runs into the dead node falls back to a lookup; an
    ``insert`` that does fails its ``route_insert`` (it may have been applied,
    so nothing is retried), and the next one places off a fresh snapshot."""
    r = Ring(8, n_points=300, seed=23, freeze=False)
    try:
        ids = r.ring_ids
        by_id = {n.id: n for n in r.nodes}
        at = ids.index(r.nodes[0].id)
        # x and y hold the dead node as neither predecessor nor first
        # successor, and stop stabilising: only what they are asked to do
        # can tell them it died
        x, y, dead = (by_id[ids[(at + d) % 8]] for d in (0, 2, 5))
        r.run(x.range_query(*WHOLE))
        r.run(y.ring_snapshot())
        for node in (x, y):
            assert dead.id in node.walker.view.arcs
            node._stabilize_task.cancel()
            node.fingers = {}
            node.transport.rpc_timeout = 0.3
        lost = set(dead.shard.shard.object_ids.tolist())
        r.run(r.cluster.stop_node(r.nodes.index(dead)))
        r.cluster.nodes.remove(dead)
        assert r.run(r.client.wait_converged(r.cluster.addrs, poll=0.02))

        def surviving(lows, highs):
            return [i for i in r.brute_force(lows, highs).tolist() if i not in lost]

        # a query that starts in the dead node's arc asks it first, off the view
        point = _point_at(dead.id, x.rotation)
        lows, highs = point - 1e-7, point + 1e-7
        del rpcs[:]
        assert r.query(x, lows, highs).tolist() == surviving(lows, highs)
        assert dead.id not in x.walker.view.arcs
        assert all(e["addr"] != dead.addr for _, e in x.walker.view.arcs.values())
        assert "lookup_step" in _kinds(rpcs)          # the timeout fell back to the ring

        # a batch y's view places on the dead node alone
        before = [n.shard.digest() for n in r.nodes]
        with pytest.raises(RpcTimeout):
            r.run(y.route_insert(lp_hash_batch(point[None], BOUNDS, M), point[None], [99_999]))
        assert dead.id not in y.walker.view.arcs and y.walker.view.tiling() is None
        assert [n.shard.digest() for n in r.nodes] == before
        del rpcs[:]
        _add(r, y, point[None])
        assert _kinds(rpcs).count("get_successor") == len(r.nodes) - 1

        assert lost and r.query(x, *WHOLE).tolist() == surviving(*WHOLE)
        assert [e["id"] for e in x.walker.view.tiling()] == r.ring_ids
    finally:
        r.close()


def test_a_client_pays_one_timeout_for_a_stopped_node_and_forgets_it(rpcs):
    """A warm client's view names a node that has since stopped.  The first
    query that needs it waits one ``rpc_timeout`` on it, forgets it, finds
    the owner by a lookup from the node it was handed and answers exactly;
    no later query sends it anything."""
    timeout = 0.3
    r = Ring(8, n_points=300, seed=23, freeze=False)
    try:
        client, entry = r.client, r.cluster.addrs[0]
        client.transport.rpc_timeout = timeout
        assert r.run(client.query(entry, *WHOLE)).tolist() == r.brute_force(*WHOLE).tolist()
        dead = r.nodes[3]
        assert client.walker.view.owner(dead.id)["addr"] == dead.addr
        lost = set(dead.shard.shard.object_ids.tolist())
        r.run(r.cluster.stop_node(3))
        r.cluster.nodes.remove(dead)
        assert r.run(client.wait_converged(r.cluster.addrs, poll=0.02))

        def surviving(lows, highs):
            return [i for i in r.brute_force(lows, highs).tolist() if i not in lost]

        point = _point_at(dead.id, dead.rotation)
        lows, highs = point - 1e-7, point + 1e-7
        del rpcs[:]
        t0 = r.loop.time()
        assert r.run(client.query(entry, lows, highs)).tolist() == surviving(lows, highs)
        elapsed = r.loop.time() - t0
        sent = [rec for rec in rpcs if rec[0] == client.transport.addr]
        assert [(rec[1], rec[2]) for rec in sent if isinstance(rec[3], RpcTimeout)] == [
            (dead.addr, "range_solve")]
        assert "lookup_step" in _kinds(sent)
        assert timeout <= elapsed < 2 * timeout
        assert all(e["addr"] != dead.addr for _, e in client.walker.view.arcs.values())

        del rpcs[:]
        assert lost and r.run(client.query(entry, *WHOLE)).tolist() == surviving(*WHOLE)
        assert dead.addr not in {rec[1] for rec in rpcs if rec[0] == client.transport.addr}
    finally:
        r.close()


def test_a_client_reaches_a_node_that_came_back_on_a_new_port(rpcs):
    """A warm client's view names a node that has since stopped and come back
    under its old id on a new port.  The statuses the client read while the
    ring converged said where: the query whose first owner is that node
    dials the new address, waits on no timeout and answers exactly."""
    r = Ring(8, n_points=300, seed=29, freeze=False)
    try:
        client, entry = r.client, r.cluster.addrs[0]
        assert r.run(client.query(entry, *WHOLE)).tolist() == r.brute_force(*WHOLE).tolist()
        old = r.nodes[3]
        assert client.walker.view.owner(old.id)["addr"] == old.addr
        r.run(r.cluster.stop_node(3))
        new_addr = r.run(r.cluster.restart_node(3))
        assert r.nodes[3].id == old.id and new_addr != old.addr
        assert r.run(client.wait_converged(r.cluster.addrs, poll=0.02))
        assert client.walker.view.owner(old.id)["addr"] == new_addr

        point = _point_at(old.id, old.rotation)
        lows, highs = point - 1e-7, point + 1e-7
        del rpcs[:]
        t0 = r.loop.time()
        assert r.run(client.query(entry, lows, highs)).tolist() == r.brute_force(lows, highs).tolist()
        assert r.loop.time() - t0 < client.transport.rpc_timeout
        sent = [rec for rec in rpcs if rec[0] == client.transport.addr]
        assert [(rec[1], rec[2]) for rec in sent] == [(new_addr, "range_solve")]
        assert r.run(client.query(entry, *WHOLE)).tolist() == r.brute_force(*WHOLE).tolist()
        assert old.addr not in {rec[1] for rec in rpcs if rec[0] == client.transport.addr}
    finally:
        r.close()
