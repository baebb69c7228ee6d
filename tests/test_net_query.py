"""Live range queries and lookups: exact answers from a pruned owner walk.

In-process :class:`LocalCluster` rings over loopback TCP, every answer
compared with a brute-force scan of the inserted points.  The rings are
*frozen* once converged (stabilisation cancelled) so that a test can break a
node's view by hand and have it stay broken for the length of a query; the
finger-routing tests at the bottom keep their ring alive, but for the hop
bound, which holds of settled finger tables.
"""

from __future__ import annotations

import asyncio
import bisect
import inspect
import math
import re

import numpy as np
import pytest

import repro.dht.maintenance as maintenance
import repro.net.cluster as cluster_module
import repro.net.node as node_module
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import key_to_cuboid, lp_hash_batch, smallest_enclosing_prefix
from repro.net.cluster import ClusterClient, LocalCluster
from repro.net.node import NodeProcess, RingWalker
from repro.net.transport import RpcError, TcpTransport
from tests.test_core_lph import _some_key_meets

M = 32
K = 2
SIZE = 1 << M
BOUNDS = IndexSpaceBounds.uniform(K, 0.0, 1000.0)

pytestmark = pytest.mark.timeout(60)

#: seconds a coroutine :meth:`Ring.run` drives may take before its test fails
RUN_TIMEOUT = 60.0


async def _bounded(coro):
    # asyncio.timeout, not wait_for: on Python 3.11 wait_for runs the
    # coroutine in a task of its own, which Ring._shutdown would cancel
    async with asyncio.timeout(RUN_TIMEOUT):
        return await coro


class Ring:
    """A loaded ``LocalCluster`` on an event loop of its own."""

    def __init__(self, n_nodes: int, n_points: int = 800, seed: int = 0,
                 freeze: bool = True) -> None:
        self.loop = asyncio.new_event_loop()
        self.cluster = LocalCluster(n_nodes, m=M, k=K)
        self.client = ClusterClient()
        rng = np.random.default_rng(seed)
        self.points = rng.uniform(0.0, 1000.0, size=(n_points, K))
        # some points exactly on split planes, where the tie rule decides the key
        self.points[:40] = rng.choice([0.0, 250.0, 500.0, 625.0, 750.0, 1000.0], size=(40, K))
        self.ids = np.arange(n_points, dtype=np.int64)
        try:
            self.run(self._boot(freeze))
        except BaseException:
            self.close()
            raise

    async def _boot(self, freeze: bool) -> None:
        addrs = await self.cluster.start()
        await self.client.start()
        assert await self.client.wait_converged(addrs, poll=0.02)
        keys = lp_hash_batch(self.points, BOUNDS, M)
        assert await self.client.insert(addrs[0], keys, self.points, self.ids) == len(self.ids)
        if freeze:
            await self.settle_fingers()
            for node in self.nodes:
                node._stabilize_task.cancel()

    def run(self, coro):
        """Drive ``coro`` on the ring's loop: one that hangs (a round whose
        replies never all come) fails its test after :data:`RUN_TIMEOUT`
        seconds instead of stalling the suite."""
        return self.loop.run_until_complete(_bounded(coro))

    def close(self) -> None:
        self.run(self._shutdown())
        self.run(self.loop.shutdown_asyncgens())
        self.loop.close()

    async def _shutdown(self) -> None:
        await self.client.close()
        await self.cluster.close()
        # as asyncio.run does: let what close() cancelled finish unwinding
        leftover = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in leftover:
            task.cancel()
        await asyncio.gather(*leftover, return_exceptions=True)

    @property
    def nodes(self) -> list[NodeProcess]:
        return self.cluster.nodes

    @property
    def ring_ids(self) -> list[int]:
        return sorted(node.id for node in self.nodes)

    def true_successor(self, target: int) -> int:
        ids = self.ring_ids
        return ids[bisect.bisect_left(ids, target % SIZE) % len(ids)]

    def fingers_settled(self) -> bool:
        for node in self.nodes:
            # starts up to the successor are not held; a node alone holds none
            first = ((self.true_successor(node.id + 1) - node.id) % SIZE or SIZE).bit_length()
            for i in range(first, M):
                entry = node.fingers.get(i)
                if entry is None or entry["id"] != self.true_successor(node.id + (1 << i)):
                    return False
        return True

    async def settle_fingers(self, timeout: float = 20.0) -> None:
        deadline = self.loop.time() + timeout
        while not self.fingers_settled():
            assert self.loop.time() < deadline, "finger tables did not settle"
            await asyncio.sleep(0.02)

    def brute_force(self, lows, highs) -> np.ndarray:
        mask = np.all((self.points >= lows) & (self.points <= highs), axis=1)
        return np.sort(self.ids[mask])

    def query(self, node: NodeProcess, lows, highs) -> np.ndarray:
        return self.run(node.range_query(np.asarray(lows, float), np.asarray(highs, float)))


@pytest.fixture(scope="module")
def frozen_rings():
    """Frozen rings by size, booted once per module; tests leave them as found."""
    rings: dict[int, Ring] = {}

    def get(n_nodes: int) -> Ring:
        if n_nodes not in rings:
            rings[n_nodes] = Ring(n_nodes)
        return rings[n_nodes]

    yield get
    for r in rings.values():
        r.close()


@pytest.fixture(params=[1, 2, 3, 16], ids=lambda n: f"{n}-nodes")
def ring(request, frozen_rings):
    return frozen_rings(request.param)


@pytest.fixture
def ring16(frozen_rings):
    return frozen_rings(16)


@pytest.fixture
def ring3():
    r = Ring(3, n_points=200, seed=2)
    yield r
    r.close()


@pytest.fixture
def rpc_log(monkeypatch):
    """Every RPC of the process as ``(src_addr, dst_addr, kind, payload, reply)``."""
    log: list[tuple] = []
    original = TcpTransport.rpc

    async def recording(self, dst_addr, kind, payload=None, **kw):
        reply = await original(self, dst_addr, kind, payload, **kw)
        log.append((self.addr, dst_addr, kind, payload, reply))
        return reply

    monkeypatch.setattr(TcpTransport, "rpc", recording)
    return log


def wrapping_rect(rotation: int) -> tuple[np.ndarray, np.ndarray]:
    """A small rectangle whose enclosing cuboid's rotated arc wraps past 0."""
    lo, hi = key_to_cuboid((-rotation) % SIZE, BOUNDS, M)
    centre = (lo + hi) / 2.0
    lows, highs = np.clip(centre - 40.0, 0.0, 1000.0), np.clip(centre + 40.0, 0.0, 1000.0)
    prefix_key, depth = smallest_enclosing_prefix(lows, highs, BOUNDS, M)
    assert 0 < depth
    rot_lo = (prefix_key + rotation) % SIZE
    assert rot_lo + (1 << (M - depth)) - 1 >= SIZE, "arc does not wrap"
    return lows, highs


def rect_inside_one_arc(r: Ring) -> tuple[np.ndarray, np.ndarray]:
    """A sliver around a stored point that lies well inside its owner's arc."""
    point = r.points[100]
    return point - 1e-7, point + 1e-7


def rects_for(r: Ring) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.default_rng(7)
    out = [
        (np.array([0.0, 0.0]), np.array([1000.0, 1000.0])),        # whole space, prefix_len 0
        (np.array([500.0, 250.0]), np.array([750.0, 500.0])),      # every edge on a split plane
        (np.array([500.0, 0.0]), np.array([500.0, 1000.0])),       # zero width, on the first plane
        (np.array([250.0, 625.0]), np.array([250.0, 625.0])),      # a point on two planes
        (np.array([499.0, 499.0]), np.array([501.0, 501.0])),      # small, yet prefix_len 0
        wrapping_rect(r.nodes[0].rotation),
        rect_inside_one_arc(r),
    ]
    for _ in range(5):
        centre = rng.uniform(100.0, 900.0, size=K)
        half = rng.uniform(10.0, 200.0, size=K)
        out.append((centre - half, centre + half))
    return out


# -- exactness ----------------------------------------------------------------------


def test_exact_answers_from_every_entry_node(ring):
    for lows, highs in rects_for(ring):
        want = ring.brute_force(lows, highs)
        for node in ring.nodes:
            got = ring.query(node, lows, highs)
            assert got.dtype == np.int64
            assert got.tolist() == want.tolist()
    # the scan itself is not vacuous
    assert len(ring.brute_force(*rects_for(ring)[0])) == len(ring.ids)
    assert len(ring.brute_force(*rect_inside_one_arc(ring))) == 1


def test_client_query_is_sorted_unique_int64(ring):
    lows, highs = np.array([100.0, 100.0]), np.array([900.0, 600.0])
    got = ring.run(ring.client.query(ring.cluster.addrs[-1], lows, highs))
    assert got.dtype == np.int64
    assert got.tolist() == ring.brute_force(lows, highs).tolist()


def test_empty_and_inverted_rectangles_answer_empty(ring3):
    node = ring3.nodes[1]
    assert ring3.query(node, [10.0, 10.0], [10.0 + 1e-9, 10.0 + 1e-9]).tolist() == []
    assert ring3.query(node, [600.0, 600.0], [400.0, 700.0]).tolist() == []


@pytest.mark.parametrize("lows, highs", [
    ([100.0, 100.0], [900.0, math.nan]),
    ([math.nan, 100.0], [900.0, 900.0]),
    ([100.0, 600.0], [900.0, 400.0]),
], ids=["nan-high", "nan-low", "inverted"])
def test_a_rectangle_that_holds_no_point_asks_no_owner(ring16, rpc_log, lows, highs):
    """No point lies in a rectangle with a NaN coordinate or with ``lows >
    highs`` in a dimension: a node and a client answer it empty without a
    ``range_solve`` (a NaN at the high end used to walk all 16 owners, an
    inverted rectangle to ask one)."""
    node, addr = ring16.nodes[2], ring16.cluster.addrs[5]
    for query in (lambda: ring16.query(node, lows, highs),
                  lambda: ring16.run(ring16.client.query(addr, lows, highs))):
        del rpc_log[:]
        got = query()
        assert got.dtype == np.int64 and got.tolist() == []
        assert "range_solve" not in [rec[2] for rec in rpc_log]


# -- no ring walk -------------------------------------------------------------------


def test_range_query_never_takes_a_ring_snapshot(ring16, monkeypatch):
    async def boom(self):
        raise AssertionError("range_query walked the ring")

    monkeypatch.setattr(NodeProcess, "ring_snapshot", boom)
    lows, highs = np.array([200.0, 300.0]), np.array([700.0, 800.0])
    for node in ring16.nodes[::5]:
        assert ring16.query(node, lows, highs).tolist() == ring16.brute_force(lows, highs).tolist()


def test_query_path_source_has_no_snapshot_call_and_tracer_targets_resolve():
    for name in ("range_query", "_solve_at_owner", "_solve_from", "find_successor"):
        assert "ring_snapshot" not in inspect.getsource(getattr(RingWalker, name))
    assert "ring_snapshot" not in inspect.getsource(NodeProcess.range_query)
    # one owner walk, which nodes and clients share, and one iterative
    # lookup: the maintenance step's, which they and the simulator drive
    source = "".join(inspect.getsource(m) for m in (node_module, cluster_module))
    assert len(re.findall(r"\bOwnerWalk\(", source)) == 1
    assert len(re.findall(r'\.rpc\([^)]*"range_solve"', source)) == 1
    assert '"lookup_step", {' not in source
    assert len(re.findall(r'"lookup_step", \{"target"', inspect.getsource(maintenance))) == 1
    # the ledger tracer patches these through the class's own namespace
    for name in ("range_query", "ring_snapshot", "route_insert"):
        assert name in NodeProcess.__dict__
    for name in ("wait_converged", "insert"):
        assert name in ClusterClient.__dict__


# -- pruning ------------------------------------------------------------------------


def _arc_owner_count(ring_ids: list[int], rot_lo: int, arc_len: int) -> int:
    """How many ring members own a piece of the arc of ``arc_len + 1`` ring
    positions starting at ``rot_lo`` — whom a fan-out to the whole enclosing
    cuboid would contact."""
    n = len(ring_ids)
    i = bisect.bisect_left(ring_ids, rot_lo) % n
    for count in range(1, n + 1):
        if (ring_ids[i] - rot_lo) % SIZE >= arc_len:
            return count
        i = (i + 1) % n
    return n


def test_only_owners_that_can_hold_a_match_are_visited(ring16, rpc_log):
    ids = ring16.ring_ids
    by_addr = {node.addr: node for node in ring16.nodes}
    rotation = ring16.nodes[0].rotation
    rng = np.random.default_rng(11)
    rects = rects_for(ring16)
    for _ in range(20):
        centre = rng.uniform(150.0, 850.0, size=K)
        rects.append((centre - 150.0, centre + 150.0))
    pruned = 0
    for q, (lows, highs) in enumerate(rects):
        del rpc_log[:]
        node = ring16.nodes[q % 16]
        assert ring16.query(node, lows, highs).tolist() == ring16.brute_force(lows, highs).tolist()
        solves = [rec for rec in rpc_log if rec[2] == "range_solve"]
        prefix_key, depth = smallest_enclosing_prefix(lows, highs, BOUNDS, M)
        arc_len = (1 << (M - depth)) - 1
        fan_out = _arc_owner_count(ids, (prefix_key + rotation) % SIZE, arc_len)
        assert 1 <= len(solves) <= fan_out
        pruned += fan_out - len(solves)
        for _, dst, _, _, reply in solves:
            assert "ids" in reply, "a converged ring needs no not_owner detour"
            owner = by_addr[dst]
            pred = ids[ids.index(owner.id) - 1]
            # the owner's arc (pred, id] in key space, cut where it wraps
            a, b = (pred + 1 - rotation) % SIZE, (owner.id - rotation) % SIZE
            pieces = [(a, b)] if a <= b else [(a, SIZE - 1), (0, b)]
            assert any(
                _some_key_meets(
                    max(lo, prefix_key), min(hi, prefix_key + arc_len), lows, highs, BOUNDS, M)
                for lo, hi in pieces
            )
    assert pruned > 0


def test_rect_inside_one_arc_costs_one_solve(ring16, rpc_log):
    lows, highs = rect_inside_one_arc(ring16)
    ring16.query(ring16.nodes[3], lows, highs)
    assert [rec[2] for rec in rpc_log].count("range_solve") == 1


# -- stale views are corrected by the owner, never trusted ---------------------------


def _neighbours(r: Ring, node: NodeProcess) -> tuple[NodeProcess, NodeProcess]:
    by_id = {n.id: n for n in r.nodes}
    ids = r.ring_ids
    i = ids.index(node.id)
    return by_id[ids[i - 1]], by_id[ids[(i + 1) % len(ids)]]


@pytest.mark.parametrize("damage", ["skips_true_successor", "truncated"])
def test_stale_successor_list_still_gives_exact_answers(ring16, rpc_log, damage):
    """The seed-41 case: a successor list that misses a later joiner.  The
    node wrongly asked says ``not_owner`` and names its predecessor.  The
    walking node's view starts cold, so the lists in the owners' replies and
    the lookups are what name the owners."""
    whole = (np.array([0.0, 0.0]), np.array([1000.0, 1000.0]))
    want = ring16.brute_force(*whole).tolist()
    saved = [(n, list(n.successors), dict(n.fingers)) for n in ring16.nodes]
    try:
        for node in ring16.nodes:
            node.fingers.clear()
            node.successors = node.successors[1:] if damage == "skips_true_successor" \
                else node.successors[:1]
        for node in ring16.nodes[::3]:
            node.walker.view.clear()
            del rpc_log[:]
            assert ring16.query(node, *whole).tolist() == want
            refused = [rec for rec in rpc_log if rec[2] == "range_solve" and "ids" not in rec[4]]
            if damage == "skips_true_successor":
                assert refused and all(rec[4]["not_owner"] for rec in refused)
    finally:
        for node, successors, fingers in saved:
            node.successors, node.fingers = successors, fingers


def test_unknown_predecessor_fails_the_query_instead_of_claiming_the_arc(ring3):
    whole = (np.array([0.0, 0.0]), np.array([1000.0, 1000.0]))
    victim = ring3.nodes[1]
    victim.predecessor = None
    for node in ring3.nodes:
        with pytest.raises(RpcError, match="predecessor unknown"):
            ring3.query(node, *whole)
    with pytest.raises(RpcError, match="predecessor unknown"):
        ring3.run(ring3.client.query(ring3.cluster.addrs[0], *whole))
    # a rectangle none of whose keys the victim owns is still answered
    pred, _ = _neighbours(ring3, victim)
    keys = lp_hash_batch(ring3.points, BOUNDS, M)
    point = next(ring3.points[i] for i in range(40, len(keys))   # past the on-plane points
                 if ring3.true_successor(int(keys[i]) + victim.rotation) == pred.id)
    got = ring3.query(ring3.nodes[0], point - 1e-7, point + 1e-7)
    assert got.tolist() == ring3.brute_force(point - 1e-7, point + 1e-7).tolist() != []


def test_predecessor_pointers_that_lead_nowhere_end_in_rpc_error(ring3, monkeypatch, rpc_log):
    monkeypatch.setattr(node_module, "MAX_ROUTE_HOPS", 6)
    a, b, c = sorted(ring3.nodes, key=lambda n: n.id)
    # b and c each believe the other sits right behind them: each owns its
    # own id only and sends every other key on to the other
    b.predecessor = {**c.entry(), "id": b.id - 1}
    c.predecessor = {**b.entry(), "id": c.id - 1}
    key = (b.id + 5 - b.rotation) % SIZE
    payload = {"lows": np.zeros(K), "highs": np.full(K, 1000.0), "key_lo": key, "key_hi": key}
    with pytest.raises(RpcError, match="predecessor pointers"):
        ring3.run(a.walker._solve_from(b.entry(), payload, chase=True))
    assert [rec[2] for rec in rpc_log] == ["range_solve"] * 6


def test_dead_hint_falls_back_to_a_lookup(ring3):
    """A hinted owner that does not answer is forgotten and the ring asked."""
    node = ring3.nodes[0]
    node.transport.rpc_timeout = 0.3
    _, succ = _neighbours(ring3, node)
    ghost = {"id": succ.id, "addr": "127.0.0.1:9", "name": "ghost"}
    ring3.run(node.ring_snapshot())
    node.walker.view.fill([node.entry(), ghost])  # the successor's arc, at a dead address
    assert ghost in node.walker.view.tiling()
    whole = (np.array([0.0, 0.0]), np.array([1000.0, 1000.0]))
    assert ring3.query(node, *whole).tolist() == ring3.brute_force(*whole).tolist()
    assert all(entry["addr"] != ghost["addr"] for _, entry in node.walker.view.arcs.values())


# -- malformed requests surface as errors --------------------------------------------


@pytest.mark.parametrize("payload", [
    None,
    {"lows": np.zeros(K), "highs": np.ones(K)},                       # no keys
    {"lows": np.zeros(K + 1), "highs": np.ones(K + 1), "key_lo": ...,  "key_hi": ...},
    {"lows": np.zeros((K, 1)), "highs": np.ones(K), "key_lo": ..., "key_hi": ...},
    {"lows": np.zeros(K), "highs": np.ones(K), "key_lo": "first", "key_hi": ...},
    {"lows": np.zeros(K), "highs": np.ones(K), "key_lo": [1, 2], "key_hi": ...},
    {"lows": np.zeros(K), "highs": np.ones(K), "key_lo": ..., "key_hi": None},
], ids=["none", "no-keys", "wrong-k", "wrong-rank", "str-key", "list-key", "none-key"])
def test_malformed_range_solve_is_an_rpc_error_not_a_hang(ring, payload):
    for node in ring.nodes[:2]:
        # ``...`` stands for a key the node owns: its own id, unrotated
        own = (node.id - node.rotation) % SIZE
        sent = payload and {k: own if v is ... else v for k, v in payload.items()}
        with pytest.raises(RpcError):
            ring.run(ring.client.transport.rpc(node.addr, "range_solve", sent, timeout=5.0))
        good = {"lows": np.zeros(K), "highs": np.ones(K), "key_lo": own, "key_hi": own}
        assert "ids" in ring.run(ring.client.transport.rpc(node.addr, "range_solve", good))


def test_malformed_query_is_an_rpc_error(ring):
    with pytest.raises(RpcError):
        ring.run(ring.client.query(ring.cluster.addrs[0], np.zeros(K + 1), np.ones(K + 1)))
    with pytest.raises(RpcError):
        ring.run(ring.client.query(ring.cluster.addrs[0], np.zeros(1), np.ones(1)))


# -- finger routing -----------------------------------------------------------------


@pytest.fixture(scope="module")
def ring32():
    r = Ring(32, n_points=64, seed=3, freeze=False)
    r.run(r.settle_fingers())
    yield r
    r.close()


def _find_successor(node: NodeProcess, target: int) -> dict:
    """A lookup that starts at ``node``'s own table, as its finger refresh
    runs one."""
    return node_module._drive(node.transport, maintenance.lookup(
        node.m, target, node.lookup_step(target), node.drop))


def _lookups(r: Ring, rpc_log: list, n: int, seed: int) -> int:
    """``n`` random lookups from random nodes, each checked against the true
    ring successor; returns the largest number of RPC hops one of them took."""
    rng = np.random.default_rng(seed)
    worst = 0
    for _ in range(n):
        node = r.nodes[int(rng.integers(len(r.nodes)))]
        target = int(rng.integers(SIZE))
        del rpc_log[:]
        owner = r.run(_find_successor(node, target))
        assert owner["id"] == r.true_successor(target)
        hops = [rec for rec in rpc_log if rec[0] == node.addr and rec[2] == "lookup_step"]
        worst = max(worst, len(hops))
    return worst


def test_finger_routed_lookups_are_exact_and_logarithmic(frozen_rings, rpc_log):
    # frozen: the bound is a property of settled finger tables, and a finger
    # refreshed mid-lookup by a stabilise round on the same loop can cost a hop
    assert _lookups(frozen_rings(32), rpc_log, 200, seed=5) <= math.ceil(math.log2(32)) + 2


def test_lookups_without_fingers_walk_successor_lists_and_stay_exact(ring32, rpc_log):
    saved = [(node, dict(node.fingers)) for node in ring32.nodes]
    try:
        for node in ring32.nodes:
            node.fingers.clear()
        # fingers come back one a round: the walk is longer, never wrong
        _lookups(ring32, rpc_log, 60, seed=6)
    finally:
        for node, fingers in saved:
            node.fingers.update(fingers)


def test_join_through_bootstrap_iterates_from_the_joiner(ring32, rpc_log):
    """``lookup_step`` is a leaf handler: the bootstrap node never calls out
    on the joiner's behalf, the joiner follows the hops itself."""
    async def join():
        node = NodeProcess(ring32.cluster._config(99, ring32.cluster.addrs[7]))
        node.addr = await node.transport.start()
        try:
            await node._join()   # no stabilise loop: the ring never hears of it
            return node
        finally:
            await node.close()

    joiner = ring32.run(join())
    assert joiner.successor["id"] == ring32.true_successor(joiner.id)
    asked = [rec[2] for rec in rpc_log if rec[0] == joiner.addr]
    assert asked and set(asked) == {"lookup_step"}
    assert all(rec[2] != "find_successor" for rec in rpc_log)


def test_convergence_and_queries_need_no_finger(monkeypatch):
    def no_fingers(self):
        yield from ()

    monkeypatch.setattr(NodeProcess, "fix_finger", no_fingers)
    r = Ring(5, n_points=200, seed=9, freeze=False)   # boot asserts wait_converged
    try:
        assert all(not node.fingers for node in r.nodes)
        for lows, highs in rects_for(r)[:6]:
            for node in r.nodes:
                assert r.query(node, lows, highs).tolist() == r.brute_force(lows, highs).tolist()
    finally:
        r.close()


def test_dead_finger_is_dropped_and_lookups_recover(rpc_log):
    r = Ring(32, n_points=64, seed=4, freeze=False)
    try:
        r.run(r.settle_fingers())
        for node in r.nodes:
            node.transport.rpc_timeout = 0.25
        fingered = {e["addr"] for node in r.nodes for e in node.fingers.values()}
        victim = next(i for i, node in enumerate(r.nodes) if node.addr in fingered)
        dead = r.nodes[victim]
        held = [(node, i) for node in r.nodes if node is not dead
                for i, e in node.fingers.items() if e["addr"] == dead.addr]
        r.run(r.cluster.stop_node(victim))
        del r.cluster.nodes[victim]
        assert r.run(r.client.wait_converged(r.cluster.addrs, poll=0.02))
        # a target just past the dead node: a finger at it is the closest
        # preceding node, so the lookup runs into it first
        target = (dead.id + 1) % SIZE
        for node, i in held:
            node.fingers[i] = dead.entry()   # whether or not a refresh found out already
            owner = r.run(_find_successor(node, target))
            assert owner["id"] == r.true_successor(target) != dead.id
            assert all(e["addr"] != dead.addr for e in node.fingers.values())
        _lookups(r, rpc_log, 50, seed=8)
    finally:
        r.close()
