"""What a peer supplies is checked before a live node acts on it.

Frames and envelopes are covered by ``test_net_codec`` / ``test_net_transport``;
here the bytes decode and the *payload* is wrong: a reply, a ``notify`` or a
``splice`` that is no ring entry, every RPC kind fed shapes its handler does
not expect, an owner that reports an arc it was not asked about, ids that
are no integer array or ring entries that are none, a status reply with no
usable index, a batch placed on a node that does not own its keys, and an
insert reply whose ``accepted`` is no count of the batch sent.  The
node answers with a structured :class:`RpcError`, keeps its stabilise task,
its shard and its ring, and goes on answering exactly; a querying peer —
node or client — fails the query with an :class:`RpcError` and answers the
next one exactly.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections.abc import Callable
from functools import partial
from typing import Any

import numpy as np
import pytest

from repro.dht.idspace import rotate_keys
from repro.net.cluster import ClusterClient
from repro.net.node import NodeConfig, NodeProcess
from repro.net.transport import RpcError, RpcTimeout, TcpTransport
from tests.test_net_query import SIZE, K, M, Ring

pytestmark = pytest.mark.timeout(60)

WHOLE = (np.zeros(K), np.full(K, 1000.0))


def _config(tmp_path, name: str, bootstrap: str | None = None) -> NodeConfig:
    return NodeConfig(name=name, data_dir=str(tmp_path / name), bootstrap=bootstrap,
                      stabilize_interval=0.02, rpc_timeout=0.2)


# -- ring entries --------------------------------------------------------------------


def test_stabilise_survives_a_predecessor_reply_without_id(tmp_path):
    """A successor that answers ``get_predecessor`` with ``{"addr": …}`` costs
    rounds, not the stabilise task; once it is gone the node converges again."""

    async def scenario() -> None:
        bad = TcpTransport(node_id=1)
        await bad.start()
        me = {"id": 1, "addr": bad.addr}
        asked: list[Any] = []
        bad.register_rpc("lookup_step", lambda payload, src: {"owner": me})
        bad.register_rpc("get_predecessor",
                         lambda payload, src: asked.append(1) or {"addr": "127.0.0.1:1"})
        a = NodeProcess(_config(tmp_path, "a", bootstrap=bad.addr))
        client = ClusterClient()
        b = None
        try:
            await a.start()
            await client.start()
            assert a.successor["addr"] == bad.addr
            await asyncio.sleep(0.3)
            assert len(asked) > 1, "the bad reply was never retried"
            assert not a._stabilize_task.done()
            await bad.close()
            while a.successor["addr"] != a.addr:  # the failure detector's job now
                await asyncio.sleep(0.02)
            b = NodeProcess(_config(tmp_path, "b", bootstrap=a.addr))
            await b.start()
            assert await client.wait_converged([a.addr, b.addr], timeout=10.0, poll=0.02)
            assert a.successor["addr"] == b.addr and a.predecessor["addr"] == b.addr
        finally:
            await client.close()
            await bad.close()
            await a.close()
            if b is not None:
                await b.close()

    asyncio.run(scenario())


def test_notify_without_addr_is_refused(tmp_path):
    async def scenario() -> None:
        node = NodeProcess(_config(tmp_path, "a"))
        client = ClusterClient()
        try:
            addr = await node.start()
            await client.start()
            with pytest.raises(RpcError, match="malformed ring entry") as err:
                await client.transport.rpc(addr, "notify", {"id": 7})
            assert not isinstance(err.value, RpcTimeout)
            assert node.predecessor is None
            assert not node._stabilize_task.done()
        finally:
            await client.close()
            await node.close()

    asyncio.run(scenario())


def test_invalid_entries_in_meta_json_are_dropped_at_boot(tmp_path):
    async def scenario() -> None:
        first = NodeProcess(_config(tmp_path, "a"))
        await first.start()
        await first.close()
        meta_path = tmp_path / "a" / "meta.json"
        meta = json.loads(meta_path.read_text())
        good = {"id": 5, "addr": "127.0.0.1:1", "name": "gone"}
        meta["successors"] = [{"addr": "127.0.0.1:2"}, good, "x", {"id": -1, "addr": "y"}]
        meta["predecessor"] = {"id": "7", "addr": "127.0.0.1:3"}
        meta_path.write_text(json.dumps(meta))
        again = NodeProcess(_config(tmp_path, "a"))
        try:
            again._recover_overlay_state()
            assert again.successors == [good] and again.predecessor is None
            await again.start()  # nobody answers: a ring of one
            assert again.successor["addr"] == again.addr
        finally:
            await again.close()

    asyncio.run(scenario())


# -- hostile payloads at every RPC kind ----------------------------------------------

KINDS = ["ping", "get_successor", "get_successor_list", "get_predecessor", "notify",
         "splice", "lookup_step", "insert", "route_insert", "range_solve",
         "status", "snapshot"]
#: kinds a node no longer serves: a client walks its own queries now
RETIRED = ["query"]

HUGE = 2**70
PAYLOADS = {
    "none": None,
    "list": [],
    "dict": {},
    "missing-keys": {"keys": [1, 2], "lows": [0.0, 0.0], "key_lo": 0},
    "id-str": {"id": "seven", "addr": "127.0.0.1:1"},
    "id-only": {"id": 7},
    "target-str": {"target": "abc"},
    "key-lo-str": {"lows": [0.0, 0.0], "highs": [1000.0, 1000.0], "key_lo": "x", "key_hi": 5},
    "lengths": {"keys": [1, 2, 3], "points": [[1.0, 2.0]], "ids": [1, 2]},
    "huge": {"id": HUGE, "addr": "127.0.0.1:1", "target": HUGE, "key_lo": HUGE,
             "key_hi": HUGE, "lows": [0.0, 0.0], "highs": [1000.0, 1000.0],
             "keys": [HUGE], "points": [[1.0, 2.0]], "ids": [HUGE]},
    "nested": {"id": [[1]], "addr": [["a"]], "target": [[1]], "key_lo": [[1]],
               "key_hi": [[2]], "lows": [[0.0], [0.0]], "highs": [[[1.0]]],
               "keys": [[1, 2]], "points": [[[1.0, 2.0]]], "ids": [[1]]},
    # integer fields that are not an int in [0, 2**32): never truncated or wrapped
    "float": {"target": 1.5, "key_lo": 5.9, "key_hi": 7,
              "lows": [0.0, 0.0], "highs": [1000.0, 1000.0]},
    **{f"wraps{name}": {"target": key, "key_lo": key, "key_hi": key,
                        "lows": [0.0, 0.0], "highs": [1000.0, 1000.0]}
       for name, key in (("-32", 2**32 + 1), ("-70", HUGE + 1), ("-negative", -(2**32) + 1))},
    # range_solve's optional field and its rectangle as lists: each is refused
    **{f"tiled-{name}": {"lows": [0.0, 0.0], "highs": [1000.0, 1000.0], "key_lo": 5,
                         "key_hi": 7, "tiled": value}
       for name, value in (("str", "yes"), ("int", 1), ("none", None), ("list", [True]))},
    **{f"rect-{name}": {"lows": lows, "highs": highs, "key_lo": 5, "key_hi": 7}
       for name, lows, highs in (("bools", [False, False], [True, True]),
                                 ("strs", ["0", "0"], ["1000", "1000"]),
                                 ("mixed", [0.0, True], [1000.0, 1000.0]),
                                 ("short", [0.0], [1000.0]),
                                 ("none", None, [1000.0, 1000.0]))},
}


@pytest.fixture(scope="module")
def pair():
    ring = Ring(2, n_points=200, freeze=False)
    yield ring
    ring.close()


def test_every_registered_kind_is_swept(pair):
    assert sorted(pair.nodes[0].transport._rpc_handlers) == sorted(KINDS)


def _pointers(ring: Ring) -> list[tuple[Any, Any, int]]:
    return [(n.successors, n.predecessor, n.shard.digest()) for n in ring.nodes]


@pytest.mark.parametrize("shape", ["id-only", "id-str", "huge", "nested", "none"])
def test_splice_with_a_malformed_entry_is_an_rpc_error(pair, shape):
    before = _pointers(pair)
    with pytest.raises(RpcError, match="malformed ring entry") as err:
        pair.run(pair.client.transport.rpc(pair.nodes[0].addr, "splice", PAYLOADS[shape]))
    assert not isinstance(err.value, RpcTimeout)
    assert _pointers(pair) == before


def test_splice_from_outside_the_arc_to_the_successor_moves_nothing(pair):
    """A well-formed entry that does not lie strictly between the node and
    its successor — here one claiming the successor's id — is not adopted,
    and the reply does not name the node as its predecessor."""
    node = pair.nodes[0]
    before = _pointers(pair)
    impostor = {"id": node.successor["id"], "addr": "127.0.0.1:1"}
    assert pair.run(pair.client.transport.rpc(node.addr, "splice", impostor)) is None
    assert _pointers(pair) == before


@pytest.mark.parametrize("shape", PAYLOADS)
@pytest.mark.parametrize("kind", [*KINDS, *RETIRED])
def test_hostile_payload_is_answered_and_changes_nothing(pair, kind, shape):
    digests = [node.shard.digest() for node in pair.nodes]
    ring_before = [(n.successor["addr"], n.predecessor["addr"]) for n in pair.nodes]
    try:
        pair.run(pair.client.transport.rpc(pair.nodes[0].addr, kind, PAYLOADS[shape]))
        assert kind not in RETIRED
    except RpcError as refusal:
        assert not isinstance(refusal, RpcTimeout), "answered with silence"
        assert kind not in RETIRED or "no handler" in str(refusal)
    # no payload above is a well-formed batch or ring entry: nothing may stick
    assert [node.shard.digest() for node in pair.nodes] == digests
    assert [(n.successor["addr"], n.predecessor["addr"]) for n in pair.nodes] == ring_before
    assert not any(node._stabilize_task.done() for node in pair.nodes)
    lows, highs = np.array([100.0, 0.0]), np.array([900.0, 1000.0])
    got = pair.run(pair.client.query(pair.nodes[1].addr, lows, highs))
    assert np.sort(got).tolist() == pair.brute_force(lows, highs).tolist()


@pytest.mark.parametrize("shape", ["float", "wraps-32", "wraps-70", "wraps-negative"])
@pytest.mark.parametrize("kind", ["lookup_step", "range_solve"])
def test_a_key_that_is_no_int_on_the_ring_is_refused(pair, kind, shape):
    """``lookup_step`` used to answer a ``target`` of 1.5 as 1, and one past
    ``2**32`` (or below 0) as the key it wraps to; ``range_solve`` solved
    from ``key_lo: 5.9`` as from 5.  Each is refused; the same request with
    in-range integers is answered."""
    node = pair.nodes[0]
    with pytest.raises(RpcError, match="malformed (target|key_lo|key_hi)") as err:
        pair.run(pair.client.transport.rpc(node.addr, kind, PAYLOADS[shape]))
    assert not isinstance(err.value, RpcTimeout)
    keys = {"target": 1, "key_lo": 5, "key_hi": 7}
    assert isinstance(pair.run(pair.client.transport.rpc(
        node.addr, kind, {**PAYLOADS[shape], **keys})), dict)


@pytest.mark.parametrize("shape", [name for name in PAYLOADS
                                   if name.startswith(("tiled-", "rect-"))])
def test_a_range_solve_with_a_malformed_rectangle_or_tiled_is_refused(pair, shape):
    """The owner used to hand ``lows`` / ``highs`` to its shard as it found
    them, so ``["0", "0"]`` and ``[false, false]`` were read as numbers and
    answered; a ``tiled`` that is not a bool would have been read as one.
    Each is refused; the same request with two lists of ``k`` floats is
    answered."""
    node = pair.nodes[0]
    with pytest.raises(RpcError, match="malformed (rectangle|tiled)") as err:
        pair.run(pair.client.transport.rpc(node.addr, "range_solve", PAYLOADS[shape]))
    assert not isinstance(err.value, RpcTimeout)
    good = {**PAYLOADS[shape], "lows": [0.0, 0.0], "highs": [1000.0, 1000.0], "tiled": True}
    assert isinstance(pair.run(pair.client.transport.rpc(node.addr, "range_solve", good)), dict)


@pytest.mark.parametrize("lows", [
    np.array([0.0, 0.0], dtype=object), np.zeros((1, K)), np.zeros(K + 1),
    np.array([False, False]), np.array(["0", "0"]), [b"0", b"0"], [[0.0], [0.0]],
    [np.float64(0.0), 0.0], [2**1100, 0], "00", 0.0,
], ids=["object", "2-d", "k+1", "bool-array", "str-array", "bytes", "nested",
        "numpy-scalars", "int-past-float", "str", "scalar"])
def test_the_owner_reads_a_rectangle_as_k_numbers_or_refuses_it(pair, lows):
    """The rule itself, at the handler (so values the wire would not carry
    reach it too): a list of ``k`` ints and floats, or a 1-D int or float
    array of ``k``; anything else is "malformed rectangle"."""
    node = pair.nodes[0]
    request = {"lows": lows, "highs": [1000.0] * K, "key_lo": 5, "key_hi": 7}
    with pytest.raises(RpcError, match="malformed rectangle"):
        node._rpc_range_solve(request, {})
    for good in ([0, 0.0], np.zeros(K, dtype=np.int32), np.zeros(K, dtype=np.float32),
                 [-math.inf, -0.0], [math.nan, 5e-324]):
        assert isinstance(node._rpc_range_solve({**request, "lows": good}, {}), dict)


@pytest.mark.parametrize("lows, highs", [
    (["0", "0"], ["1000", "1000"]),
    ([False, False], [True, True]),
    ([b"1", b"2"], [b"3", b"4"]),
    (np.array([0, 0], dtype=object), np.array([1000, 1000], dtype=object)),
], ids=["strs", "bools", "bytes", "objects"])
def test_a_client_refuses_a_rectangle_that_is_not_numbers_before_sending_it(
        pair, monkeypatch, lows, highs):
    """``ClusterClient.query`` used to cast whatever it was handed to
    float64: ``["0", "0"]`` to ``["1000", "1000"]`` was walked and answered,
    against the rectangle rule of the deployment guide."""
    client, addr = pair.client, pair.nodes[1].addr
    assert len(pair.run(client.query(addr, *WHOLE))) == len(pair.ids)   # warm: index known
    sent: list[str] = []
    rpc = client.transport.rpc
    monkeypatch.setattr(client.transport, "rpc",
                        lambda dst, kind, payload=None, **kw: sent.append(kind) or rpc(
                            dst, kind, payload, **kw))
    with pytest.raises(RpcError, match="malformed rectangle"):
        pair.run(client.query(addr, lows, highs))
    assert sent == []


def _own_key(node: NodeProcess) -> int:
    return (node.id - node.rotation) % SIZE


def _owner_of(ring: Ring, key: int) -> NodeProcess:
    """The node whose arc holds ``key`` (read as uint64, as an insert used
    to cast it)."""
    rot = int(rotate_keys(np.array([key % 2**64], dtype=np.uint64), ring.nodes[0].rotation, M)[0])
    return next(n for n in ring.nodes if n.id == ring.true_successor(rot))


#: per malformed batch: what replaces the fields of a one-entry batch, and
#: the key an insert used to store it under (``None``: the first node's own)
MALFORMED_BATCHES = {
    "float-id-list": ({"ids": [1.5]}, None),
    "float-id": ({"ids": np.array([1.5])}, None),
    "bool-id-list": ({"ids": [True]}, None),
    "bool-id": ({"ids": np.array([True])}, None),
    "id-past-int64": ({"ids": np.array([2**63], dtype=np.uint64)}, None),
    "float-key-list": ({"keys": [5.7]}, 5),
    "float-key": ({"keys": np.array([5.7])}, 5),
    "negative-key": ({"keys": np.array([-1])}, 2**64 - 1),
    "key-past-m": ({"keys": np.array([SIZE + 5], dtype=np.uint64)}, SIZE + 5),
    "str-points-list": ({"points": [["1", "2"]]}, None),
    "str-points": ({"points": np.array([["1", "2"]])}, None),
    "bool-points-list": ({"points": [[True, 5.0]]}, None),
    "points-wrong-k": ({"points": np.full((1, K + 1), 5.0)}, None),
}


@pytest.mark.parametrize("kind", ["insert", "route_insert"])
@pytest.mark.parametrize("shape", MALFORMED_BATCHES)
def test_a_malformed_batch_is_refused_and_nothing_is_stored(trio, kind, shape):
    """Both RPCs used to cast a batch to uint64 keys, float64 points and
    int64 ids and store it: ``ids: [1.5]`` and ``[true]`` as object 1, key
    5.7 as 5, key -1 as ``2**64 - 1`` (outside the ring, so no query could
    return it), points ``[["1", "2"]]`` as floats.  Each is now refused —
    by the owner the cast key would have gone to, and by a coordinator —
    with nothing logged and nothing added."""
    override, stored_under = MALFORMED_BATCHES[shape]
    owner = trio.nodes[0] if stored_under is None else _owner_of(trio, stored_under)
    batch = {"keys": [_own_key(owner)], "points": [[5.0, 5.0]], "ids": [9001], **override}
    target = owner if kind == "insert" else trio.nodes[1]
    before = _state(trio)
    with pytest.raises(RpcError, match="malformed (keys|ids|points|batch)") as err:
        trio.run(trio.client.transport.rpc(target.addr, kind, batch))
    assert not isinstance(err.value, RpcTimeout)
    assert _state(trio) == before


@pytest.mark.parametrize("shape", [s for s in MALFORMED_BATCHES
                                   if s not in ("key-past-m", "points-wrong-k")])
def test_a_client_refuses_a_malformed_batch_before_sending_it(shape):
    """``ClusterClient.insert`` used to cast with ``np.asarray``: a float key
    was truncated before it left the client.  It refuses instead (the ring's
    ``m`` and ``k`` are the nodes' to enforce: a key past ``2**m`` or a row
    of the wrong width is refused there)."""
    async def scenario() -> None:
        fake = TcpTransport(node_id=1)
        await fake.start()
        sent: list[Any] = []
        fake.register_rpc("route_insert", lambda payload, src: sent.append(payload)
                          or {"accepted": 1})
        client = ClusterClient()
        override = MALFORMED_BATCHES[shape][0]
        batch = {"keys": [7], "points": [[5.0, 5.0]], "ids": [9001], **override}
        try:
            await client.start()
            with pytest.raises(RpcError, match="malformed (keys|ids|points)"):
                await client.insert(fake.addr, batch["keys"], batch["points"], batch["ids"])
            assert sent == []
            assert await client.insert(fake.addr, [7], [[5.0, 5.0]], [9001]) == 1  # the control
            assert len(sent) == 1
        finally:
            await client.close()
            await fake.close()

    asyncio.run(scenario())


# -- ownership is proved at both ends, never taken on trust --------------------------


@pytest.fixture(scope="module")
def trio():
    """A frozen 3-node ring; the tests below leave it as they found it."""
    ring = Ring(3, n_points=200, seed=4)
    yield ring
    ring.close()


def _state(ring: Ring) -> list[tuple[int, int, int]]:
    return [(n.shard.digest(), n.shard.wal_records, len(n.shard.shard)) for n in ring.nodes]


def _callers(ring: Ring) -> dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """Both drivers of the owner walk, by name: each node as the querying
    peer, and the client, whose lookups start at the first node."""
    callers = {node.config.name: partial(ring.query, node) for node in ring.nodes}
    callers["client"] = lambda lows, highs: ring.run(
        ring.client.query(ring.cluster.addrs[0], lows, highs))
    return callers


def _every_caller_refuses(ring: Ring, liar: Callable[[NodeProcess], Any], match: str) -> None:
    """With ``liar(node)`` answering ``range_solve`` at every node, a
    whole-space query is an :class:`RpcError` matching ``match`` from every
    caller; with the honest handlers back, every caller is exact again."""
    assert len(ring.brute_force(*WHOLE)) == len(ring.ids)
    for node in ring.nodes:
        node.transport.register_rpc("range_solve", liar(node))
    try:
        for query in _callers(ring).values():
            with pytest.raises(RpcError, match=match):
                query(*WHOLE)
    finally:
        for node in ring.nodes:
            node.transport.register_rpc("range_solve", node._rpc_range_solve)
    for caller, query in _callers(ring).items():
        assert query(*WHOLE).tolist() == ring.brute_force(*WHOLE).tolist(), caller


@pytest.mark.parametrize("arc", [
    lambda rot: [(rot - 2) % SIZE, (rot - 1) % SIZE],
    lambda rot: [(rot - 1) % SIZE, rot, rot],
    lambda rot: [str((rot - 1) % SIZE), str(rot)],
    lambda rot: None,
], ids=["far-farther", "three-ids", "strings", "none"])
def test_an_arc_that_does_not_hold_the_position_asked_is_an_rpc_error(trio, arc):
    """The walk counts keys as answered up to the id the owner reports: an
    owner reporting an arc it was not asked about used to end the walk early,
    with a silently short answer."""
    def liar(node):
        def range_solve(payload, src):
            rot = (int(payload["key_lo"]) + node.rotation) % SIZE
            return {"ids": np.empty(0, dtype=np.int64), "arc": arc(rot), "successors": []}
        return range_solve

    _every_caller_refuses(trio, liar, "bad arc")


@pytest.mark.parametrize("ids", [
    [1.5],
    np.array([1.5]),
    ["x"],
    np.array([[1]], dtype=np.int64),
    np.array([1], dtype=np.uint64),
    np.int64(1),
    None,
], ids=["float-list", "float-array", "strings", "2-d", "unsigned", "scalar", "none"])
def test_ids_that_are_not_a_1d_integer_array_are_an_rpc_error(trio, ids):
    """The walk used to concatenate whatever an owner sent as ``ids`` and
    cast the lot to int64: ``[1.5]`` put object 1 in the answer without a
    word, and strings escaped as a bare ``ValueError``."""
    def liar(node):
        def range_solve(payload, src):
            reply = node._rpc_range_solve(payload, src)
            return {**reply, "ids": ids} if "ids" in reply else reply
        return range_solve

    _every_caller_refuses(trio, liar, "ids not a 1-D integer array")


MALFORMED_ENTRIES = {
    "none": None,
    "no-id": {"addr": "127.0.0.1:1"},
    "str-id": {"id": "7", "addr": "127.0.0.1:1"},
    "huge-id": {"id": HUGE, "addr": "127.0.0.1:1"},
    "no-addr": {"id": 7},
}


@pytest.mark.parametrize("successors", [
    None, "x", {"id": 7, "addr": "127.0.0.1:1"}, *([e] for e in MALFORMED_ENTRIES.values()),
], ids=["none", "str", "dict", *(f"[{name}]" for name in MALFORMED_ENTRIES)])
def test_a_malformed_successor_list_is_an_rpc_error(trio, successors):
    """An owner's successor list feeds the walk's next hint and the view:
    it is held to the ring-entry check before either uses it."""
    def liar(node):
        def range_solve(payload, src):
            reply = node._rpc_range_solve(payload, src)
            return {**reply, "successors": successors} if "ids" in reply else reply
        return range_solve

    _every_caller_refuses(trio, liar, "malformed ring entry")


@pytest.mark.parametrize("pred", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
def test_a_malformed_not_owner_predecessor_is_an_rpc_error(trio, pred):
    """A node that is not the owner names its predecessor, and the walk asks
    that node next: the entry is checked before it is dialled."""
    def liar(node):
        def range_solve(payload, src):
            return {"not_owner": True, "predecessor": pred}
        return range_solve

    _every_caller_refuses(trio, liar, "malformed ring entry")


GOOD_INDEX = {"name": "index", "m": 32, "k": K, "bounds_low": 0.0, "bounds_high": 1000.0}


@pytest.mark.parametrize("status", [
    [],
    {"id": 1},
    {"index": None},
    {"index": {**GOOD_INDEX, "name": 7}},
    {"index": {**GOOD_INDEX, "m": "32"}},
    {"index": {**GOOD_INDEX, "m": True}},
    {"index": {**GOOD_INDEX, "m": 65}},
    {"index": {**GOOD_INDEX, "k": 0}},
    {"index": {**GOOD_INDEX, "k": 2**40}},
    {"index": {**GOOD_INDEX, "bounds_low": "0"}},
    {"index": {k: v for k, v in GOOD_INDEX.items() if k != "bounds_high"}},
    {"index": {**GOOD_INDEX, "bounds_low": 1000.0, "bounds_high": 0.0}},
    {"index": {**GOOD_INDEX, "bounds_low": 1e308, "bounds_high": 1.7e308}},
    {"index": {**GOOD_INDEX, "bounds_low": -1.5e308, "bounds_high": 1.5e308}},
], ids=["list", "no-index", "index-none", "name-int", "m-str", "m-bool", "m-65", "k-0",
        "k-huge", "low-str", "no-high", "low-above-high", "sum-overflows", "deep-sum-overflows"])
def test_a_malformed_index_in_a_status_reply_fails_the_query_before_any_owner_is_asked(status):
    """A client learns the index it walks from the first node it asks.  What
    the status reply says there is held to :func:`_is_index`: a malformed one
    is an :class:`RpcError`, and no lookup or solve is sent on its strength."""
    async def scenario() -> None:
        fake = TcpTransport(node_id=1)
        await fake.start()
        asked: list[str] = []
        reply = {"status": status}
        fake.register_rpc("status", lambda payload, src: asked.append("status") or reply["status"])
        for kind in ("lookup_step", "range_solve"):
            fake.register_rpc(kind, lambda payload, src, kind=kind: asked.append(kind))
        client = ClusterClient()
        try:
            await client.start()
            with pytest.raises(RpcError, match="malformed index") as err:
                await client.query(fake.addr, *WHOLE)
            assert not isinstance(err.value, RpcTimeout)
            assert asked == ["status"] and client.walker is None
            # the control: a well-formed index is read and walked on
            reply["status"] = {"index": GOOD_INDEX}
            with pytest.raises(RpcError, match="malformed lookup_step reply"):
                await client.query(fake.addr, *WHOLE)
            assert asked == ["status", "status", "lookup_step"]
        finally:
            await client.close()
            await fake.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("low, high", [(math.nan, 1000.0), (-math.inf, 1000.0),
                                       (1e308, 1.7e308)])
def test_a_node_refuses_bounds_that_collapse_algorithm_2(tmp_path, low, high):
    with pytest.raises(ValueError, match="magnitude"):
        NodeProcess(NodeConfig(name="n", data_dir=str(tmp_path / "n"),
                               bounds_low=low, bounds_high=high))


def test_insert_refuses_a_batch_holding_one_foreign_key(trio):
    node = trio.nodes[0]
    own = (node.id - node.rotation) % SIZE
    foreign = (node.predecessor["id"] - node.rotation) % SIZE  # the predecessor's own id
    before = _state(trio)
    payload = {"keys": np.array([own, foreign, own], dtype=np.uint64),
               "points": np.full((3, K), 5.0), "ids": np.array([9001, 9002, 9003])}
    with pytest.raises(RpcError, match="1 of 3 keys outside its arc"):
        trio.run(trio.client.transport.rpc(node.addr, "insert", payload))
    assert _state(trio) == before


def test_insert_with_no_predecessor_on_a_ring_of_several_is_refused(trio):
    node = trio.nodes[1]
    own = (node.id - node.rotation) % SIZE
    payload = {"keys": np.array([own], dtype=np.uint64),
               "points": np.full((1, K), 5.0), "ids": np.array([9001])}
    before = _state(trio)
    pred, node.predecessor = node.predecessor, None
    try:
        with pytest.raises(RpcError, match="predecessor unknown"):
            trio.run(trio.client.transport.rpc(node.addr, "insert", payload))
    finally:
        node.predecessor = pred
    assert _state(trio) == before


#: ``accepted`` replies to a two-entry batch that are no int in [0, 2]
MALFORMED_ACCEPTED = {
    "none": None, "dict": {}, "str": {"accepted": "x"}, "list": [1],
    "bool": {"accepted": True}, "float": {"accepted": 2.0},
    "negative": {"accepted": -1}, "too-many": {"accepted": 3},
}


def _two_entries_for(owner: NodeProcess) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (owner.id - owner.rotation) % SIZE
    return np.array([key, key], dtype=np.uint64), np.full((2, K), 5.0), np.array([9001, 9002])


@pytest.mark.parametrize("reply", MALFORMED_ACCEPTED.values(), ids=MALFORMED_ACCEPTED)
def test_a_malformed_insert_reply_is_an_rpc_error_at_the_coordinator(trio, reply):
    """``route_insert`` used to add up ``int(reply["accepted"])``: ``None``
    escaped as a ``TypeError``, ``"x"`` as a ``ValueError``, and ``True`` or
    ``3`` counted entries the owner never took."""
    coordinator, owner = trio.nodes[0], trio.nodes[2]
    before = _state(trio)
    owner.transport.register_rpc("insert", lambda payload, src: reply)
    try:
        with pytest.raises(RpcError, match="malformed accepted count"):
            trio.run(coordinator.route_insert(*_two_entries_for(owner)))
    finally:
        owner.transport.register_rpc("insert", owner._rpc_insert)
    assert _state(trio) == before


@pytest.mark.parametrize("reply", MALFORMED_ACCEPTED.values(), ids=MALFORMED_ACCEPTED)
def test_a_malformed_route_insert_reply_is_an_rpc_error_at_the_client(reply):
    async def scenario() -> None:
        fake = TcpTransport(node_id=1)
        await fake.start()
        answer = {"reply": reply}
        fake.register_rpc("route_insert", lambda payload, src: answer["reply"])
        client = ClusterClient()
        batch = (np.array([1, 2], dtype=np.uint64), np.full((2, K), 5.0), np.array([1, 2]))
        try:
            await client.start()
            with pytest.raises(RpcError, match="malformed accepted count") as err:
                await client.insert(fake.addr, *batch)
            assert not isinstance(err.value, RpcTimeout)
            answer["reply"] = {"accepted": 2}   # the control
            assert await client.insert(fake.addr, *batch) == 2
        finally:
            await client.close()
            await fake.close()

    asyncio.run(scenario())


def test_route_insert_off_a_stale_snapshot_names_the_refused_count(trio, monkeypatch):
    """A coordinator whose ring view and snapshot both miss a member places
    that member's keys on its successor — which refuses them, twice (once
    off the view, once off the fresh snapshot), instead of hiding them from
    every later query."""
    coordinator, missing = trio.nodes[0], trio.nodes[2]
    stale = sorted((n.entry() for n in trio.nodes if n is not missing), key=lambda e: e["id"])

    async def stale_snapshot():
        return stale

    monkeypatch.setattr(coordinator, "ring_snapshot", stale_snapshot)
    coordinator.walker.view.clear()
    coordinator.walker.view.fill([stale[-1], *stale])
    assert coordinator.walker.view.tiling() == stale
    batch = _two_entries_for(missing)
    before = _state(trio)
    try:
        with pytest.raises(RpcError, match="2 of 2 keys outside its arc"):
            trio.run(coordinator.route_insert(*batch))
        with pytest.raises(RpcError, match="2 of 2 keys outside its arc"):
            trio.run(trio.client.insert(coordinator.addr, *batch))
    finally:
        coordinator.walker.view.clear()
    assert _state(trio) == before
