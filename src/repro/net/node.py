"""A live DHT node: Chord-over-RPC on :class:`repro.net.transport.TcpTransport`.

One :class:`NodeProcess` hosts one overlay node — as an asyncio task inside a
test or :class:`~repro.net.cluster.LocalCluster`, or as an OS process via
``repro node``.  It reuses the repository's algorithm layers unchanged:

* the key space — :mod:`repro.dht.idspace` / :mod:`repro.dht.hashing`: the
  ``(pred, self]`` intervals, the rotation, the lookup step and the owner of
  each key of a batch are the functions the simulator's rings call, so
  lookups and placement agree with the simulated ring by construction;
* which key to ask about next and local solving —
  :class:`repro.core.query.OwnerWalk` (Algorithm 5's descent, the one the
  simulator's refinement runs) and :meth:`repro.core.storage.Shard.range_search`
  (the exact code path the simulator's query protocol executes per node);
* durability — :class:`repro.core.storage.PersistentShard`: every accepted
  insert batch is WAL-logged before it is acknowledged, and overlay state
  (successor list, predecessor) is checkpointed to ``meta.json``, so a
  SIGKILLed node restarts with a bit-identical shard and warm ring hints;
* Chord maintenance — :mod:`repro.dht.maintenance`, the sans-IO step the
  simulator runs too: a :class:`NodeProcess` *is* a ``ChordState``, answers
  the seven maintenance RPCs with its ``serve`` and drives its operations
  over RPC, an :class:`~repro.net.transport.RpcTimeout` being the failure
  detector.  :meth:`NodeProcess.start` joins and runs the first round, which
  splices the node in, so sequential joins leave a consistent ring.

A range query is SurrogateRefine driven from the querying peer
(:class:`RingWalker`, run the same way by :meth:`NodeProcess.range_query` and
by :meth:`repro.net.cluster.ClusterClient.query`): it walks only the owners whose
cuboids meet the rectangle, each of which proves its ownership before it
answers.  What the owners prove, the peer remembers in a bounded *ring view*
of hints (:class:`_RingView`), so a warm walk needs no lookup and asks every
owner at once, and a node's batch placement needs no ring walk;
:meth:`NodeProcess.ring_snapshot` refills a node's view when it does not
tile the ring, and serves ops — docs/deployment.md has the RPC surface and
the ownership contract.
"""

from __future__ import annotations

import asyncio
from bisect import bisect_left, insort
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.query import OwnerWalk
from repro.core.storage import PersistentShard, group_by_owner
from repro.dht.hashing import node_id, rotation_offset
from repro.dht.idspace import (
    in_interval_open,
    in_interval_open_closed,
    keys_in_interval_open_closed,
    owner_slot,
    owner_slots,
    rotate,
    rotate_keys,
)
from repro.dht.maintenance import (
    MAX_ROUTE_HOPS,
    ChordState,
    Op,
    ProtocolError,
    Unreachable,
    is_ring_entry,
    key_field,
    lookup,
    ring_entries,
    ring_entry,
)
from repro.net.transport import RpcError, RpcTimeout, TcpTransport
from repro.sim.transport import FaultConfig

__all__ = ["NodeConfig", "NodeProcess", "RingWalker", "MAX_ROUTE_HOPS", "RING_VIEW_CAP"]

#: most owners a ring view holds; learning one more clears it (a hint lost
#: costs a lookup or a snapshot, never an answer)
RING_VIEW_CAP = 4096

#: what an owner's refusal of an ``insert`` batch says; ``route_insert``
#: re-places a refused batch once, and nothing after any other error
_INSERT_REFUSED = "insert refused"


def accepted_count(reply: Any, batch: int) -> int:
    """The ``accepted`` of an ``insert`` or ``route_insert`` reply to a
    batch of ``batch`` entries: an int in ``[0, batch]``, else :class:`RpcError`."""
    value = reply.get("accepted") if isinstance(reply, dict) else None
    if type(value) is not int or not 0 <= value <= batch:
        raise RpcError(f"malformed accepted count: {str(reply)[:80]}")
    return value


#: what a list from the wire may hold as an integer, and as a real number
#: (by exact type: ``bool`` is an ``int``)
_INT = frozenset({int})
_REAL = frozenset({int, float})


def _ints(value: Any, name: str, lo: int, hi: int, dtype: type) -> np.ndarray:
    """``value`` — a list of ints or a 1-D integer array, each in ``[lo,
    hi]`` — as ``dtype``, else :class:`RpcError`: nothing is truncated or
    wrapped."""
    if isinstance(value, list):
        ok = _INT.issuperset(map(type, value)) and (
            not value or lo <= min(value) and max(value) <= hi)
    else:
        value = np.asarray(value)
        ok = (value.ndim == 1 and value.dtype.kind in "iu"
              and (value.size == 0 or lo <= value.min() and value.max() <= hi))
    if not ok:
        raise RpcError(f"malformed {name}: {str(value)[:80]}")
    return np.asarray(value, dtype=dtype)


def _reals(value: Any, name: str, ndim: int) -> np.ndarray:
    """``value`` — an int or float array, or a list (of lists, for ``ndim``
    2) of ints and floats — as float64 of rank ``ndim``, else
    :class:`RpcError`: no bool, string or ``None`` is read as a number."""
    if isinstance(value, list):
        ok = _REAL.issuperset(map(type, value)) if ndim == 1 else all(
            isinstance(row, list) and _REAL.issuperset(map(type, row)) for row in value)
    else:
        value = np.asarray(value)
        ok = value.dtype.kind in "iuf"
    try:
        array = np.asarray(value, dtype=np.float64) if ok else None
    except (ValueError, OverflowError):  # ragged rows; an int past float64
        array = None
    if array is None or array.ndim != ndim:
        raise RpcError(f"malformed {name}: {str(value)[:80]}")
    return array


def rectangle(lows: Any, highs: Any, k: int) -> tuple[np.ndarray, np.ndarray]:
    """A query rectangle held to the contract: ``lows`` and ``highs`` two
    vectors of ``k`` ints or floats (as :func:`_reals` reads them), as
    float64; else :class:`RpcError` "malformed rectangle"."""
    lows, highs = _reals(lows, "rectangle", 1), _reals(highs, "rectangle", 1)
    if lows.shape != (k,) or highs.shape != (k,):
        raise RpcError(f"malformed rectangle: lows {lows.shape}, highs {highs.shape}, "
                       f"the index has k = {k}")
    return lows, highs


def entry_batch(keys: Any, points: Any, object_ids: Any, m: int,
                k: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``insert`` batch held to the contract before anything acts on it:
    keys ints in ``[0, 2**m)`` (uint64), object ids ints that fit int64, and
    one row of ``k`` real numbers per key (float64; any width when ``k`` is
    ``None``).  Anything else is an :class:`RpcError`."""
    keys = _ints(keys, "keys", 0, (1 << m) - 1, np.uint64)
    object_ids = _ints(object_ids, "ids", -(1 << 63), (1 << 63) - 1, np.int64)
    points = _reals(points, "points", 2)
    if (len(object_ids) != len(keys) or len(points) != len(keys)
            or k is not None and points.shape[1] != k):
        raise RpcError(f"malformed batch: keys {keys.shape}, points {points.shape}, "
                       f"ids {object_ids.shape}, k = {k}")
    return keys, points, object_ids


async def _drive(transport: TcpTransport, op: Op) -> Any:
    """Run a maintenance operation, each request one ``transport.rpc``: an
    :class:`RpcTimeout` goes in as ``Unreachable``, any other
    :class:`RpcError` as ``ProtocolError``, and what the operation does not
    handle comes back out the same way round."""
    reply: Any = None
    error: Exception | None = None
    try:
        while True:
            peer, kind, payload = op.send(reply) if error is None else op.throw(error)
            try:
                reply, error = await transport.rpc(peer["addr"], kind, payload), None
            except RpcTimeout as exc:
                reply, error = None, Unreachable(str(exc))
            except RpcError as exc:
                reply, error = None, ProtocolError(str(exc))
    except StopIteration as done:
        return done.value
    except Unreachable as exc:
        raise RpcTimeout(str(exc)) from exc
    except ProtocolError as exc:
        raise RpcError(str(exc)) from exc


async def _settle(tasks: Sequence[asyncio.Task[Any]]) -> None:
    """Cancel what of ``tasks`` still runs and wait until it has stopped; the
    error of one that failed unread is read here, so none outlives its caller
    or is reported as never retrieved."""
    running = [task for task in tasks if not task.done()]
    for task in running:
        task.cancel()
    if running:
        await asyncio.wait(running)
    for task in tasks:
        if not task.cancelled():
            task.exception()


class _RingView:
    """The arcs a querying peer has learned of its ring: hints, never proof.

    ``arcs`` maps an owner's id to ``(pred id, entry)`` — the arc ``(pred,
    id]`` it proved in a ``range_solve`` reply (:meth:`prove`), or that a
    successor list or a ring snapshot implies (:meth:`fill`) — and ``ids``
    holds the same ids sorted, so :func:`~repro.dht.idspace.owner_slot` finds
    the candidate owner of a ring position in O(log n).  The node asked still
    decides by its own predecessor: a stale arc costs a ``not_owner`` detour
    or a refused ``insert``, never an answer.  :meth:`tiling` is kept until
    an arc, an id or an address changes, so a warm walk asks it in O(1).
    """

    def __init__(self, m: int) -> None:
        self.m = m
        self.arcs: dict[int, tuple[int, dict[str, Any]]] = {}
        self.ids: list[int] = []
        self._tiling: list[dict[str, Any]] | None = None
        self._tiling_stale = False

    def _put(self, pred_id: int, entry: dict[str, Any]) -> None:
        if entry["id"] not in self.arcs:
            if len(self.ids) >= RING_VIEW_CAP:
                self.clear()
            insort(self.ids, entry["id"])
        self.arcs[entry["id"]] = pred_id, entry
        self._tiling_stale = True

    def prove(self, pred_id: int, entry: dict[str, Any]) -> None:
        """``entry`` proved its arc ``(pred_id, id]``: that replaces what the
        view held for the id, and ids held inside the arc are forgotten (the
        owner says no node is there).  Restating a held arc changes nothing."""
        ids, owner_id = self.ids, entry["id"]
        if self.arcs.get(owner_id) != (pred_id, entry):
            self._put(pred_id, entry)
        i = bisect_left(ids, owner_id)
        while len(ids) > 1 and in_interval_open(ids[i - 1], pred_id, owner_id, self.m):
            del self.arcs[ids.pop(i - 1)]  # i == 0: the last id, before it cyclically
            i = max(i - 1, 0)
            self._tiling_stale = True

    def fill(self, chain: list[dict[str, Any]]) -> None:
        """Each entry of ``chain`` follows the one before it, as some node
        last saw the ring: the arcs of ids the view does not hold yet.  A
        successor list may lag behind a join, so it narrows no arc held; but
        an id held under another address takes the one ``chain`` names (a
        node that came back on a new port is dialled there, not waited on)."""
        for a, b in zip(chain, chain[1:]):
            held = self.arcs.get(b["id"])
            if held is None:
                self._put(a["id"], b)
            elif held[1]["addr"] != b["addr"]:
                self._put(held[0], b)

    def _held(self, ring_key: int) -> tuple[int, dict[str, Any]] | None:
        if not self.ids:
            return None
        owner_id = self.ids[owner_slot(self.ids, ring_key)]
        held = self.arcs[owner_id]
        return held if in_interval_open_closed(ring_key, held[0], owner_id, self.m) else None

    def owner(self, ring_key: int) -> dict[str, Any] | None:
        """The entry whose arc holds ``ring_key``, if the view has one."""
        held = self._held(ring_key)
        return None if held is None else held[1]

    def arc(self, ring_key: int) -> tuple[int, int] | None:
        """The arc ``(pred id, id]`` held that holds ``ring_key``, if any."""
        held = self._held(ring_key)
        return None if held is None else (held[0], held[1]["id"])

    def tiling(self) -> list[dict[str, Any]] | None:
        """The owners in id order when each arc begins where the one before
        it ends — the whole ring, gap-free — else ``None``.  The list is
        shared until the view changes: read it, do not modify it."""
        if self._tiling_stale:
            ids = self.ids
            self._tiling = None if not ids or any(
                self.arcs[b][0] != a for a, b in zip([ids[-1], *ids], ids)
            ) else [self.arcs[i][1] for i in ids]
            self._tiling_stale = False
        return self._tiling

    def forget(self, addr: str) -> None:
        if any(arc[1]["addr"] == addr for arc in self.arcs.values()):
            self.arcs = {i: arc for i, arc in self.arcs.items() if arc[1]["addr"] != addr}
            self.ids = [i for i in self.ids if i in self.arcs]
            self._tiling_stale = True

    def clear(self) -> None:
        self.arcs.clear()
        self.ids.clear()
        self._tiling_stale = True


class RingWalker:
    """The querying peer's side of Chord's lookup (the maintenance step's,
    driven over RPC) and of the owner walk: what a :class:`NodeProcess` and a
    :class:`~repro.net.cluster.ClusterClient` both run, the same way — a
    lookup's first step is an RPC at the node ``via`` names, even when that
    is the node walking.  It sends the RPCs, holds every reply to the
    contract before acting on it, and keeps the arcs owners prove in
    :attr:`view`.  A node also passes ``drop`` (what a peer that timed out is
    forgotten from; by default the view).
    """

    def __init__(self, transport: TcpTransport, m: int, bounds: IndexSpaceBounds,
                 rotation: int, drop: Callable[[dict[str, Any]], None] | None = None) -> None:
        self.transport = transport
        self.m = m
        self.bounds = bounds
        self.rotation = rotation
        #: the arcs owners proved to this peer, and what a node's ring
        #: snapshot found (hints only)
        self.view = _RingView(m)
        self._drop = drop or (lambda entry: self.view.forget(entry["addr"]))

    def heard_status(self, status: Any) -> None:
        """A node's ``status`` names the node and its predecessor: its arc as
        it sees it, kept like a successor list's (:meth:`_RingView.fill`), so
        a node that came back on a new address is dialled there.  A reply
        without both entries well formed teaches nothing."""
        if not isinstance(status, dict):
            return
        node = {"id": status.get("id"), "addr": status.get("addr")}
        pred = status.get("predecessor")
        if is_ring_entry(node, self.m) and is_ring_entry(pred, self.m):
            self.view.fill([pred, node])

    async def find_successor(self, target: int, via: str) -> dict[str, Any]:
        """Owner of ring position ``target`` (:func:`~repro.dht.maintenance.lookup`):
        each hop a leaf ``lookup_step`` RPC, the first one at ``via``."""
        owner: dict[str, Any] = await _drive(
            self.transport, lookup(self.m, target, {"next": [{"addr": via}]}, self._drop))
        return owner

    async def range_query(self, lows: Any, highs: Any, via: str) -> np.ndarray:
        """Distributed range query: object ids of entries inside the rect.

        SurrogateRefine ("fixed" mode) run by the querying peer.  Which key
        to ask about next is :class:`~repro.core.query.OwnerWalk`'s decision;
        this loop moves the messages: it finds the owner of that key — which
        checks that it is the owner — has it solve ``[key_lo, key_hi]`` on its
        shard, and reports the arc the owner proved.  A rectangle that is not
        two vectors of ``k`` ints or floats is an :class:`RpcError` before any
        frame is sent; it travels as two lists of JSON numbers.  An arc that
        does not hold the position asked about, ids that are not a 1-D signed
        integer array, or malformed ring entries are an :class:`RpcError`,
        never a shorter or a coerced answer.  The arc goes into the ring
        view.  While the view tiles the ring a request says ``tiled`` and the
        owner sends no successor list; otherwise the owner's successors go
        into the view and name the next owner.  ``via`` is the node a lookup
        starts at (see :meth:`find_successor`).

        The walk runs in rounds.  A round asks every key
        :meth:`~repro.core.query.OwnerWalk.plan` predicts from the arcs the
        view holds, all at once, and reads the replies in key order; it ends
        where the walk's next key is not the one planned, or where a planned
        node answers ``not_owner`` (a stale view), and the solves still out
        are cancelled.  Only the round's first solve, the walk's current key,
        follows ``not_owner`` predecessor pointers, so the solves of one round
        never chase the same chain side by side.  A view that tiles the ring
        takes one round, a cold one a round per owner.
        """
        lows, highs = rectangle(np.asarray(lows), np.asarray(highs), self.bounds.k)
        walk = OwnerWalk(lows, highs, self.bounds, self.rotation, self.m)
        rect = {"lows": lows.tolist(), "highs": highs.tolist()}
        chain: list[dict[str, Any]] = []
        collected: list[np.ndarray] = []
        try:
            while walk.key_lo is not None:
                tiled = self.view.tiling() is not None
                said = {"tiled": True} if tiled else {}
                plan = walk.plan(self.view.arc)
                solves = [asyncio.create_task(self._solve_at_owner(
                    ring_key, chain, {**rect, "key_lo": key_lo, "key_hi": key_hi, **said},
                    via, chase=i == 0))
                    for i, (key_lo, key_hi, ring_key) in enumerate(plan)]
                try:
                    for (key_lo, _, _), solve in zip(plan, solves):
                        answer = await solve if walk.key_lo == key_lo else None
                        if answer is None:
                            break  # the view was stale: plan again from here
                        ids, chain = self._read_solve(walk, tiled, *answer)
                        collected.append(ids)
                finally:
                    await _settle(solves)
        except ProtocolError as exc:  # a malformed ring entry in a reply
            raise RpcError(str(exc)) from exc
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(collected)).astype(np.int64)

    def _read_solve(self, walk: OwnerWalk, tiled: bool, entry: dict[str, Any],
                    reply: dict[str, Any]) -> tuple[np.ndarray, list[dict[str, Any]]]:
        """The ids of the ``range_solve`` ``entry`` answered for the walk's
        current key, and the chain of the owner and its successors (empty if
        the request said ``tiled`` and the reply has none); the walk has
        advanced over the arc the owner proved, and the view learned it."""
        ids = reply["ids"]
        if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind == "i"):
            raise RpcError(
                f"range_solve for key {walk.key_lo}: ids not a 1-D integer array: "
                f"{str(ids)[:80]}")
        try:
            pred_id, owner_id = reply["arc"]
            walk.answered(pred_id, owner_id)
        except (KeyError, TypeError, ValueError) as exc:
            raise RpcError(f"range_solve for key {walk.key_lo}: bad arc: {exc}") from exc
        # the owner and its successors, unless the request said tiled and the
        # owner left them out (an owner that predates the field sends them)
        chain = [] if tiled and "successors" not in reply else [
            {"id": owner_id}, *ring_entries(reply.get("successors"), self.m)]
        self.view.prove(pred_id, {**entry, "id": owner_id})
        self.view.fill(chain)
        return ids, chain

    async def _solve_at_owner(self, rot: int, chain: list[dict[str, Any]],
                              payload: dict[str, Any], via: str, chase: bool
                              ) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """``range_solve`` at the owner of ring position ``rot``: the entry
        that answered, and its reply (see :meth:`_solve_from` for ``chase``).

        A link ``(a, b]`` of ``chain`` (the previous owner and its
        successors) holding ``rot`` names ``b``; when none does, the ring
        view may name an owner.  Either is a hint — the node asked decides by
        its own predecessor — so a hint that times out is dropped and the
        ring asked instead (:meth:`find_successor`).
        """
        hint = next((b for a, b in zip(chain, chain[1:])
                     if in_interval_open_closed(rot, int(a["id"]), int(b["id"]), self.m)),
                    None) or self.view.owner(rot)
        if hint is not None:
            try:
                return await self._solve_from(hint, payload, chase)
            except RpcTimeout:
                self._drop(hint)
        return await self._solve_from(await self.find_successor(rot, via), payload, chase)

    async def _solve_from(self, entry: dict[str, Any], payload: dict[str, Any],
                          chase: bool) -> tuple[dict[str, Any], dict[str, Any]] | None:
        """``range_solve`` at ``entry``: the entry that answered, and its
        reply.  When the node asked answers ``not_owner`` (a node joined
        before it), ``chase`` follows predecessor pointers to the owner;
        otherwise the answer is ``None``."""
        for _ in range(MAX_ROUTE_HOPS):
            reply = await self.transport.rpc(entry["addr"], "range_solve", payload)
            if not isinstance(reply, dict):
                raise RpcError(f"malformed range_solve reply: {str(reply)[:80]}")
            if "ids" in reply:
                return entry, reply
            if not chase:
                return None
            entry = ring_entry(reply.get("predecessor"), self.m)
        raise RpcError(
            f"range_solve: no owner of key {payload['key_lo']} within "
            f"{MAX_ROUTE_HOPS} predecessor pointers")


@dataclass
class NodeConfig:
    """Everything a live node needs to boot (CLI flags map 1:1 onto this)."""

    name: str
    data_dir: str
    m: int = 32
    k: int = 2
    bounds_low: float = 0.0
    bounds_high: float = 1000.0
    index_name: str = "index"
    bind: str = "127.0.0.1"
    port: int = 0
    bootstrap: str | None = None
    succ_list_len: int = 4
    stabilize_interval: float = 0.25
    rpc_timeout: float = 2.0
    fmt: str = "json"
    seed: int = 0
    host: int = 0
    fsync: bool = False
    faults: FaultConfig = field(default_factory=FaultConfig)

    @property
    def bounds(self) -> IndexSpaceBounds:
        return IndexSpaceBounds.uniform(self.k, self.bounds_low, self.bounds_high)


class NodeProcess(ChordState):
    """One live overlay node (see module docstring): a
    :class:`~repro.dht.maintenance.ChordState` whose operations run over RPC."""

    def __init__(self, config: NodeConfig, metrics: Any = None) -> None:
        super().__init__(node_id(config.name, config.m), "", config.m, config.succ_list_len,
                         config.bootstrap)
        self.config = config
        self.rotation = rotation_offset(config.index_name, config.m)
        self.bounds = config.bounds
        self.transport = TcpTransport(
            node_id=self.id,
            host=config.host,
            faults=config.faults,
            metrics=metrics,
            fmt=config.fmt,
            seed=config.seed,
            rpc_timeout=config.rpc_timeout,
        )
        self.shard = PersistentShard(config.data_dir, config.k, fsync=config.fsync)
        self.walker = RingWalker(
            self.transport, self.m, self.bounds, self.rotation, drop=self.drop)
        self._stabilize_task: asyncio.Task[None] | None = None
        self._running = False

    def entry(self) -> dict[str, Any]:
        """This node as a ring entry (``{"id", "addr", "name"}``)."""
        return {"id": self.id, "addr": self.addr, "name": self.config.name}

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> str:
        """Bind, recover persisted state, join the ring, start stabilising.

        The first round runs before this returns: it walks to the true
        successor and splices this node in behind the node before it, so
        sequential joins leave a consistent ring with no periodic round."""
        self.addr = await self.transport.start(self.config.bind, self.config.port)
        self._register_rpcs()
        self._recover_overlay_state()
        await self._join()
        await self._stabilize_round()
        self._running = True
        self._stabilize_task = asyncio.get_running_loop().create_task(
            self._stabilize_loop())
        return self.addr

    async def stop_rounds(self) -> None:
        """Cancel the stabilise loop and wait until it has unwound, so no
        round of this node dials anyone after this returns."""
        self._running = False
        task, self._stabilize_task = self._stabilize_task, None
        if task is not None:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)

    async def close(self) -> None:
        """Graceful local shutdown (crash tests just SIGKILL the process)."""
        await self.stop_rounds()
        await self.transport.close()
        self.shard.close()

    def _recover_overlay_state(self) -> None:
        # stale addresses are fine: stabilisation times out and repairs; an
        # entry that is not one (a torn or hand-edited file) is dropped
        succ, pred = self.shard.meta.get("successors"), self.shard.meta.get("predecessor")
        self.successors = [e for e in (succ if isinstance(succ, list) else [])
                           if is_ring_entry(e, self.m) and e["addr"] != self.addr]
        if is_ring_entry(pred, self.m):
            self.predecessor = pred

    def _persist_overlay_state(self) -> None:
        self.shard.set_meta(
            successors=self.successors[: self.succ_list_len],
            predecessor=self.predecessor,
            node_id=self.id,
            name=self.config.name,
            addr=self.addr,
        )

    # -- maintenance: the step's operations over RPC -----------------------------

    async def _join(self) -> None:
        await _drive(self.transport, self.join())
        self._persist_overlay_state()

    async def _stabilize_loop(self) -> None:
        interval = self.config.stabilize_interval
        while self._running:
            await asyncio.sleep(interval)
            await self._stabilize_round()

    async def _stabilize_round(self) -> None:
        try:
            await _drive(self.transport, self.round())
        except OSError:  # an RpcError included: transient, the next round retries
            pass
        self._persist_overlay_state()

    def drop(self, dead: dict[str, Any]) -> None:
        """The failure detector fired: forget the peer as successor, as
        finger and in the ring view."""
        super().drop(dead)
        self.walker.view.forget(dead["addr"])
        self._persist_overlay_state()

    async def ring_snapshot(self) -> list[dict[str, Any]]:
        """All live ring members, by walking successors from this node (O(n)
        RPCs: batch placement when the ring view does not tile the ring, and
        ops — never the query path).  The members replace the ring view."""
        members = [self.entry()]
        seen = {self.addr}
        cur = self.successor
        for _ in range(MAX_ROUTE_HOPS):
            if cur["addr"] in seen:
                break
            members.append(dict(cur))
            seen.add(cur["addr"])
            cur = ring_entry(await self.transport.rpc(cur["addr"], "get_successor", None), self.m)
        members.sort(key=lambda e: int(e["id"]))
        self.walker.view.clear()
        self.walker.view.fill([members[-1], *members])
        return members

    # -- data plane -------------------------------------------------------------

    async def route_insert(self, keys: np.ndarray, points: np.ndarray,
                           object_ids: np.ndarray) -> int:
        """Place a batch on its owners (one ``insert`` RPC per owner).

        Returns the number of entries durably accepted.  Placement is
        :func:`~repro.dht.idspace.owner_slots` over the ring view when its
        arcs tile the ring, else over a :meth:`ring_snapshot`, which refills
        the view.  Either is a hint: an owner refuses a batch holding a key
        outside its arc.  Refused entries are placed once more, over a fresh
        snapshot; a second refusal is the owner's :class:`RpcError`, naming
        the count.  Any other error ends the call with nothing retried (an
        ``insert`` that timed out may have been applied).  Batches placed
        before an error stay placed.  A batch that breaks the contract of
        :func:`entry_batch` is an :class:`RpcError` before anything is placed.
        """
        batch = entry_batch(keys, points, object_ids, self.m, self.bounds.k)
        ring = self.walker.view.tiling() or await self.ring_snapshot()
        accepted, refused, refusal = await self._place(ring, *batch)
        if refusal is not None:
            more, _, refusal = await self._place(
                await self.ring_snapshot(), *(a[refused] for a in batch))
            accepted += more
            if refusal is not None:
                raise refusal
        return accepted

    async def _place(self, ring: list[dict[str, Any]], keys: np.ndarray, points: np.ndarray,
                     object_ids: np.ndarray) -> tuple[int, np.ndarray, RpcError | None]:
        """One ``insert`` per owner that ``ring`` (sorted entries) names:
        the count accepted, the positions of the entries refused and the last
        refusal.  An insert that times out is the failure detector firing."""
        owners = owner_slots(
            [int(e["id"]) for e in ring], rotate_keys(keys, self.rotation, self.m))
        order, offsets = group_by_owner(owners, len(ring))
        accepted, refused = 0, [order[:0]]
        refusal: RpcError | None = None
        for s in np.flatnonzero(np.diff(offsets)):
            sel = order[offsets[s] : offsets[s + 1]]
            payload = {"keys": keys[sel], "points": points[sel], "ids": object_ids[sel]}
            try:
                reply = await self.transport.rpc(ring[s]["addr"], "insert", payload)
            except RpcTimeout:
                self.drop(ring[s])
                raise
            except RpcError as exc:
                if _INSERT_REFUSED not in str(exc):
                    raise
                refused.append(sel)
                refusal = exc
                continue
            accepted += accepted_count(reply, len(sel))
        return accepted, np.concatenate(refused), refusal

    async def range_query(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The owner walk (:meth:`RingWalker.range_query`) with this node as
        the querying peer, walked as a client walks it from this node."""
        return await self.walker.range_query(lows, highs, via=self.addr)

    # -- RPC surface ------------------------------------------------------------
    # ``route_insert`` awaits other nodes and gets a task per request; the
    # other eleven are leaves: plain functions, answered on the spot.  A query
    # is walked by whoever asks it (``RingWalker``): no node relays one.

    def _register_rpcs(self) -> None:
        t = self.transport
        t.register_rpc("ping", partial(self._rpc_maintenance, "ping"))
        t.register_rpc("get_successor", partial(self._rpc_maintenance, "get_successor"))
        t.register_rpc("get_successor_list", partial(self._rpc_maintenance, "get_successor_list"))
        t.register_rpc("get_predecessor", partial(self._rpc_maintenance, "get_predecessor"))
        t.register_rpc("notify", partial(self._rpc_maintenance, "notify"))
        t.register_rpc("splice", partial(self._rpc_maintenance, "splice"))
        t.register_rpc("lookup_step", partial(self._rpc_maintenance, "lookup_step"))
        t.register_rpc("insert", self._rpc_insert)
        t.register_rpc("route_insert", self._rpc_route_insert)
        t.register_rpc("range_solve", self._rpc_range_solve)
        t.register_rpc("status", self._rpc_status)
        t.register_rpc("snapshot", self._rpc_snapshot)

    def _rpc_maintenance(self, kind: str, payload: Any, src: dict[str, Any]) -> Any:
        """The step's answer (:meth:`~repro.dht.maintenance.ChordState.serve`);
        ring pointers it moved are persisted."""
        pred, succs = self.predecessor, self.successors
        reply = self.serve(kind, payload)
        if self.predecessor is not pred or self.successors is not succs:
            self._persist_overlay_state()
        return reply

    def _rpc_insert(self, payload: Any, src: dict[str, Any]) -> Any:
        """Store a batch — as the owner of every key in it only.

        A later query asks the owner of a key for it, so an entry accepted
        anywhere else (placed off a stale ring view or snapshot) would be
        silently missing from every answer: unless each rotated key lies in
        the arc :meth:`arc` proves, the whole batch is refused — nothing
        logged, nothing added.  So is a batch that breaks the contract of
        :func:`entry_batch`.
        """
        keys, points, object_ids = entry_batch(
            payload["keys"], payload["points"], payload["ids"], self.m, self.bounds.k)
        foreign = len(keys) - int(np.count_nonzero(keys_in_interval_open_closed(
            rotate_keys(keys, self.rotation, self.m), *self.arc(), self.m)))
        if foreign:
            raise RpcError(
                f"node {self.config.name}: {_INSERT_REFUSED}, {foreign} of {len(keys)} "
                f"keys outside its arc")
        seq = self.shard.add(keys, points, object_ids)
        return {"accepted": int(len(keys)), "seq": int(seq)}

    async def _rpc_route_insert(self, payload: Any, src: dict[str, Any]) -> Any:
        accepted = await self.route_insert(
            payload["keys"], payload["points"], payload["ids"])
        return {"accepted": accepted}

    def _rpc_range_solve(self, payload: Any, src: dict[str, Any]) -> Any:
        """Solve ``[key_lo, key_hi]`` — as the owner of ``key_lo`` only.

        The caller takes this node's id as the end of what was covered, so a
        node that does not own ``key_lo`` answers ``not_owner`` with its
        predecessor (the owner lies that way), and one that cannot tell
        (:meth:`arc`) refuses: a stale view at the querying peer must not
        turn into a short answer.  A key that is not an integer in
        ``[0, 2**m)`` is refused too, never truncated or wrapped, and so is
        a rectangle that is not two vectors of ``k`` ints or floats
        (:func:`rectangle`) or a ``tiled`` that is not a bool.  A caller
        that says ``tiled`` gets no successor list.
        """
        key_lo = key_field(payload, "key_lo", self.m)
        key_hi = key_field(payload, "key_hi", self.m)
        lows, highs = rectangle(payload.get("lows"), payload.get("highs"), self.bounds.k)
        tiled = payload.get("tiled", False)
        if type(tiled) is not bool:
            raise RpcError(f"malformed tiled: {str(tiled)[:80]}")
        pred_id, own_id = self.arc()
        if not in_interval_open_closed(
                rotate(key_lo, self.rotation, self.m), pred_id, own_id, self.m):
            return {"not_owner": True, "predecessor": self.predecessor}
        pos = self.shard.shard.range_search(lows, highs, key_lo=key_lo, key_hi=key_hi)
        reply = {"ids": np.asarray(self.shard.shard.object_ids[pos], dtype=np.int64),
                 "arc": [pred_id, own_id]}
        if not tiled:
            reply["successors"] = self.successors[: self.succ_list_len]
        return reply

    def _rpc_status(self, payload: Any, src: dict[str, Any]) -> Any:
        """This node's ops state, and the index the ring serves: what a
        client needs to walk a query itself."""
        c = self.config
        return {
            "index": {"name": c.index_name, "m": c.m, "k": c.k,
                      "bounds_low": float(c.bounds_low), "bounds_high": float(c.bounds_high)},
            "id": self.id,
            "name": self.config.name,
            "addr": self.addr,
            "predecessor": self.predecessor,
            "successors": self.successors[: self.succ_list_len],
            "entries": int(len(self.shard.shard)),
            "digest": self.shard.digest(),
            "wal_records": self.shard.wal_records,
            "stats": {
                "sent": self.transport.stats.sent,
                "delivered": self.transport.stats.delivered,
            },
        }

    def _rpc_snapshot(self, payload: Any, src: dict[str, Any]) -> Any:
        """Fold the WAL into the snapshot (compaction; also an ops hook)."""
        self.shard.snapshot()
        return {"ok": True, "digest": self.shard.digest()}

