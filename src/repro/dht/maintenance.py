"""Chord maintenance, sans-IO: the one join, stabilise, check-predecessor,
fix-finger, graceful leave and iterative lookup every driver runs.

A :class:`ChordState` holds one node's ring pointers as ring entries
(``{"id", "addr", …}`` dicts).  Each operation on it is a generator that
yields ``(entry, kind, payload)`` — one request to that peer — and is sent
the reply, or has :exc:`Unreachable` thrown in when the peer did not answer;
what the asked node answers is its own state's :meth:`ChordState.serve`.  The
rules are :mod:`repro.dht.idspace`'s; the next hop (footnote 4) is answered
from one memo per state, :meth:`ChordState.closest_preceding`, dropped at
each write to the tables — every lookup step reads it, and so does a
simulated node's query routing.  Drivers only move the requests: the
live node over ``TcpTransport.rpc`` (:mod:`repro.net.node`), the simulator as
accounted control messages (:mod:`repro.dht.stabilize`), and the bare-ring
tests in whatever order Hypothesis picks.  What a peer sends is validated
where it enters, by :func:`ring_entry` and :func:`key_field`.  Whether the
pointers form the ring is one rule, :func:`ring_violations`, for every check.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Generator, Sequence
from typing import Any, TypeGuard

from repro.dht.idspace import (
    adopts_predecessor,
    adopts_successor,
    cw_distance,
    in_interval_open_closed,
)

__all__ = [
    "ChordState", "Op", "ProtocolError", "Unreachable", "MAX_ROUTE_HOPS",
    "is_ring_entry", "ring_entry", "ring_entries", "key_field", "lookup", "Links",
    "status_links", "ring_violations",
]

#: routing-loop guard: a lookup, stabilise walk or chain of predecessor
#: pointers longer than this aborts loudly (a stabilise walk stops there and
#: goes on from that node next round)
MAX_ROUTE_HOPS = 512

Entry = dict[str, Any]
#: an operation: yields ``(peer entry, kind, payload)``, is sent the reply
Op = Generator[tuple[Entry, str, Any], Any, Any]


class Unreachable(Exception):
    """A peer did not answer (a timeout, a dead or a partitioned node)."""


class ProtocolError(ValueError):
    """A malformed request or reply, an error reply, or a route longer than
    :data:`MAX_ROUTE_HOPS`."""


def is_ring_entry(value: Any, m: int) -> TypeGuard[Entry]:
    """Whether ``value`` is a ring entry: ``{"id": int in [0, 2**m), "addr": str, …}``.
    Every entry a peer (or ``meta.json``) supplies is held to this once, where
    it enters node state."""
    return (isinstance(value, dict) and type(value.get("id")) is int
            and 0 <= value["id"] < 1 << m and isinstance(value.get("addr"), str))


def ring_entry(value: Any, m: int) -> Entry:
    """``value``, a ring entry a peer supplied — else :exc:`ProtocolError`."""
    if not is_ring_entry(value, m):
        raise ProtocolError(f"malformed ring entry: {str(value)[:80]}")
    return value


def ring_entries(value: Any, m: int) -> list[Entry]:
    if not isinstance(value, list):
        raise ProtocolError(f"malformed ring entry list: {str(value)[:80]}")
    return [ring_entry(e, m) for e in value]


#: a member as :func:`ring_violations` reads it: its entry, then the entries
#: its first successor and its predecessor name (``None`` when unknown)
Links = tuple[Entry, Entry | None, Entry | None]


def status_links(status: Any, m: int) -> Links | None:
    """A node's ``status`` reply as :data:`Links`, or ``None`` unless the
    node, each successor it lists and its predecessor (if any) are ring
    entries."""
    if not is_ring_entry(status, m):
        return None
    succs, pred = status.get("successors"), status.get("predecessor")
    if not (isinstance(succs, list) and all(is_ring_entry(e, m) for e in succs)
            and (pred is None or is_ring_entry(pred, m))):
        return None
    return status, succs[0] if succs else None, pred


def ring_violations(links: Sequence[Links | None]) -> list[tuple[str, str]]:
    """The ring-consistency rule every ring check calls: an ``(invariant,
    details)`` pair for each way ``links`` differ from the ring of their
    members sorted by id; none when they do not.  Entries match when id and
    address do, so a node's old address is not the node.  A successor that
    is not the next member is ``ring.successor``, a predecessor that is not
    the previous one ``ring.predecessor``; a lone member may name itself or
    nothing.  No member is ``ring.empty``, a ``None`` in ``links`` (a
    malformed status) ``ring.malformed``, a repeated id ``ring.membership``."""
    if not links:
        return [("ring.empty", "no live members")]
    malformed = [i for i, link in enumerate(links) if link is None]
    if malformed:
        return [("ring.malformed", f"members {malformed} of {len(links)}: malformed status")]
    ring = sorted((link for link in links if link is not None), key=lambda link: link[0]["id"])
    if len({me["id"] for me, _, _ in ring}) != len(ring):
        return [("ring.membership", "duplicate node ids")]
    n = len(ring)
    out = []
    for pos, (me, succ, pred) in enumerate(ring):
        for name, got, want in (("successor", succ, ring[(pos + 1) % n][0]),
                                ("predecessor", pred, ring[pos - 1][0])):
            if got is None and n == 1 or got is not None and (
                    got["id"], got["addr"]) == (want["id"], want["addr"]):
                continue
            shown = "None" if got is None else f"{got['id']:#x} at {got['addr']}"
            out.append((f"ring.{name}", f"node {me['id']:#x}: {name} {shown} != "
                                        f"oracle {want['id']:#x} at {want['addr']}"))
    return out


def key_field(payload: Any, name: str, m: int) -> int:
    """``payload[name]`` if it is an int in ``[0, 2**m)`` — as a ring entry's
    id is — else :exc:`ProtocolError`: a float is not truncated, nor a key
    wrapped."""
    value = payload.get(name) if isinstance(payload, dict) else None
    if type(value) is not int or not 0 <= value < 1 << m:
        raise ProtocolError(f"malformed {name}: {str(value)[:80]}")
    return value


def lookup(m: int, target: int, step: dict[str, Any], forget: Callable[[Entry], None],
           max_hops: int = MAX_ROUTE_HOPS) -> Op:
    """Owner of ring position ``target``: Chord's lookup, iterated by the
    node that asks.  ``step`` is the first step — the asker's own
    :meth:`ChordState.lookup_step`, or ``{"next": [{"addr": a}]}`` to start
    at a node known by address only — and every further hop one
    ``lookup_step`` request.  Hops move strictly towards ``target`` and the
    last one decides by its own ``(id, successor]``, so stale fingers cost
    hops, never exactness.  A hop that does not answer is ``forget``-ten and
    the next one tried."""
    for _ in range(max_hops):
        if "owner" in step:
            owner: Entry = step["owner"]
            return owner
        for hop in step["next"]:
            try:
                reply = yield hop, "lookup_step", {"target": target}
                break
            except Unreachable:
                forget(hop)
        else:
            raise Unreachable(f"lookup({target}): no next hop answered")
        if isinstance(reply, dict) and "owner" in reply:
            step = {"owner": ring_entry(reply["owner"], m)}
        elif isinstance(reply, dict) and reply.get("next"):
            step = {"next": ring_entries(reply["next"], m)}
        else:
            raise ProtocolError(f"malformed lookup_step reply: {str(reply)[:80]}")
    raise ProtocolError(f"lookup({target}) exceeded {max_hops} hops")


class ChordState:
    """One node's ring pointers, the operations that repair them, and what
    the node answers when asked.

    ``successors`` and ``fingers`` are rebound, never changed in place: each
    write drops the memo :meth:`closest_preceding` answers from."""

    def __init__(self, node_id: int, addr: str, m: int, succ_list_len: int,
                 bootstrap: str | None = None) -> None:
        self.id = node_id
        self.addr = addr
        self.m = m
        self.succ_list_len = succ_list_len
        #: where this node joins — and, having lost the ring, re-joins
        self.bootstrap = bootstrap
        self.predecessor: Entry | None = None
        #: :meth:`closest_preceding`'s memo: the id mask, the distinct
        #: clockwise distances from ``id`` to the finger and successor
        #: entries, ascending, and the first entry at each; built by the first
        #: read after a write, so a node that never routes a key pays nothing
        self._hops: tuple[int, list[int], list[Entry]] | None = None
        self._successors: list[Entry] = []
        self._fingers: dict[int, Entry] = {}
        self.next_finger = 0

    @property
    def successors(self) -> list[Entry]:
        return self._successors

    @successors.setter
    def successors(self, chain: list[Entry]) -> None:
        self._successors, self._hops = chain, None

    @property
    def fingers(self) -> dict[int, Entry]:
        """Finger ``i`` is the owner of ``id + 2**i``; only starts beyond the
        successor are held (see :meth:`fix_finger`)."""
        return self._fingers

    @fingers.setter
    def fingers(self, table: dict[int, Entry]) -> None:
        self._fingers, self._hops = table, None

    def entry(self) -> Entry:
        return {"id": self.id, "addr": self.addr}

    @property
    def successor(self) -> Entry:
        succs = self._successors
        return succs[0] if succs else self.entry()

    def arc(self) -> tuple[int, int]:
        """The ownership interval ``(predecessor, self]`` as ring ids.

        A node alone on its ring owns all of it.  With the predecessor
        unknown on a ring of several nodes any key may belong to a node in
        between, so this raises instead of claiming the arc.
        """
        if self.predecessor is not None:
            return self.predecessor["id"], self.id
        if self.successor["addr"] == self.addr:
            return self.id, self.id
        raise ProtocolError(f"node {self.id}: predecessor unknown, ownership unproven")

    def set_successors(self, chain: list[Entry]) -> None:
        """``chain`` without this node — an entry with its id is its old
        incarnation — and repeats, cut to ``succ_list_len``."""
        kept: list[Entry] = []
        seen = {self.id}
        for e in chain:
            if e["id"] not in seen and e["addr"] != self.addr:
                seen.add(e["id"])
                kept.append(e)
        self.successors = kept[: self.succ_list_len]

    def adopt_predecessor(self, cand: Entry) -> None:
        """Notify's rule (:func:`~repro.dht.idspace.adopts_predecessor`)."""
        pred = self.predecessor
        if adopts_predecessor(cand["id"], self.id, None if pred is None else pred["id"], self.m):
            self.predecessor = dict(cand)

    def drop(self, dead: Entry) -> None:
        """The failure detector fired: forget ``dead`` as successor (the
        next one is promoted) and as finger."""
        self.successors = [e for e in self.successors if e["addr"] != dead["addr"]]
        self.fingers = {i: e for i, e in self.fingers.items() if e["addr"] != dead["addr"]}

    def closest_preceding(self, key: int) -> Entry | None:
        """Footnote 4's next hop: the finger or successor entry closest before
        ``key`` clockwise of this node, or ``None`` when none is (this node
        then precedes ``key``).  The rule is
        :func:`~repro.dht.idspace.closest_preceding` over the fingers, then the
        successor list — the first entry on a tie, never one at this node's
        id, ``key == id`` routing the full ring — answered with one bisection
        of the table sorted by clockwise distance."""
        mask, dists, entries = self._hops or self._hop_table()
        # entries strictly between id and key: distance <= (key - id - 1) mod 2^m
        pos = bisect_right(dists, (key - self.id - 1) & mask)
        return entries[pos - 1] if pos else None

    def _hop_table(self) -> tuple[int, list[int], list[Entry]]:
        """Build and keep the memo."""
        mask = (1 << self.m) - 1
        first: dict[int, Entry] = {}
        for e in (*self._fingers.values(), *self._successors):
            first.setdefault((e["id"] - self.id) & mask, e)
        first.pop(0, None)  # this node never precedes a key
        dists = sorted(first)
        hops = self._hops = mask, dists, [first[d] for d in dists]
        return hops

    def lookup_step(self, target: int) -> dict[str, Any]:
        """One hop of a lookup from local state alone: the owner of ``target``
        when this node or its successor is, else whom to ask next — the
        closest preceding entry (:meth:`closest_preceding`) and, were it
        dead, the successor."""
        succ, pred = self.successor, self.predecessor
        if pred is not None and in_interval_open_closed(target, pred["id"], self.id, self.m):
            return {"owner": self.entry()}
        if in_interval_open_closed(target, self.id, succ["id"], self.m):
            return {"owner": succ}
        best = self.closest_preceding(target) or self.entry()
        return {"next": [best] if best["addr"] == succ["addr"] else [best, succ]}

    def serve(self, kind: str, payload: Any) -> Any:
        """The answer to a request: the seven maintenance kinds the wire
        carries, and ``leave``, which only the simulator and the bare-ring
        tests send.  A malformed payload is a :exc:`ProtocolError` and changes
        nothing."""
        if kind == "ping":
            return self.entry()
        if kind == "get_successor":
            return self.successor
        if kind == "get_successor_list":
            return self.successors[: self.succ_list_len]
        if kind == "get_predecessor":
            return self.predecessor
        if kind == "lookup_step":
            return self.lookup_step(key_field(payload, "target", self.m))
        if kind == "notify":  # the sender believes it precedes this node
            cand = ring_entry(payload, self.m)
            alone = self.successor["addr"] == self.addr
            self.adopt_predecessor(cand)
            if alone and adopts_successor(cand["id"], self.id, self.id, self.m):
                self.successors = [dict(cand)]  # so the next lookup answer is right
            return {"ok": True}
        if kind == "splice":  # the sender follows this node if stabilise's rule says so
            cand = ring_entry(payload, self.m)
            if adopts_successor(cand["id"], self.id, self.successor["id"], self.m):
                self.set_successors([cand, *self.successors])
            return self.entry() if self.successor["addr"] == cand["addr"] else None
        if kind == "leave":  # a neighbour leaves: its predecessor becomes ours if it was
            gone = ring_entry(payload["node"], self.m)
            if self.predecessor is not None and self.predecessor["addr"] == gone["addr"]:
                heir = payload["predecessor"] and ring_entry(payload["predecessor"], self.m)
                self.predecessor = heir if heir and heir["addr"] != self.addr else None
            self.drop(gone)
            return None
        raise ProtocolError(f"no maintenance request {kind!r}")

    # -- operations -----------------------------------------------------------------

    def join(self) -> Op:
        """Find this node's successor through the bootstrap or, restarting,
        any successor it remembers; returns whether one answered.

        An owner with this node's own id is its old incarnation, which the
        ring has not noticed yet: the recovered successor list is then kept,
        so the first stabilise dials the true successor, not the old address.
        """
        vias = [self.bootstrap] if self.bootstrap else []
        for via in vias + [e["addr"] for e in self.successors]:
            if via == self.addr:
                continue
            try:
                owner = yield from lookup(self.m, self.id, {"next": [{"addr": via}]}, self.drop)
            except (Unreachable, ProtocolError):
                continue
            if owner["id"] != self.id or not self.successors:
                self.successors = [owner]
            return True
        return False

    def stabilize(self) -> Op:
        """One Chord ``stabilize``, walked to a fixed point: while the
        successor's predecessor lies in ``(self, successor)`` it is adopted
        and asked in turn.  The successor is notified and its list merged.
        When it named another node as predecessor — or none — this node tells
        that node (or the successor), in one ``splice``, that it now follows
        it, and takes the reply as predecessor under notify's rule.  On a
        stable ring the successor names this node: no ``splice``.  A successor
        that does not answer is dropped; the next round asks the one after."""
        succ = self.successor
        if succ["addr"] == self.addr:
            # alone: re-enter through a predecessor that notified us, else
            # through the bootstrap (a join may have found a dead owner)
            if self.predecessor is not None and self.predecessor["addr"] != self.addr:
                self.successors = [self.predecessor]
            elif self.predecessor is None:
                yield from self.join()
            return
        try:
            for _ in range(MAX_ROUTE_HOPS):
                pred = yield succ, "get_predecessor", None
                if pred is None or not adopts_successor(
                        ring_entry(pred, self.m)["id"], self.id, succ["id"], self.m):
                    break
                succ = pred
            yield succ, "notify", self.entry()
            succ_list = ring_entries((yield succ, "get_successor_list", None), self.m)
        except Unreachable:
            self.drop(succ)
            return
        head = self.successor
        ahead = [head] if adopts_successor(head["id"], self.id, succ["id"], self.m) else []
        self.set_successors([*ahead, succ, *succ_list])  # ahead: a splice landed meanwhile
        if pred is not None and pred["id"] == self.id:
            return
        before = succ if pred is None else pred
        try:
            reply = yield before, "splice", self.entry()
        except Unreachable:
            self.drop(before)
            return
        if reply is not None:
            self.adopt_predecessor(ring_entry(reply, self.m))

    def check_predecessor(self) -> Op:
        """Clear a predecessor that does not answer, so its live one can
        notify this node."""
        pred = self.predecessor
        if pred is None or pred["addr"] == self.addr:
            return
        try:
            yield pred, "ping", None
        except Unreachable:
            if self.predecessor is pred:
                self.predecessor = None
            self.drop(pred)

    def fix_finger(self) -> Op:
        """Refresh one finger (paper footnote 4).  A start inside ``(id,
        successor]`` is the successor's, which :meth:`lookup_step` consults
        anyway: such fingers are neither held nor looked up."""
        succ = self.successor
        if succ["addr"] == self.addr:
            self.fingers = {}
            return
        # id + 2**i lies in (id, successor] iff i < bit_length(distance)
        first = cw_distance(self.id, succ["id"], self.m).bit_length()
        self.fingers = {i: e for i, e in self.fingers.items() if i >= first}
        if first >= self.m:
            return
        i = max(self.next_finger, first)
        self.next_finger = (i + 1) % self.m
        target = (self.id + (1 << i)) % (1 << self.m)
        finger = yield from lookup(self.m, target, self.lookup_step(target), self.drop)
        self.fingers = {**self.fingers, i: finger}

    def round(self) -> Op:
        """A node's periodic round: stabilise, check the predecessor,
        refresh one finger."""
        yield from self.stabilize()
        yield from self.check_predecessor()
        yield from self.fix_finger()

    def leave(self) -> Op:
        """Graceful departure: the successor and the predecessor are each
        told in one ``leave``; one that does not answer finds out by its
        failure detector."""
        note = {"node": self.entry(), "predecessor": self.predecessor}
        peers = {e["addr"]: e for e in (self.predecessor, self.successor) if e is not None}
        for addr, peer in peers.items():
            if addr != self.addr:
                try:
                    yield peer, "leave", note
                except Unreachable:
                    pass
