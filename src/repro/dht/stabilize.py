"""Chord stabilisation, churn and maintenance-cost accounting.

The rest of the library builds rings *structurally* (oracle tables — the
steady state the protocol converges to), because the paper measures queries
"after system stabilization".  This module runs the protocol itself, for
three purposes:

1. **Fidelity** — joins, graceful leaves and crashes repaired by the live
   node's maintenance step (:mod:`repro.dht.maintenance`), with convergence
   verifiable against the oracle;
2. **Maintenance cost** — every control message is counted in bytes, so the
   background cost of keeping the overlay alive is measurable;
3. **Piggybacking** (§3.3) — the paper claims "the maintenance messages for
   the DHT links can be piggybacked onto the query delivery messages, so as
   to reduce the maintenance cost".  We model a per-link piggyback window:
   a control message over a directed host link that carried a query or
   result message within the window rides along and only pays its payload
   bytes, not a packet of its own.  The transport stamps those links as it
   sends (``Transport.query_links``), so the query traffic of every protocol
   on it counts.  The ablation benchmark quantifies the saving under a live
   query workload.

:class:`StabilizationProtocol` only moves the step's messages: it maps a
``ChordNode``'s tables to ring entries and back, and carries each request and
its reply as one control message each way through the
:class:`repro.sim.transport.Transport` it is given — the platform's, which
queries use too (synchronous, accounted hops).  A dead or faulted hop is
:exc:`~repro.dht.maintenance.Unreachable`, so injected faults degrade
maintenance the way they degrade queries.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.dht.maintenance import ChordState, Op, ProtocolError, Unreachable, lookup
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing
from repro.sim.transport import Transport
from repro.util.rng import as_rng

__all__ = ["MaintenanceConfig", "MaintenanceStats", "StabilizationProtocol"]

#: bytes of a standalone control message: 20 header + 4 source + 4 payload
CONTROL_MESSAGE_BYTES = 28
#: payload-only cost when piggybacked on a query message
PIGGYBACK_PAYLOAD_BYTES = 4


@dataclass(frozen=True)
class MaintenanceConfig:
    """Timer settings of the maintenance loop (p2psim-like defaults)."""

    #: seconds between a node's rounds (stabilise, check-predecessor, fix one finger)
    stabilize_interval: float = 30.0
    #: enable the §3.3 piggybacking optimisation
    piggyback: bool = False
    #: a control message piggybacks when the same directed link carried a
    #: query message within this many seconds
    piggyback_window: float = 30.0


@dataclass
class MaintenanceStats:
    """Counters of the maintenance traffic."""

    messages: int = 0
    bytes: int = 0
    piggybacked: int = 0
    bytes_saved: int = 0
    joins: int = 0
    leaves: int = 0
    crashes: int = 0


class StabilizationProtocol:
    """The simulator's driver of :mod:`repro.dht.maintenance`, over
    node-local state (``successors``, ``predecessor``, ``fingers``); the
    ring's oracle views only verify convergence."""

    def __init__(
        self,
        ring: ChordRing,
        transport: Transport,
        config: MaintenanceConfig | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.ring = ring
        self.transport = transport
        self.sim = transport.sim
        self.stats = MaintenanceStats()
        self.config = config if config is not None else MaintenanceConfig()
        if self.config.piggyback and transport.query_links is None:
            # switch on the transport's per-link stamps (§3.3)
            transport.query_links = {}
        self.rng = as_rng(seed)
        self._running = False
        #: next finger level to fix, per node
        self._finger_cursor: dict[ChordNode, int] = {}
        #: the ring entry of every node met, the node of every entry's
        #: address, and the address each joiner joined through
        self._entries: dict[ChordNode, dict[str, Any]] = {}
        self._nodes: dict[str, ChordNode] = {}
        self._bootstraps: dict[ChordNode, str] = {}

    # -- the step's messages -------------------------------------------------------

    def _control_message(self, src: ChordNode, dst: ChordNode) -> bool:
        """Account one control message from ``src`` to ``dst``.

        Returns whether it was delivered: False when ``dst`` is dead or a
        fault dropped it.
        """
        if src is dst:
            return True
        self.stats.messages += 1
        size = CONTROL_MESSAGE_BYTES
        links = self.transport.query_links
        if self.config.piggyback and links is not None:
            last = links.get((src.host, dst.host))
            if last is not None and self.sim.now - last <= self.config.piggyback_window:
                self.stats.piggybacked += 1
                self.stats.bytes_saved += CONTROL_MESSAGE_BYTES - PIGGYBACK_PAYLOAD_BYTES
                size = PIGGYBACK_PAYLOAD_BYTES
        self.stats.bytes += size
        return self.transport.control(src, dst, kind="maintenance", size=size)

    def _entry(self, node: ChordNode) -> dict[str, Any]:
        entry = self._entries.get(node)
        if entry is None or entry["id"] != node.id:  # new, or moved by load balancing
            entry = self._entries[node] = {"id": node.id, "addr": f"sim:{len(self._nodes)}"}
            self._nodes[entry["addr"]] = node
        return entry

    def _state(self, node: ChordNode) -> ChordState:
        state = ChordState(node.id, self._entry(node)["addr"], self.ring.m,
                           self.ring.successor_list_len, self._bootstraps.get(node))
        state.successors = [self._entry(n) for n in node.successors if n is not node]
        if node.predecessor is not None:
            state.predecessor = self._entry(node.predecessor)
        state.fingers = {i: self._entry(f) for i, f in enumerate(node.fingers)}
        state.next_finger = self._finger_cursor.get(node, 0)
        return state

    def _store(self, node: ChordNode, state: ChordState) -> None:
        """Write ``state`` back.  A finger level the step does not hold (a
        start up to the successor, or one not looked up yet) is the
        successor, which the lookup step falls back to."""
        nodes = self._nodes
        node.successors = [nodes[e["addr"]] for e in state.successors]
        node.predecessor = None if state.predecessor is None else nodes[state.predecessor["addr"]]
        succ, held = node.successor, state.fingers
        node.fingers = [] if succ is node else [
            nodes[held[i]["addr"]] if i in held else succ for i in range(self.ring.m)]
        self._finger_cursor[node] = state.next_finger
        node.invalidate_routing()

    def _run(self, node: ChordNode, op_of: Callable[[ChordState], Op]) -> tuple[Any, int]:
        """Run ``node``'s operation ``op_of(state)``: what it returned
        (``None`` when it failed) and how many requests it sent."""
        state = self._state(node)
        op = op_of(state)
        reply: Any = None
        error: Exception | None = None
        sent = 0
        try:
            while True:
                peer, kind, payload = op.send(reply) if error is None else op.throw(error)
                sent += 1
                dst = self._nodes[peer["addr"]]
                reply, error = None, Unreachable(peer["addr"])
                if self._control_message(node, dst):
                    answer = self._serve(dst, kind, payload)
                    if self._control_message(dst, node):
                        reply, error = answer, None
        except StopIteration as done:
            return done.value, sent
        except (Unreachable, ProtocolError):
            return None, sent
        finally:
            self._store(node, state)

    def _serve(self, node: ChordNode, kind: str, payload: Any) -> Any:
        state = self._state(node)
        reply = state.serve(kind, payload)
        self._store(node, state)
        return reply

    # -- lifecycle -----------------------------------------------------------------

    def start(self, duration: float) -> None:
        """Schedule periodic maintenance for every current member until
        ``duration`` (new joiners are scheduled by :meth:`join`)."""
        self._running = True
        self._deadline = self.sim.now + duration
        for node in list(self.ring.nodes()):
            self._schedule_node(node)

    def _schedule_node(self, node: ChordNode) -> None:
        jitter = float(self.rng.uniform(0.0, 1.0))
        self.transport.timer(
            jitter + float(self.rng.uniform(0, self.config.stabilize_interval)),
            self._round_tick, node,
        )

    def _round_tick(self, node: ChordNode) -> None:
        if not (self._running and node.alive and self.sim.now <= self._deadline):
            return
        self._run(node, ChordState.round)
        self.transport.timer(self.config.stabilize_interval, self._round_tick, node)

    # -- the step's operations, on simulated nodes ------------------------------------

    def stabilize(self, node: ChordNode) -> None:
        self._run(node, ChordState.stabilize)

    def notify(self, node: ChordNode, candidate: ChordNode) -> None:
        """``candidate`` tells ``node`` it believes it is its predecessor."""
        self._serve(node, "notify", self._entry(candidate))

    def local_lookup(self, start: ChordNode, key: int, max_hops: int | None = None) -> tuple[ChordNode | None, int]:
        """Lookup from ``start`` using only node-local (possibly stale) tables.

        Returns ``(owner_or_None, hops)``; each hop is one request.  A next
        hop that does not answer is dropped and the one after it tried; a
        lookup none of whose hops answer, or longer than ``max_hops``, fails.
        """
        limit = max_hops if max_hops is not None else 4 * self.ring.m + len(self.ring)
        owner, hops = self._run(start, lambda s: lookup(
            s.m, key, s.lookup_step(key), s.drop, limit))
        return owner and self._nodes[owner["addr"]], hops

    # -- membership under churn ---------------------------------------------------------------

    def join(self, node_id: int, bootstrap: ChordNode, name: str = "", host: int = 0) -> ChordNode:
        """Protocol-level join, as a live node starts: find the successor
        through ``bootstrap`` and run a first round (it splices the node in)."""
        # oracle membership only (verification): no node's tables name it yet
        node = self.ring.add_node(node_id, name=name, host=host, rebuild=False)
        self._bootstraps[node] = self._entry(bootstrap)["addr"]
        self._run(node, ChordState.join)
        self._run(node, ChordState.round)
        self.stats.joins += 1
        if self._running:
            self._schedule_node(node)
        return node

    def leave(self, node: ChordNode, graceful: bool = True) -> None:
        """Departure: graceful leaves hand pointers over; crashes just die.

        Idempotent: leaving a node that already left is a no-op (a scheduled
        departure may race with an earlier crash of the same node).
        """
        if self.ring.nodes_by_id.get(node.id) is not node:
            return
        if graceful:
            self._run(node, ChordState.leave)
            self.stats.leaves += 1
        else:
            self.stats.crashes += 1
        node.alive = False
        self.ring.remove_node(node, rebuild=False)

    # -- verification ------------------------------------------------------------------------

    def ring_consistent(self) -> bool:
        """Every live node's immediate successor matches the oracle ring."""
        nodes = self.ring.nodes()
        n = len(nodes)
        return n <= 1 or all(node.successor is nodes[(pos + 1) % n]
                             for pos, node in enumerate(nodes))

    def finger_accuracy(self) -> float:
        """Fraction of finger entries matching the oracle successor of their
        target (1.0 = fully converged)."""
        good = 0
        total = 0
        two_m = 1 << self.ring.m
        for node in self.ring.nodes():
            for i, f in enumerate(node.fingers):
                total += 1
                if f is self.ring.successor_of((node.id + (1 << i)) % two_m):
                    good += 1
        return good / total if total else 1.0
