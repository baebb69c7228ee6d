"""Chord stabilisation, churn and maintenance-cost accounting.

The rest of the library builds rings *structurally* (oracle tables — the
steady state the protocol converges to), because the paper measures queries
"after system stabilization".  This module supplies the protocol itself, for
three purposes:

1. **Fidelity** — joins, graceful leaves and crashes repaired by the actual
   Chord maintenance loop (``stabilize``/``notify``, ``fix_fingers``,
   successor-list copying), with convergence verifiable against the oracle;
2. **Maintenance cost** — every control message is counted in bytes, so the
   background cost of keeping the overlay alive is measurable;
3. **Piggybacking** (§3.3) — the paper claims "the maintenance messages for
   the DHT links can be piggybacked onto the query delivery messages, so as
   to reduce the maintenance cost".  We model a per-link piggyback window:
   a control message over a link that carried (or will shortly carry) query
   traffic rides along and only pays its payload bytes, not a packet of its
   own.  The ablation benchmark quantifies the saving under a live query
   workload.

Control messages flow through the shared
:class:`repro.sim.transport.Transport` (as synchronous, accounted hops —
their latencies are negligible against the maintenance intervals), so
injected faults degrade maintenance the same way they degrade queries: a
lost stabilize request simply skips that round's repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Any

from repro.dht.idspace import in_interval_open, lookup_step
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing
from repro.sim.transport import Protocol
from repro.util.rng import as_rng

__all__ = ["MaintenanceConfig", "MaintenanceStats", "StabilizationProtocol"]

#: bytes of a standalone control message: 20 header + 4 source + 4 payload
CONTROL_MESSAGE_BYTES = 28
#: payload-only cost when piggybacked on a query message
PIGGYBACK_PAYLOAD_BYTES = 4


@dataclass(frozen=True)
class MaintenanceConfig:
    """Timer settings of the maintenance loop (p2psim-like defaults)."""

    stabilize_interval: float = 30.0
    fix_finger_interval: float = 30.0
    successor_list_interval: float = 60.0
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


class StabilizationProtocol(Protocol):
    """Event-driven Chord maintenance over the discrete-event simulator.

    The protocol operates purely on node-local state (``successors``,
    ``predecessor``, ``fingers``); the ring's oracle views are used only by
    callers to verify convergence.  Dead nodes are detected by liveness
    checks on contact (a timeout in a real deployment).
    """

    def __init__(
        self,
        ring: ChordRing,
        sim: Any = None,
        latency: Any = None,
        config: MaintenanceConfig | None = None,
        seed: int | np.random.Generator | None = 0,
        transport: Any = None,
        obs: Any = None,
    ) -> None:
        super().__init__(
            sim=sim,
            latency=latency if latency is not None else ring.latency,
            transport=transport,
        )
        self.ring = ring
        self.config = config if config is not None else MaintenanceConfig()
        self.rng = as_rng(seed)
        registry = obs.registry if obs is not None else None
        if registry is not None and registry.enabled:
            self._m_control = registry.counter(
                "maintenance_control_total", "Maintenance control messages",
                ("piggyback",))
            self._m_saved = registry.counter(
                "maintenance_bytes_saved_total",
                "Bytes saved by piggybacking on query traffic")
            self._m_churn = registry.counter(
                "maintenance_churn_total", "Membership events", ("event",))
        else:
            self._m_control = self._m_saved = self._m_churn = None
        self._running = False
        #: next finger level to fix, per node id
        self._finger_cursor: dict[int, int] = {}
        #: last time a query message used the directed link (src_host, dst_host)
        self._link_query_time: dict[tuple[int, int], float] = {}

    def default_stats(self) -> MaintenanceStats:
        return MaintenanceStats()

    # -- piggyback plumbing ------------------------------------------------------

    def note_query_traffic(self, src_host: int, dst_host: int, at: float | None = None) -> None:
        """Record query traffic on a link (wired in by the query protocol)."""
        self._link_query_time[(src_host, dst_host)] = self.sim.now if at is None else at

    def _control_message(self, src: ChordNode, dst: ChordNode) -> bool:
        """Account one control message from ``src`` to ``dst``.

        Returns whether it was delivered; without injected faults that is
        always True, so callers' early-outs are dead code in clean runs.
        """
        if src is dst:
            return True
        self.stats.messages += 1
        size = CONTROL_MESSAGE_BYTES
        piggybacked = False
        if self.config.piggyback:
            last = self._link_query_time.get((src.host, dst.host))
            if last is not None and self.sim.now - last <= self.config.piggyback_window:
                piggybacked = True
                self.stats.piggybacked += 1
                self.stats.bytes_saved += CONTROL_MESSAGE_BYTES - PIGGYBACK_PAYLOAD_BYTES
                size = PIGGYBACK_PAYLOAD_BYTES
        self.stats.bytes += size
        if self._m_control is not None:
            self._m_control.inc(("yes" if piggybacked else "no",))
            if piggybacked:
                self._m_saved.add(CONTROL_MESSAGE_BYTES - PIGGYBACK_PAYLOAD_BYTES)
        return self.transport.control(src, dst, kind="maintenance", size=size)

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
            self._stabilize_tick, node,
        )
        self.transport.timer(
            jitter + float(self.rng.uniform(0, self.config.fix_finger_interval)),
            self._fix_finger_tick, node,
        )
        self.transport.timer(
            jitter + float(self.rng.uniform(0, self.config.successor_list_interval)),
            self._successor_list_tick, node,
        )

    def _active(self, node: ChordNode) -> bool:
        return self._running and node.alive and self.sim.now <= self._deadline

    # -- periodic tasks ----------------------------------------------------------------

    def _stabilize_tick(self, node: ChordNode) -> None:
        if not self._active(node):
            return
        self.stabilize(node)
        self.transport.timer(self.config.stabilize_interval, self._stabilize_tick, node)

    def _fix_finger_tick(self, node: ChordNode) -> None:
        if not self._active(node):
            return
        self.fix_next_finger(node)
        self.transport.timer(self.config.fix_finger_interval, self._fix_finger_tick, node)

    def _successor_list_tick(self, node: ChordNode) -> None:
        if not self._active(node):
            return
        self.copy_successor_list(node)
        self.transport.timer(
            self.config.successor_list_interval, self._successor_list_tick, node
        )

    # -- the Chord maintenance operations -------------------------------------------------

    def _first_live_successor(self, node: ChordNode) -> ChordNode | None:
        pruned = False
        while node.successors and not node.successors[0].alive:
            node.successors.pop(0)
            pruned = True
        if pruned:
            node.invalidate_routing()
        return node.successors[0] if node.successors else None

    def _recover_successor(self, node: ChordNode) -> ChordNode | None:
        """Emergency re-entry when the whole successor list died.

        A node whose every known successor crashed can never repair through
        the normal stabilize round (it has nobody to ask), so it falls back
        to any live contact — its predecessor or a live finger — and lets
        stabilisation walk from there back to the true successor.  This is
        the Chord paper's "rejoin through any known live node".
        """
        pred = node.predecessor
        if pred is not None and pred.alive and pred is not node:
            return pred
        for f in node.fingers:
            if f.alive and f is not node:
                return f
        return None

    def stabilize(self, node: ChordNode) -> None:
        """``n.stabilize()``: verify the immediate successor, adopt a closer
        one learned from it, and notify it of our existence."""
        succ = self._first_live_successor(node)
        if succ is None:
            succ = self._recover_successor(node)
            if succ is None:
                return
            node.successors = [succ]
            node.invalidate_routing()
        # ask successor for its predecessor (request + response)
        if not self._control_message(node, succ):
            return
        if not self._control_message(succ, node):
            return
        x = succ.predecessor
        if (
            x is not None
            and x.alive
            and x is not node
            and in_interval_open(x.id, node.id, succ.id, node.m)
        ):
            node.successors.insert(0, x)
            del node.successors[self.ring.successor_list_len :]
            node.invalidate_routing()
            succ = x
        # notify
        if self._control_message(node, succ):
            self.notify(succ, node)

    def notify(self, node: ChordNode, candidate: ChordNode) -> None:
        """``n.notify(c)``: ``c`` believes it is our predecessor."""
        pred = node.predecessor
        if (
            pred is None
            or not pred.alive
            or in_interval_open(candidate.id, pred.id, node.id, node.m)
        ):
            node.predecessor = candidate

    def copy_successor_list(self, node: ChordNode) -> None:
        """Refresh the successor list from the immediate successor."""
        succ = self._first_live_successor(node)
        if succ is None or succ is node:
            return
        if not self._control_message(node, succ):
            return
        if not self._control_message(succ, node):
            return
        node.successors = self._merged_successors(node, succ)
        node.invalidate_routing()

    def _merged_successors(self, node: ChordNode, succ: ChordNode) -> list[ChordNode]:
        """``[succ] + succ.successors``, live, deduplicated, length-capped."""
        merged: list[ChordNode] = [succ]
        for s in succ.successors:
            if s is node or not s.alive:
                continue
            if all(s is not t for t in merged):
                merged.append(s)
            if len(merged) >= self.ring.successor_list_len:
                break
        return merged

    def local_lookup(self, start: ChordNode, key: int, max_hops: int | None = None) -> tuple[ChordNode | None, int]:
        """Greedy lookup using only node-local (possibly stale) tables.

        Returns ``(owner_or_None, hops)``; each hop costs one control
        message.  Dead next-hops are skipped (their entries are stale); a
        fault-dropped hop fails the lookup (a timeout in a real deployment).
        """
        limit = max_hops if max_hops is not None else 4 * self.ring.m + len(self.ring)
        current = start
        hops = 0
        for _ in range(limit):
            succ = self._first_live_successor(current)
            if succ is None:
                return current, hops
            table = (*current.fingers, *current.successors)
            step = lookup_step(current.id, succ.id, key, (n.id for n in table), current.m)
            if step == -1:  # nothing known precedes the key: the successor owns it
                return succ, hops
            # the owner, or the next hop (a dead entry falls back to the successor)
            nh = succ if step is None or not table[step].alive else table[step]
            if nh is not current:
                hops += 1
                if not self._control_message(current, nh):
                    return None, hops
            if step is None:
                return succ, hops
            current = nh
        return None, hops

    def fix_next_finger(self, node: ChordNode) -> None:
        """Refresh one finger level per firing (round-robin)."""
        if len(self.ring) <= 1:
            return
        level = self._finger_cursor.get(node.id, 0)
        self._finger_cursor[node.id] = (level + 1) % node.m
        target = (node.id + (1 << level)) % (1 << node.m)
        owner, _ = self.local_lookup(node, target)
        if owner is None:
            return
        while len(node.fingers) <= level:
            node.fingers.append(node)
        node.fingers[level] = owner
        node.invalidate_routing()

    # -- membership under churn ---------------------------------------------------------------

    def join(self, node_id: int, bootstrap: ChordNode, name: str = "", host: int = 0) -> ChordNode:
        """Protocol-level join: find the successor via lookup, splice in, and
        start maintenance timers.  Tables converge via stabilisation.

        The joiner copies its successor's successor list in the same
        handshake (one request/response pair): a freshly joined node whose
        *only* known successor crashes before the first successor-list copy
        tick would otherwise be stranded forever with an empty list.
        """
        # oracle membership only (verification): no node's tables name it yet
        node = self.ring.add_node(node_id, name=name, host=host, rebuild=False)
        owner, _ = self.local_lookup(bootstrap, node_id)
        if owner is not None:
            if self._control_message(node, owner) and self._control_message(owner, node):
                node.successors = self._merged_successors(node, owner)
            else:
                node.successors = [owner]
        else:
            node.successors = [node]
        self.stats.joins += 1
        if self._m_churn is not None:
            self._m_churn.inc(("join",))
        if self._running:
            self._schedule_node(node)
        return node

    def leave(self, node: ChordNode, graceful: bool = True) -> None:
        """Departure: graceful leaves hand pointers over; crashes just die.

        Idempotent: leaving a node that already left is a no-op (a scheduled
        departure may race with an earlier crash of the same node).
        """
        if node.id not in self.ring.nodes_by_id or self.ring.nodes_by_id[node.id] is not node:
            return
        node.alive = False
        if graceful:
            succ = self._first_live_successor(node)
            if succ is not None and node.predecessor is not None and node.predecessor.alive:
                self._control_message(node, succ)
                self._control_message(node, node.predecessor)
                pred = node.predecessor
                pred.successors.insert(0, succ)
                del pred.successors[self.ring.successor_list_len :]
                pred.invalidate_routing()
                if succ.predecessor is node:
                    succ.predecessor = pred
            self.stats.leaves += 1
            if self._m_churn is not None:
                self._m_churn.inc(("leave",))
        else:
            self.stats.crashes += 1
            if self._m_churn is not None:
                self._m_churn.inc(("crash",))
        self.ring.remove_node(node, rebuild=False)

    # -- verification ------------------------------------------------------------------------

    def ring_consistent(self) -> bool:
        """Every live node's immediate successor matches the oracle ring."""
        nodes = self.ring.nodes()
        n = len(nodes)
        if n <= 1:
            return True
        for pos, node in enumerate(nodes):
            expected = nodes[(pos + 1) % n]
            succ = self._first_live_successor(node)
            if succ is not expected:
                return False
        return True

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
