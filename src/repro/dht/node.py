"""A simulated Chord node: the live node's state, plus next-hop selection.

A :class:`ChordNode` *is* a :class:`repro.dht.maintenance.ChordState`, as
the live node is: its successor list, predecessor and fingers are ring
entries, written by :class:`repro.dht.ring.ChordRing` (the oracle tables)
and by the maintenance step itself, which
:class:`repro.dht.stabilize.StabilizationProtocol` runs on the node.  A
simulated entry also names its node (``"node"``), so routing resolves a hop
without a directory.

The routing table follows the paper's footnote 4: it is "composed of a
finger table, a successor list and the current node itself", and the
``next_hop`` of a key is "the one from the routing table whose identifier is
immediately before the prefix_key of the query on the ring" — i.e. the
closest *preceding* table entry, which is exactly Chord's greedy forwarding
rule.  The rule itself is :func:`repro.dht.idspace.closest_preceding`, shared
with the live node; this class answers it with one bisection of its table
sorted by clockwise distance.  When ``next_hop`` returns the node itself, the
node is (in its view) the predecessor of the key and the key's owner is its
successor — Algorithm 3 then invokes ``SurrogateRefine`` on the successor.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from typing import Any

from repro.dht.maintenance import ChordState

__all__ = ["ChordNode"]


class ChordNode(ChordState):
    """One overlay node: :class:`~repro.dht.maintenance.ChordState`'s
    fields, and these.

    Attributes
    ----------
    name:
        Human-readable name the id was hashed from.
    host:
        Endpoint index into the latency model (its "IP address").
    alive:
        Liveness flag of the churn simulation.

    ``fingers`` holds every level ``0 .. m-1`` in ascending order, or none
    while the node is alone: level ``i`` is the first node clockwise of
    ``id + 2**i``; with PNS the oracle picks instead the lowest-latency node
    in ``[id + 2**i, id + 2**(i+1))``.  Between maintenance steps
    :meth:`settle` keeps it so.
    """

    def __init__(self, node_id: int, addr: str, m: int, succ_list_len: int,
                 name: str = "", host: int = 0) -> None:
        super().__init__(int(node_id), addr, m, succ_list_len)
        self.name = name or f"node-{node_id:x}"
        self.host = host
        self.alive = True
        #: next_hop's table: the id mask, the distinct clockwise distances
        #: from ``id`` to the finger and successor entries, ascending, and
        #: the node at each.
        #: Built by the first ``next_hop`` after :meth:`invalidate_routing`,
        #: so a node that never routes a key (a 100k-node ring is built in
        #: bulk) pays nothing.
        self._nh_table: tuple[int, list[int], list[ChordNode]] | None = None

    def __repr__(self) -> str:
        return f"ChordNode({self.name}, id={self.id:#x})"

    def entry(self) -> dict[str, Any]:
        """This node's ring entry, naming the node too."""
        return {"id": self.id, "addr": self.addr, "node": self}

    # -- routing -------------------------------------------------------------

    def successor_node(self) -> ChordNode:
        """The successor as a node — the surrogate of a key this node
        precedes; the node itself while alone."""
        succs = self.successors
        node: ChordNode = succs[0]["node"] if succs else self
        return node

    def routing_table(self) -> Iterable[ChordNode]:
        """Finger table + successor list + self (footnote 4), as nodes."""
        seen: set[int] = set()
        for n in (self, *(e["node"] for e in (*self.fingers.values(), *self.successors))):
            if n.id not in seen:
                seen.add(n.id)
                yield n

    def invalidate_routing(self) -> None:
        """Drop the next-hop table after a routing-table change.

        Must be called by anything that changes ``fingers``, ``successors``
        or ``id`` — :meth:`ChordRing.rebuild_tables` and :meth:`settle` are
        the two mutation sites.  ``next_hop`` is a pure function of those
        inputs, so between invalidations the table is exact.
        """
        self._nh_table = None

    def settle(self) -> None:
        """After a maintenance operation or a served request: every finger
        level the step does not hold — a start up to the successor, one not
        looked up yet, a dropped one — is set to the successor, which the
        lookup step falls back to, and the levels are put back in ascending
        order (:meth:`fix_finger` adds them round-robin); no finger while
        alone.  Then :meth:`invalidate_routing`."""
        succs = self.successors
        if succs:
            succ, held = succs[0], self.fingers
            self.fingers = {i: held.get(i, succ) for i in range(self.m)}
        else:
            self.fingers = {}
        self.invalidate_routing()

    def next_hop(self, key: int) -> ChordNode:
        """Closest table entry strictly preceding ``key`` on the ring.

        Returns ``self`` when no table entry is closer to the key than this
        node — meaning this node believes itself the key's predecessor.
        Entries whose identifier *equals* the key are never returned (the
        owner is reached via its predecessor's successor pointer).

        Same answer as :func:`repro.dht.idspace.closest_preceding` over the
        fingers by level then the successor list, each entry at its node's
        current id: the entry with the largest clockwise distance
        from ``id`` below the key's, the first in table order on a tie;
        ``key == id`` routes the full ring.
        """
        table = self._nh_table
        if table is None:
            table = self._nh_table = self._next_hop_table()
        mask, dists, nodes = table
        # entries strictly between id and key: distance <= (key - id - 1) mod 2^m
        pos = bisect_right(dists, (key - self.id - 1) & mask)
        return nodes[pos - 1] if pos else self

    def _next_hop_table(self) -> tuple[int, list[int], list[ChordNode]]:
        mask = (1 << self.m) - 1
        first: dict[int, ChordNode] = {}
        for e in (*self.fingers.values(), *self.successors):
            n = e["node"]
            first.setdefault((n.id - self.id) & mask, n)
        first.pop(0, None)  # self never precedes a key
        dists = sorted(first)
        return mask, dists, [first[d] for d in dists]
