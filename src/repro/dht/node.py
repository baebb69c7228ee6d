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
rule.  One memo answers it for simulated queries and for every maintenance
and live lookup alike: :meth:`ChordState.closest_preceding
<repro.dht.maintenance.ChordState.closest_preceding>`, which ``next_hop``
reads.  When ``next_hop`` returns the node itself, the node is (in its view)
the predecessor of the key and the key's owner is its successor — Algorithm 3
then invokes ``SurrogateRefine`` on the successor.
"""

from __future__ import annotations

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

    The oracle writes every finger level ``0 .. m-1``, or none while the
    node is alone: level ``i`` is the first node clockwise of ``id + 2**i``;
    with PNS the lowest-latency node in ``[id + 2**i, id + 2**(i+1))``.
    Maintenance then holds what the live node holds: the levels beyond the
    successor, in the order :meth:`fix_finger` refreshed them.
    """

    def __init__(self, node_id: int, addr: str, m: int, succ_list_len: int,
                 name: str = "", host: int = 0) -> None:
        super().__init__(int(node_id), addr, m, succ_list_len)
        self.name = name or f"node-{node_id:x}"
        self.host = host
        self.alive = True

    def __repr__(self) -> str:
        return f"ChordNode({self.name}, id={self.id:#x})"

    def entry(self) -> dict[str, Any]:
        """This node's ring entry, naming the node too."""
        return {"id": self.id, "addr": self.addr, "node": self}

    # -- routing -------------------------------------------------------------

    def successor_node(self) -> ChordNode:
        """The successor as a node — the surrogate of a key this node
        precedes; the node itself while alone."""
        succs = self._successors
        node: ChordNode = succs[0]["node"] if succs else self
        return node

    def routing_table(self) -> Iterable[ChordNode]:
        """Finger table + successor list + self (footnote 4), as nodes."""
        seen: set[int] = set()
        for n in (self, *(e["node"] for e in (*self.fingers.values(), *self.successors))):
            if n.id not in seen:
                seen.add(n.id)
                yield n

    def next_hop(self, key: int) -> ChordNode:
        """Closest table entry strictly preceding ``key`` on the ring, as a
        node (:meth:`~repro.dht.maintenance.ChordState.closest_preceding`);
        ``self`` when no entry is closer to the key than this node — it then
        believes itself the key's predecessor."""
        entry = self.closest_preceding(key)
        node: ChordNode = self if entry is None else entry["node"]
        return node
