"""A Chord node: identifier, routing state and next-hop selection.

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

__all__ = ["ChordNode"]


class ChordNode:
    """One overlay node.

    Attributes
    ----------
    id:
        ``m``-bit identifier (int).
    name:
        Human-readable name the id was hashed from.
    host:
        Endpoint index into the latency model (its "IP address").
    fingers:
        ``fingers[i]`` is the first node clockwise of ``id + 2**i``
        (``i = 0 .. m-1``); with PNS enabled it is instead the lowest-latency
        node whose identifier lies in ``[id + 2**i, id + 2**(i+1))``.
    successors:
        The next ``r`` nodes clockwise (paper default r = 16).
    predecessor:
        The node immediately counter-clockwise.
    """

    __slots__ = (
        "id",
        "name",
        "host",
        "m",
        "fingers",
        "successors",
        "predecessor",
        "alive",
        "_nh_table",
    )

    def __init__(self, node_id: int, m: int, name: str = "", host: int = 0) -> None:
        self.id = int(node_id)
        self.m = m
        self.name = name or f"node-{node_id:x}"
        self.host = host
        self.fingers: list[ChordNode] = []
        self.successors: list[ChordNode] = []
        self.predecessor: ChordNode | None = None
        #: liveness flag used by the churn/stabilisation simulation.
        self.alive: bool = True
        #: next_hop's table: the id mask, the distinct clockwise distances
        #: from ``id`` to the finger and successor entries, ascending, and
        #: the entry at each.
        #: Built by the first ``next_hop`` after :meth:`invalidate_routing`,
        #: so a node that never routes a key (a 100k-node ring is built in
        #: bulk) pays nothing.
        self._nh_table: tuple[int, list[int], list[ChordNode]] | None = None

    def __repr__(self) -> str:
        return f"ChordNode({self.name}, id={self.id:#x})"

    # -- routing -------------------------------------------------------------

    @property
    def successor(self) -> ChordNode:
        """Immediate successor (first entry of the successor list)."""
        if not self.successors:
            return self
        return self.successors[0]

    def routing_table(self) -> Iterable[ChordNode]:
        """Finger table + successor list + self (footnote 4)."""
        seen: set[int] = set()
        for n in (self, *self.fingers, *self.successors):
            if n.id not in seen:
                seen.add(n.id)
                yield n

    def invalidate_routing(self) -> None:
        """Drop the next-hop table after a routing-table change.

        Must be called by anything that mutates ``fingers``, ``successors``
        or ``id`` — :meth:`ChordRing.rebuild_tables` and the stabilisation
        protocol's repair steps are the two mutation sites.  ``next_hop`` is
        a pure function of those inputs, so between invalidations the table
        is exact.
        """
        self._nh_table = None

    def next_hop(self, key: int) -> ChordNode:
        """Closest table entry strictly preceding ``key`` on the ring.

        Returns ``self`` when no table entry is closer to the key than this
        node — meaning this node believes itself the key's predecessor.
        Entries whose identifier *equals* the key are never returned (the
        owner is reached via its predecessor's successor pointer).

        Same answer as :func:`repro.dht.idspace.closest_preceding` over
        ``fingers + successors``: the entry with the largest clockwise
        distance from ``id`` below the key's, the first in table order on a
        tie; ``key == id`` routes the full ring.
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
        for n in (*self.fingers, *self.successors):
            first.setdefault((n.id - self.id) & mask, n)
        first.pop(0, None)  # self never precedes a key
        dists = sorted(first)
        return mask, dists, [first[d] for d in dists]
