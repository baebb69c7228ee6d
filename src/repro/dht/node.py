"""A Chord node: identifier, routing state and next-hop selection.

The routing table follows the paper's footnote 4: it is "composed of a
finger table, a successor list and the current node itself", and the
``next_hop`` of a key is "the one from the routing table whose identifier is
immediately before the prefix_key of the query on the ring" — i.e. the
closest *preceding* table entry, which is exactly Chord's greedy forwarding
rule.  The rule itself is :func:`repro.dht.idspace.closest_preceding`, shared
with the live node; this class holds the table it runs over and memoises the
answer.  When ``next_hop`` returns the node itself, the node is (in its view)
the predecessor of the key and the key's owner is its successor — Algorithm 3
then invokes ``SurrogateRefine`` on the successor.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.dht.idspace import closest_preceding

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
        "_nh_cache",
    )

    #: safety cap of the per-node next-hop memo (distinct prefix keys seen
    #: between table changes); prevents unbounded growth on huge workloads.
    NH_CACHE_MAX = 4096

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
        #: key -> next_hop memo, dropped by :meth:`invalidate_routing`.
        #: Allocated lazily: a node that never routes a key pays nothing,
        #: which matters when a 100k-node ring is built in bulk (a dict
        #: header per node adds up to MBs before any traffic flows).
        self._nh_cache: dict[int, ChordNode] | None = None

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
        """Drop memoised lookups after a routing-table change.

        Must be called by anything that mutates ``fingers``, ``successors``
        or ``id`` — :meth:`ChordRing.rebuild_tables` and the stabilisation
        protocol's repair steps are the two mutation sites.  ``next_hop`` is
        a pure function of those inputs, so between invalidations the memo
        is exact.
        """
        if self._nh_cache:
            self._nh_cache.clear()

    def next_hop(self, key: int) -> ChordNode:
        """Closest table entry strictly preceding ``key`` on the ring.

        Returns ``self`` when no table entry is closer to the key than this
        node — meaning this node believes itself the key's predecessor.
        Entries whose identifier *equals* the key are never returned (the
        owner is reached via its predecessor's successor pointer).

        Memoised per key until :meth:`invalidate_routing` — the routing
        algorithms look the same prefix key up several times per hop (the
        split check and the forwarding pass), and popular short prefixes
        recur across queries.
        """
        cache = self._nh_cache
        if cache is None:
            cache = self._nh_cache = {}
        hit = cache.get(key)
        if hit is not None:
            return hit
        table = (*self.fingers, *self.successors)  # self never precedes a key
        pos = closest_preceding(self.id, key, [n.id for n in table], self.m)
        best = table[pos] if pos >= 0 else self
        if len(cache) >= self.NH_CACHE_MAX:
            cache.clear()
        cache[key] = best
        return best
