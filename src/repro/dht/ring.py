"""The event sim's Chord ring: node objects over one stabilised table.

:class:`ChordRing` keeps its members as :class:`~repro.dht.node.ChordNode`
objects and their stabilised steady state as ``table``, a
:class:`~repro.dht.compact.CompactChordRing` remade on every membership
change.  The oracle lookups read the table; :meth:`ChordRing.rebuild_tables`
writes each node's successor list, predecessor and fingers from its rows,
and maintenance then mutates the nodes' own tables.

The table is the steady state Chord's stabilisation protocol converges to.
The paper measures queries "after system stabilization" (§4.1), so
simulating the stabilisation chatter itself would only add constant
background traffic; the piggybacking argument of §3.3 is why the paper
treats maintenance cost as amortised away.

**Proximity neighbour selection** (Chord-PNS [9], the paper's protocol):
each node may choose, for finger level ``i``, *any* node whose identifier
falls in ``[n + 2^i, n + 2^(i+1))`` — PNS picks the physically closest
candidate by network latency (:meth:`CompactChordRing.pns_fingers`).
Correctness is unaffected (any candidate is a valid finger); lookup latency
drops.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.dht.compact import CompactChordRing
from repro.dht.hashing import node_id
from repro.dht.node import ChordNode
from repro.sim.network import LatencyModel
from repro.util.rng import as_rng

__all__ = ["ChordRing"]


class ChordRing:
    """Global view of a Chord overlay.

    Parameters
    ----------
    m:
        Identifier bits (paper: 64).
    successor_list_len:
        Successor-list length (paper / p2psim default: 16).
    latency:
        Optional latency model; required for PNS finger selection.
    pns:
        Enable proximity neighbour selection for fingers.
    """

    def __init__(
        self,
        m: int = 64,
        successor_list_len: int = 16,
        latency: LatencyModel | None = None,
        pns: bool = False,
    ) -> None:
        if pns and latency is None:
            raise ValueError("PNS finger selection needs a latency model")
        self.m = m
        self.successor_list_len = successor_list_len
        self.latency = latency
        self.pns = pns
        self.nodes_by_id: dict[int, ChordNode] = {}
        #: the members' stabilised tables, remade on every membership change
        self.table: CompactChordRing
        self._remake()
        #: addresses handed out: one per node placed and per move
        self._addresses = 0

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes_by_id)

    def __iter__(self) -> Iterable[ChordNode]:
        return iter(self.nodes())

    def nodes(self) -> list[ChordNode]:
        """All nodes in identifier order."""
        return [self.nodes_by_id[i] for i in self.table.ids.tolist()]

    @classmethod
    def build(
        cls,
        n_nodes: int,
        m: int = 64,
        seed: int | np.random.Generator | None = 0,
        latency: LatencyModel | None = None,
        pns: bool = False,
        successor_list_len: int = 16,
    ) -> ChordRing:
        """Construct a stabilised ring of ``n_nodes``.

        Ids are derived by SHA-1 of node names (consistent hashing, as Chord
        does).  Hosts (latency endpoints) are assigned randomly from the
        latency model's host set.
        """
        rng = as_rng(seed)
        ring = cls(m=m, successor_list_len=successor_list_len, latency=latency, pns=pns)
        ids: list[int] = []
        seen: set[int] = set()
        salt = 0
        while len(ids) < n_nodes:
            nid = node_id(f"node-{len(ids)}-{salt}", m)
            if nid in seen:
                salt += 1
                continue
            seen.add(nid)
            ids.append(nid)
        if latency is not None:
            hosts = rng.permutation(latency.n_hosts)[:n_nodes] if latency.n_hosts >= n_nodes \
                else rng.integers(0, latency.n_hosts, size=n_nodes)
        else:
            hosts = np.arange(n_nodes)
        for i, nid in enumerate(ids):
            node = ChordNode(nid, ring._address(), m, successor_list_len, name=f"node-{i}",
                             host=int(hosts[i]))
            ring.nodes_by_id[nid] = node
        ring._remake()
        return ring

    def add_node(self, node_id_: int, name: str = "", host: int = 0, rebuild: bool = True) -> ChordNode:
        """Insert a node with an explicit identifier (join)."""
        if node_id_ in self.nodes_by_id:
            raise ValueError(f"identifier {node_id_:#x} already on the ring")
        node = ChordNode(node_id_, self._address(), self.m, self.successor_list_len,
                         name=name, host=host)
        self.nodes_by_id[node_id_] = node
        self._remake(rebuild)
        return node

    def remove_node(self, node: ChordNode, rebuild: bool = True) -> None:
        """Remove a node (leave)."""
        del self.nodes_by_id[node.id]
        self._remake(rebuild)

    def move_node(self, node: ChordNode, new_id: int) -> ChordNode:
        """Leave-and-rejoin with a chosen identifier (dynamic load balancing).

        Returns the same node object with its identifier replaced and a new
        address, so peers tell it from its former self; routing tables are
        rebuilt.
        """
        if new_id in self.nodes_by_id:
            raise ValueError(f"identifier {new_id:#x} already on the ring")
        del self.nodes_by_id[node.id]
        node.id = int(new_id)
        node.addr = self._address()
        self.nodes_by_id[node.id] = node
        self._remake()
        return node

    def _remake(self, rebuild: bool = True) -> None:
        """Remake ``table`` for the current members; with ``rebuild``, write
        every node's tables from it."""
        nodes = self.nodes_by_id.values()
        self.table = CompactChordRing(
            np.fromiter((node.id for node in nodes), dtype=np.uint64, count=len(nodes)),
            np.fromiter((node.host for node in nodes), dtype=np.int64, count=len(nodes)),
            m=self.m, successor_list_len=self.successor_list_len)
        if rebuild:
            self.rebuild_tables()

    def _address(self) -> str:
        self._addresses += 1
        return f"sim:{self._addresses}"

    # -- oracle lookups --------------------------------------------------------

    def successor_of(self, key: int) -> ChordNode:
        """The node owning ``key`` (first node clockwise from ``key``)."""
        ids = self.table.ids
        if not len(ids):
            raise RuntimeError("empty ring")
        slot = int(ids.searchsorted(np.uint64(key % (1 << self.m))))
        return self.nodes_by_id[int(ids[slot % len(ids)])]

    # -- table construction ------------------------------------------------------

    def rebuild_tables(self) -> None:
        """Write every node's successor list, predecessor and fingers as ring
        entries from ``table``'s rows (the next and previous node's; a lone
        node has no successor, no finger and itself as predecessor).

        This is the stabilised steady state; with PNS enabled, fingers are
        the lowest-latency members of their candidate intervals
        (:meth:`CompactChordRing.pns_fingers`).
        """
        nodes = self.nodes()
        n = len(nodes)
        if n == 0:
            return
        entries = [node.entry() for node in nodes]
        r = min(self.successor_list_len, n - 1)
        rows = self.table.pns_fingers(self.latency) if self.pns else self.table.fingers
        for pos, (node, row) in enumerate(zip(nodes, rows.tolist())):
            node.successors = [entries[(pos + 1 + i) % n] for i in range(r)]
            node.predecessor = entries[pos - 1]
            node.fingers = {i: entries[s] for i, s in enumerate(row)} if n > 1 else {}

    # -- iterative lookup (used by the naive baseline and tests) -----------------

    def lookup_path(self, start: ChordNode, key: int) -> list[ChordNode]:
        """Greedy Chord lookup path from ``start`` to the owner of ``key``.

        Returns the node sequence ``[start, ..., owner]``; its length minus
        one is the hop count.
        """
        path = [start]
        current = start
        for _ in range(4 * self.m + len(self)):
            nh = current.next_hop(key)
            if nh is current:
                # no table entry precedes the key: the successor owns it
                owner = current.successor_node()
                if owner is not current:
                    path.append(owner)
                return path
            path.append(nh)
            current = nh
        raise RuntimeError(f"lookup for key {key:#x} did not converge")
