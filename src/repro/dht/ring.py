"""The Chord ring: membership, table construction (with optional PNS) and lookups.

The simulator builds rings *structurally*: after any membership change the
affected routing state is recomputed from the global sorted membership, which
is the steady state Chord's stabilisation protocol converges to.  The paper
measures queries "after system stabilization" (§4.1), so simulating the
stabilisation chatter itself would only add constant background traffic; the
piggybacking argument of §3.3 is why the paper treats maintenance cost as
amortised away.

**Proximity neighbour selection** (Chord-PNS [9], the paper's protocol):
each node may choose, for finger level ``i``, *any* node whose identifier
falls in ``[n + 2^i, n + 2^(i+1))`` — PNS picks the physically closest
candidate by network latency.  Correctness is unaffected (any candidate is a
valid finger); lookup latency drops.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable

import numpy as np

from repro.dht.hashing import node_id
from repro.dht.idspace import finger_slots, owner_slot, owner_slots, slots_between
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
        self._sorted_ids: list[int] = []
        #: addresses handed out: one per node placed and per move
        self._addresses = 0

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes_by_id)

    def __iter__(self) -> Iterable[ChordNode]:
        return iter(self.nodes())

    def nodes(self) -> list[ChordNode]:
        """All nodes in identifier order."""
        return [self.nodes_by_id[i] for i in self._sorted_ids]

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
        ring._sorted_ids = sorted(ring.nodes_by_id)
        ring.rebuild_tables()
        return ring

    def add_node(self, node_id_: int, name: str = "", host: int = 0, rebuild: bool = True) -> ChordNode:
        """Insert a node with an explicit identifier (join)."""
        if node_id_ in self.nodes_by_id:
            raise ValueError(f"identifier {node_id_:#x} already on the ring")
        node = ChordNode(node_id_, self._address(), self.m, self.successor_list_len,
                         name=name, host=host)
        self.nodes_by_id[node_id_] = node
        insort(self._sorted_ids, node_id_)
        if rebuild:
            self.rebuild_tables()
        return node

    def remove_node(self, node: ChordNode, rebuild: bool = True) -> None:
        """Remove a node (leave)."""
        del self.nodes_by_id[node.id]
        del self._sorted_ids[bisect_left(self._sorted_ids, node.id)]
        if rebuild:
            self.rebuild_tables()

    def move_node(self, node: ChordNode, new_id: int) -> ChordNode:
        """Leave-and-rejoin with a chosen identifier (dynamic load balancing).

        Returns the same node object with its identifier replaced and a new
        address, so peers tell it from its former self; routing tables are
        rebuilt.
        """
        if new_id in self.nodes_by_id:
            raise ValueError(f"identifier {new_id:#x} already on the ring")
        self.remove_node(node, rebuild=False)
        node.id = int(new_id)
        node.addr = self._address()
        self.nodes_by_id[node.id] = node
        insort(self._sorted_ids, node.id)
        self.rebuild_tables()
        return node

    def _address(self) -> str:
        self._addresses += 1
        return f"sim:{self._addresses}"

    # -- oracle lookups --------------------------------------------------------

    def successor_of(self, key: int) -> ChordNode:
        """The node owning ``key`` (first node clockwise from ``key``)."""
        if not self._sorted_ids:
            raise RuntimeError("empty ring")
        ids = self._sorted_ids
        return self.nodes_by_id[ids[owner_slot(ids, key % (1 << self.m))]]

    def owners_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised ``successor_of`` for bulk index loading.

        Returns, for each key, the position of the owning node within
        :meth:`nodes` (identifier order).
        """
        return owner_slots(self._sorted_ids, keys)

    # -- table construction ------------------------------------------------------

    def rebuild_tables(self) -> None:
        """Recompute every node's successor list, predecessor and fingers
        as ring entries (the next and previous node's; a lone node has no
        successor, no finger and itself as predecessor).

        This is the stabilised steady state; with PNS enabled, fingers are
        the lowest-latency members of their candidate intervals.
        """
        ids = self._sorted_ids
        n = len(ids)
        if n == 0:
            return
        nodes = self.nodes()
        entries = [node.entry() for node in nodes]
        r = min(self.successor_list_len, n - 1)
        for pos, node in enumerate(nodes):
            node.successors = [entries[(pos + 1 + i) % n] for i in range(r)]
            node.predecessor = entries[pos - 1]
        if n == 1:
            nodes[0].fingers = {}
        elif self.pns:
            hosts = np.asarray([nd.host for nd in nodes], dtype=np.intp)
            for node in nodes:
                node.fingers = {i: entries[s] for i, s in enumerate(self._pns_slots(node, hosts))}
        else:
            for node, slots in zip(nodes, finger_slots(ids, self.m).tolist()):
                node.fingers = {i: entries[s] for i, s in enumerate(slots)}

    def _pns_slots(self, node: ChordNode, hosts: np.ndarray) -> list[int]:
        """PNS: finger ``i`` = the lowest-latency member of ``[id + 2^i, id + 2^(i+1))``;
        with no member there, classic Chord's ``successor(id + 2^i)``.  As
        positions in :meth:`nodes`."""
        ids = self._sorted_ids
        size = 1 << self.m
        slots: list[int] = []
        for i in range(self.m):
            start = (node.id + (1 << i)) % size
            cand = slots_between(ids, start, (node.id + (2 << i)) % size)
            if cand.size == 0:
                slots.append(owner_slot(ids, start))
                continue
            lat = self.latency.latency_row(node.host, hosts[cand])
            slots.append(int(cand[int(np.argmin(lat))]))
        return slots

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
