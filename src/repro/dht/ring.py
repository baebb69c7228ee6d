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

from bisect import bisect_left
from collections.abc import Iterable

import numpy as np

from repro.dht.hashing import node_id, random_ids
from repro.dht.idspace import in_interval_open_closed
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
        id_source: str = "hash",
    ) -> ChordRing:
        """Construct a stabilised ring of ``n_nodes``.

        ``id_source="hash"`` derives ids by SHA-1 of node names (consistent
        hashing, as Chord does); ``"random"`` draws uniform ids directly.
        Hosts (latency endpoints) are assigned randomly from the latency
        model's host set.
        """
        rng = as_rng(seed)
        ring = cls(m=m, successor_list_len=successor_list_len, latency=latency, pns=pns)
        if id_source == "hash":
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
        elif id_source == "random":
            ids = [int(v) for v in random_ids(n_nodes, m, rng)]
        else:
            raise ValueError(f"unknown id_source {id_source!r}")
        if latency is not None:
            hosts = rng.permutation(latency.n_hosts)[:n_nodes] if latency.n_hosts >= n_nodes \
                else rng.integers(0, latency.n_hosts, size=n_nodes)
        else:
            hosts = np.arange(n_nodes)
        for i, nid in enumerate(ids):
            node = ChordNode(nid, m, name=f"node-{i}", host=int(hosts[i]))
            ring.nodes_by_id[nid] = node
        ring._sorted_ids = sorted(ring.nodes_by_id)
        ring.rebuild_tables()
        return ring

    def add_node(self, node_id_: int, name: str = "", host: int = 0, rebuild: bool = True) -> ChordNode:
        """Insert a node with an explicit identifier (join)."""
        if node_id_ in self.nodes_by_id:
            raise ValueError(f"identifier {node_id_:#x} already on the ring")
        node = ChordNode(node_id_, self.m, name=name, host=host)
        self.nodes_by_id[node_id_] = node
        idx = bisect_left(self._sorted_ids, node_id_)
        self._sorted_ids.insert(idx, node_id_)
        if rebuild:
            self.rebuild_tables()
        return node

    def remove_node(self, node: ChordNode, rebuild: bool = True) -> None:
        """Remove a node (leave)."""
        del self.nodes_by_id[node.id]
        idx = bisect_left(self._sorted_ids, node.id)
        del self._sorted_ids[idx]
        if rebuild:
            self.rebuild_tables()

    def move_node(self, node: ChordNode, new_id: int) -> ChordNode:
        """Leave-and-rejoin with a chosen identifier (dynamic load balancing).

        Returns the same node object with its identifier replaced; routing
        tables are rebuilt.
        """
        if new_id in self.nodes_by_id:
            raise ValueError(f"identifier {new_id:#x} already on the ring")
        del self.nodes_by_id[node.id]
        idx = bisect_left(self._sorted_ids, node.id)
        del self._sorted_ids[idx]
        node.id = int(new_id)
        self.nodes_by_id[node.id] = node
        self._sorted_ids.insert(bisect_left(self._sorted_ids, node.id), node.id)
        self.rebuild_tables()
        return node

    # -- oracle lookups --------------------------------------------------------

    def successor_of(self, key: int) -> ChordNode:
        """The node owning ``key`` (first node clockwise from ``key``)."""
        if not self._sorted_ids:
            raise RuntimeError("empty ring")
        idx = bisect_left(self._sorted_ids, key % (1 << self.m))
        if idx == len(self._sorted_ids):
            idx = 0
        return self.nodes_by_id[self._sorted_ids[idx]]

    def predecessor_of(self, key: int) -> ChordNode:
        """The last node strictly before ``key``."""
        if not self._sorted_ids:
            raise RuntimeError("empty ring")
        idx = bisect_left(self._sorted_ids, key % (1 << self.m)) - 1
        return self.nodes_by_id[self._sorted_ids[idx]]

    def interval_of(self, node: ChordNode) -> tuple[int, int]:
        """The ownership interval ``(predecessor_id, node_id]`` of a member.

        These are exactly the keys :meth:`successor_of` maps to ``node``
        (cyclic — ``lo > hi`` means the interval wraps through zero).  Used
        by the invariant checker to prove every key has exactly one owner.
        """
        if node.id not in self.nodes_by_id:
            raise ValueError(f"node {node.id:#x} not on the ring")
        idx = bisect_left(self._sorted_ids, node.id)
        return self._sorted_ids[idx - 1], node.id

    def owners_of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised ``successor_of`` for bulk index loading.

        Returns, for each key, the position of the owning node within
        :meth:`nodes` (identifier order).
        """
        ids = np.asarray(self._sorted_ids, dtype=np.uint64)
        keys = np.asarray(keys, dtype=np.uint64)
        idx = np.searchsorted(ids, keys, side="left")
        idx[idx == len(ids)] = 0
        return idx

    # -- table construction ------------------------------------------------------

    def rebuild_tables(self) -> None:
        """Recompute fingers, successor lists and predecessors for all nodes.

        This is the stabilised steady state; with PNS enabled, fingers are
        the lowest-latency members of their candidate intervals.
        """
        ids = self._sorted_ids
        n = len(ids)
        if n == 0:
            return
        nodes = [self.nodes_by_id[i] for i in ids]
        two_m = 1 << self.m
        id_arr = np.asarray(ids, dtype=np.uint64)
        r = min(self.successor_list_len, n - 1) if n > 1 else 0
        for pos, node in enumerate(nodes):
            node.successors = [nodes[(pos + 1 + i) % n] for i in range(r)] or [node]
            node.predecessor = nodes[(pos - 1) % n]
        if not self.pns:
            # Vectorised classic fingers: finger i of node = successor(id + 2^i),
            # one searchsorted over all (node, level) pairs.
            mask = np.uint64(two_m - 1)
            shifts = (np.uint64(1) << np.arange(self.m, dtype=np.uint64))
            starts = (id_arr[:, None] + shifts[None, :]) & mask
            idx = np.searchsorted(id_arr, starts.ravel(), side="left").reshape(n, self.m)
            idx[idx == n] = 0
            for pos, node in enumerate(nodes):
                node.fingers = [nodes[i] for i in idx[pos]] if n > 1 else []
                node.invalidate_routing()
            return
        for node in nodes:
            node.fingers = self._fingers_for(node, id_arr, nodes, two_m)
            node.invalidate_routing()

    def _fingers_for(
        self,
        node: ChordNode,
        id_arr: np.ndarray,
        nodes: list[ChordNode],
        two_m: int,
    ) -> list[ChordNode]:
        n = len(nodes)
        fingers: list[ChordNode] = []
        if n == 1:
            return fingers
        hosts = np.asarray([nd.host for nd in nodes], dtype=np.intp)
        for i in range(self.m):
            start = (node.id + (1 << i)) % two_m
            end = (node.id + (1 << (i + 1))) % two_m
            cand_pos = self._positions_in(id_arr, start, end)
            if cand_pos.size == 0:
                # No member in [start, end): classic Chord still points the
                # finger at successor(start).
                idx = int(np.searchsorted(id_arr, np.uint64(start), side="left"))
                if idx == n:
                    idx = 0
                fingers.append(nodes[idx])
                continue
            lat = self.latency.latency_row(node.host, hosts[cand_pos])
            fingers.append(nodes[int(cand_pos[int(np.argmin(lat))])])
        return fingers

    @staticmethod
    def _positions_in(id_arr: np.ndarray, start: int, end: int) -> np.ndarray:
        """Positions of sorted ids lying in the cyclic interval [start, end)."""
        if start == end:
            return np.arange(len(id_arr))
        if start < end:
            lo = np.searchsorted(id_arr, np.uint64(start), side="left")
            hi = np.searchsorted(id_arr, np.uint64(end), side="left")
            return np.arange(lo, hi)
        lo = np.searchsorted(id_arr, np.uint64(start), side="left")
        hi = np.searchsorted(id_arr, np.uint64(end), side="left")
        return np.concatenate([np.arange(lo, len(id_arr)), np.arange(0, hi)])

    # -- iterative lookup (used by the naive baseline and tests) -----------------

    def lookup_path(self, start: ChordNode, key: int) -> list[ChordNode]:
        """Greedy Chord lookup path from ``start`` to the owner of ``key``.

        Returns the node sequence ``[start, ..., owner]``; its length minus
        one is the hop count.
        """
        path = [start]
        current = start
        for _ in range(4 * self.m + len(self)):
            if in_interval_open_closed(key, current.id, current.successor.id, self.m):
                owner = current.successor
                if owner is not current:
                    path.append(owner)
                return path
            nh = current.next_hop(key)
            if nh is current:
                owner = current.successor
                if owner is not current:
                    path.append(owner)
                return path
            path.append(nh)
            current = nh
        raise RuntimeError(f"lookup for key {key:#x} did not converge")
