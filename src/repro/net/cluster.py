"""Cluster runtimes: in-process task clusters, OS-process nodes, and the demo.

Three ways to run a ring of :class:`~repro.net.node.NodeProcess`:

* :class:`LocalCluster` — N nodes as asyncio tasks in one process, sharing
  one event loop.  The workhorse of the test suite and the CI live-backend
  smoke: real TCP sockets and framing, no process management.
* :func:`spawn_node_process` / ``repro node`` — one node per OS process
  (what Docker Compose runs).  The crash-recovery test drives this to
  SIGKILL a node mid-workload and restart it on the same data directory.
* :class:`ClusterClient` — the querying peer: a listener-less
  :class:`TcpTransport` that walks range queries over the owners itself and
  asks nodes to insert and report status; used by tests, the demo and the
  ``repro cluster`` CLI.

:func:`run_cluster_demo` is the acceptance scenario from the issue: boot N
nodes, insert a workload, range-query it, SIGKILL-or-stop one node, verify
the ring re-converges and the restarted node recovers its shard
bit-identically (WAL/snapshot digest equality), then re-check recall
against a local brute-force scan.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TypeGuard

import numpy as np

from repro.core.index_space import MAX_BOUND, IndexSpaceBounds
from repro.core.lph import lp_hash_batch
from repro.dht.hashing import rotation_offset
from repro.dht.maintenance import ring_violations, status_links
from repro.net.node import NodeConfig, NodeProcess, RingWalker, accepted_count, entry_batch
from repro.net.transport import RpcError, TcpTransport

__all__ = [
    "ClusterClient",
    "LocalCluster",
    "spawn_node_process",
    "run_cluster_demo",
    "DemoReport",
]


def _is_index(value: Any) -> TypeGuard[dict[str, Any]]:
    """Whether ``value`` describes an index a client can walk: ``{"name":
    str, "m": int in [1, 64], "k": int in [1, m], "bounds_low" < "bounds_high",
    both numbers of magnitude at most MAX_BOUND}`` (the rule of the
    :class:`IndexSpaceBounds` built from it).  Keys are uint64, and each of
    their ``m`` bits halves one of the ``k`` dimensions (a dimension no bit
    halves is not indexed)."""
    if not isinstance(value, dict):
        return False
    m, k, low, high = (value.get(f) for f in ("m", "k", "bounds_low", "bounds_high"))
    return (isinstance(value.get("name"), str) and type(m) is int and 1 <= m <= 64
            and type(k) is int and 1 <= k <= m
            and all(type(b) in (int, float) and abs(b) <= MAX_BOUND for b in (low, high))
            and low < high)


class ClusterClient:
    """The querying peer of a live ring: it walks its queries itself, and
    asks a node to insert, report its status or wait for convergence."""

    def __init__(self, fmt: str = "json", rpc_timeout: float = 5.0) -> None:
        self.transport = TcpTransport(fmt=fmt, rpc_timeout=rpc_timeout)
        #: the owner walk over what this client has learned of the ring,
        #: built from the index the first query reads (:meth:`_learn_index`)
        self.walker: RingWalker | None = None

    async def start(self) -> None:
        await self.transport.start(listen=False)

    async def close(self) -> None:
        await self.transport.close()

    async def insert(self, addr: str, keys: np.ndarray, points: np.ndarray,
                     object_ids: np.ndarray) -> int:
        """Route a batch into the ring through the node at ``addr``.  A
        batch that is not uint64-range integer keys, int64 ids and one row
        of real numbers per key is an :class:`RpcError` before any frame is
        sent (:func:`~repro.net.node.entry_batch`; the node holds the keys
        to its ``m`` and the rows to its ``k``)."""
        keys, points, object_ids = entry_batch(keys, points, object_ids, 64, None)
        reply = await self.transport.rpc(
            addr, "route_insert", {"keys": keys, "points": points, "ids": object_ids})
        return accepted_count(reply, len(keys))

    async def query(self, addr: str, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Distributed range query, walked by this client: the object ids
        of the entries inside the rectangle, sorted, unique, ``int64``.

        :meth:`RingWalker.range_query` runs here, as on a node: an owner is
        found through the previous owner's successors or the view of the
        arcs earlier owners proved, else by a lookup that starts at the node
        at ``addr``.  So a warm client sends one ``range_solve`` per owner
        and nothing else.  A rectangle that is not two vectors of ``k``
        floats, and every reply that breaks the ownership contract, raise
        :class:`RpcError`.
        """
        walker = self.walker or await self._learn_index(addr)
        return await walker.range_query(lows, highs, via=addr)

    async def _learn_index(self, addr: str) -> RingWalker:
        """Read the ring's index from the ``status`` of the node at ``addr``
        (:class:`RpcError` unless :func:`_is_index` holds) and build the
        walker over it."""
        status = await self.status(addr)
        index = status.get("index") if isinstance(status, dict) else None
        if not _is_index(index):
            raise RpcError(f"status of {addr}: malformed index: {str(index)[:80]}")
        m = index["m"]
        self.walker = RingWalker(
            self.transport, m,
            IndexSpaceBounds.uniform(index["k"], index["bounds_low"], index["bounds_high"]),
            rotation_offset(index["name"], m))
        return self.walker

    async def status(self, addr: str) -> dict[str, Any]:
        """The node at ``addr`` reports its state; once this client walks
        queries, the node's entry and arc go into its ring view as hints."""
        reply: dict[str, Any] = await self.transport.rpc(addr, "status", None)
        if self.walker is not None:
            self.walker.heard_status(reply)
        return reply

    async def snapshot(self, addr: str) -> dict[str, Any]:
        return await self.transport.rpc(addr, "snapshot", None)

    async def wait_converged(self, addrs: list[str], timeout: float = 30.0,
                             poll: float = 0.1) -> bool:
        """Wait until the nodes at ``addrs`` form one consistent ring:
        their ``status`` replies, read as :func:`status_links`, pass
        :func:`ring_violations` — by id and address, a lone node included.
        A node that does not answer, or answers with a malformed status
        (its ``m`` taken from the first node's index), is not converged."""
        deadline = self.transport.now + timeout
        while self.transport.now < deadline:
            try:
                statuses = [await self.status(a) for a in addrs]
            except RpcError:
                statuses = []
            index = statuses[0].get("index") if statuses and isinstance(statuses[0], dict) else None
            if _is_index(index) and not ring_violations(
                    [status_links(s, index["m"]) for s in statuses]):
                return True
            await asyncio.sleep(poll)
        return False


class LocalCluster:
    """N live nodes as asyncio tasks in this process (see module docstring)."""

    def __init__(
        self,
        n_nodes: int,
        data_root: str | Path | None = None,
        m: int = 32,
        k: int = 2,
        bounds_low: float = 0.0,
        bounds_high: float = 1000.0,
        index_name: str = "index",
        fmt: str = "json",
        stabilize_interval: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.n_nodes = n_nodes
        self._tmp: tempfile.TemporaryDirectory[str] | None = None
        if data_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            data_root = self._tmp.name
        self.data_root = Path(data_root)
        self.nodes: list[NodeProcess] = []
        self._base = dict(
            m=m, k=k, bounds_low=bounds_low, bounds_high=bounds_high,
            index_name=index_name, fmt=fmt,
            stabilize_interval=stabilize_interval, seed=seed,
        )

    def _config(self, i: int, bootstrap: str | None) -> NodeConfig:
        return NodeConfig(
            name=f"node-{i}",
            data_dir=str(self.data_root / f"node-{i}"),
            bootstrap=bootstrap,
            host=i,
            **self._base,
        )

    async def start(self) -> list[str]:
        """Boot all nodes (node 0 seeds the ring) and return their addrs."""
        first = NodeProcess(self._config(0, None))
        await first.start()
        self.nodes = [first]
        for i in range(1, self.n_nodes):
            node = NodeProcess(self._config(i, first.addr))
            await node.start()
            self.nodes.append(node)
        return [n.addr for n in self.nodes]

    @property
    def addrs(self) -> list[str]:
        return [n.addr for n in self.nodes]

    async def stop_node(self, i: int) -> None:
        """Abrupt local stop (socket-level death; shard files stay on disk)."""
        await self.nodes[i].close()

    async def restart_node(self, i: int, bootstrap: str | None = None) -> str:
        """Re-create node ``i`` on its existing data dir and rejoin."""
        if bootstrap is None:
            others = [n.addr for j, n in enumerate(self.nodes) if j != i]
            bootstrap = others[0] if others else None
        node = NodeProcess(self._config(i, bootstrap))
        await node.start()
        self.nodes[i] = node
        return node.addr

    async def close(self) -> None:
        # every node's rounds stop before any node closes: a round that dials
        # a node as it closes can leave it an accepted socket nobody closes
        for node in self.nodes:
            await node.stop_rounds()
        for node in self.nodes:
            await node.close()
        self.nodes = []
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def spawn_node_process(
    name: str,
    data_dir: str | Path,
    port: int,
    bootstrap: str | None = None,
    m: int = 32,
    k: int = 2,
    bounds_low: float = 0.0,
    bounds_high: float = 1000.0,
    extra_args: tuple[str, ...] = (),
) -> subprocess.Popen[bytes]:
    """Launch ``repro node`` as a child OS process (SIGKILL-able).

    Used by the crash-recovery test and mirrors what each Compose service
    runs; the child is fully described by CLI flags so a restart with the
    same flags is a faithful crash recovery.
    """
    cmd = [
        sys.executable, "-m", "repro.cli", "node",
        "--name", name,
        "--data-dir", str(data_dir),
        "--port", str(port),
        "--m", str(m), "--k", str(k),
        "--bounds-low", str(bounds_low), "--bounds-high", str(bounds_high),
    ]
    if bootstrap:
        cmd += ["--bootstrap", bootstrap]
    cmd += list(extra_args)
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(cmd, env=env)


def kill_node_process(proc: subprocess.Popen[bytes]) -> None:
    """SIGKILL — no flush, no atexit: the crash the WAL must survive."""
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=10)


@dataclass
class DemoReport:
    """Outcome of :func:`run_cluster_demo` (printed by ``repro cluster``)."""

    n_nodes: int
    n_entries: int
    n_queries: int
    recall_before: float
    recall_after: float
    killed_node: str
    digest_before: int
    digest_after: int
    converged_after_kill: bool
    converged_after_rejoin: bool
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.recall_before == 1.0
            and self.recall_after == 1.0
            and self.digest_before == self.digest_after
            and self.converged_after_kill
            and self.converged_after_rejoin
        )


def _brute_force(points: np.ndarray, ids: np.ndarray,
                 lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    mask = np.all((points >= lows) & (points <= highs), axis=1)
    return np.sort(ids[mask])


async def _measure_recall(client: ClusterClient, addr: str, rects: list[tuple[np.ndarray, np.ndarray]],
                          points: np.ndarray, ids: np.ndarray) -> float:
    """Mean recall of distributed queries vs a local linear scan."""
    recalls = []
    for lows, highs in rects:
        got = np.sort(await client.query(addr, lows, highs))
        want = _brute_force(points, ids, lows, highs)
        if len(want) == 0:
            continue
        recalls.append(len(np.intersect1d(got, want)) / len(want))
    return float(np.mean(recalls)) if recalls else 1.0


async def run_cluster_demo(
    n_nodes: int = 8,
    n_entries: int = 512,
    n_queries: int = 16,
    m: int = 32,
    k: int = 2,
    seed: int = 0,
    data_root: str | Path | None = None,
) -> DemoReport:
    """Insert → query → kill a node → rejoin → re-query (the issue's demo).

    Faults are off, so recall against brute force must be exactly 1.0 both
    before the kill and after the rejoin, and the restarted node's shard
    digest must equal its pre-kill digest (WAL/snapshot recovery).
    """
    kill_index = 2  # neither the node that takes the inserts nor the first one queried
    bounds = IndexSpaceBounds.uniform(k, 0.0, 1000.0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1000.0, size=(n_entries, k))
    ids = np.arange(n_entries, dtype=np.int64)
    keys = lp_hash_batch(points, bounds, m)
    rects = []
    for _ in range(n_queries):
        center = rng.uniform(100.0, 900.0, size=k)
        half = rng.uniform(20.0, 120.0, size=k)
        rects.append((center - half, center + half))

    cluster = LocalCluster(n_nodes, data_root=data_root, m=m, k=k)
    client = ClusterClient()
    notes: list[str] = []
    try:
        addrs = await cluster.start()
        await client.start()
        if not await client.wait_converged(addrs):
            notes.append("initial convergence timed out")
        accepted = await client.insert(addrs[0], keys, points, ids)
        if accepted != n_entries:
            notes.append(f"accepted {accepted}/{n_entries} entries")
        recall_before = await _measure_recall(client, addrs[1], rects, points, ids)

        victim = cluster.nodes[kill_index]
        victim_name = victim.config.name
        digest_before = victim.shard.digest()
        await cluster.stop_node(kill_index)
        survivors = [a for i, a in enumerate(addrs) if i != kill_index]
        converged_after_kill = await client.wait_converged(survivors)

        await cluster.restart_node(kill_index, bootstrap=survivors[0])
        digest_after = cluster.nodes[kill_index].shard.digest()
        converged_after_rejoin = await client.wait_converged(cluster.addrs)
        recall_after = await _measure_recall(
            client, cluster.addrs[kill_index], rects, points, ids)
    finally:
        await client.close()
        await cluster.close()

    return DemoReport(
        n_nodes=n_nodes,
        n_entries=n_entries,
        n_queries=n_queries,
        recall_before=recall_before,
        recall_after=recall_after,
        killed_node=victim_name,
        digest_before=digest_before,
        digest_after=digest_after,
        converged_after_kill=converged_after_kill,
        converged_after_rejoin=converged_after_rejoin,
        notes=notes,
    )
