"""A live join splices the node into the ring: no periodic round needed.

A joiner's first stabilise round runs inside ``NodeProcess.start``: it walks
its successor's predecessor pointers to the true successor, notifies it, and
tells the node before it (one leaf ``splice`` RPC) that it now follows it.
With the stabilise interval set to an hour, so that no periodic round runs,
a ring built by sequential joins must be consistent the moment the last
``start()`` returns.  Concurrent joins may race; the periodic rounds finish
them within two.  And on a stable ring none of this costs an RPC.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import Counter

import pytest

from repro.check.invariants import check_live_cluster
from repro.dht.maintenance import ring_violations
from repro.net.cluster import ClusterClient, LocalCluster
from repro.net.node import NodeProcess
from repro.net.transport import TcpTransport

M = 32

pytestmark = pytest.mark.timeout(60)


def _ring_errors(nodes: list[NodeProcess]) -> list[tuple[str, str]]:
    """Each node's successor and predecessor against the sorted ring."""
    return ring_violations([(node.entry(), node.successor, node.predecessor) for node in nodes])


@pytest.mark.parametrize("n_nodes", [1, 2, 16], ids=lambda n: f"{n}-nodes")
def test_sequential_joins_are_consistent_when_start_returns(tmp_path, n_nodes):
    """At two nodes the bootstrap is alone when the joiner asks it, and used
    to answer "owner = self" until its next round; at sixteen the parent
    needed fifteen rounds, one link fixed per round.  The client agrees on
    its first poll; a lone node, which names no predecessor, used to wait out
    the whole timeout."""
    async def scenario() -> None:
        cluster = LocalCluster(n_nodes, data_root=tmp_path, m=M, stabilize_interval=3600)
        client = ClusterClient()
        try:
            addrs = await cluster.start()
            assert _ring_errors(cluster.nodes) == []   # no await since the last join
            await client.start()
            statuses = [await client.status(a) for a in addrs]
            assert check_live_cluster(statuses, M).ok
            assert await client.wait_converged(addrs, timeout=0.5, poll=0.5)
        finally:
            await client.close()
            await cluster.close()

    asyncio.run(scenario())


def test_concurrent_joins_are_consistent_within_two_rounds(tmp_path, monkeypatch):
    """Eight nodes join an eight-node ring at once, through four bootstraps:
    joiners landing in one arc race each other's splices, and the rounds
    that begin after the last ``start()`` returns repair that within two."""
    interval = 0.05
    started: Counter[int] = Counter()
    finished: Counter[int] = Counter()
    stabilize_round = NodeProcess._stabilize_round

    async def counting_round(self):
        started[self.id] += 1
        try:
            await stabilize_round(self)
        finally:
            finished[self.id] += 1

    monkeypatch.setattr(NodeProcess, "_stabilize_round", counting_round)

    async def scenario() -> None:
        cluster = LocalCluster(8, data_root=tmp_path, m=M, stabilize_interval=interval)
        try:
            await cluster.start()
            joiners = [NodeProcess(cluster._config(i, cluster.nodes[i % 4].addr))
                       for i in range(8, 16)]
            cluster.nodes.extend(joiners)
            await asyncio.gather(*(node.start() for node in joiners))
            base = dict(started)
            # a round in flight now is not counted: wait for two that begin later
            while any(finished[n.id] < base[n.id] + 2 for n in cluster.nodes):
                await asyncio.sleep(0.005)
            assert _ring_errors(cluster.nodes) == []
        finally:
            await cluster.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("position", [0, 3, 7])
def test_a_node_restarted_right_after_it_stopped_is_back_within_a_tenth_of_a_timeout(
        tmp_path, position):
    """A node stopped and restarted at once comes back under its old id on a
    new port before the ring noticed it left, so the lookup of its own id
    answers its old incarnation.  The join keeps the successor list it
    recovered from ``meta.json`` instead: ``start()`` dials no dead address
    (it used to wait out one ``rpc_timeout`` on the old one, and come back
    with an empty successor list)."""
    async def scenario() -> None:
        cluster = LocalCluster(8, data_root=tmp_path, m=M, stabilize_interval=3600)
        try:
            await cluster.start()
            ids = sorted(node.id for node in cluster.nodes)
            old = cluster.nodes[position]
            await cluster.stop_node(position)
            t0 = time.monotonic()
            new_addr = await cluster.restart_node(position)
            elapsed = time.monotonic() - t0
            node = cluster.nodes[position]
            assert node.id == old.id and new_addr != old.addr
            assert elapsed < node.config.rpc_timeout / 10
            assert node.successors
            assert node.successors[0]["id"] == ids[(ids.index(node.id) + 1) % len(ids)]
        finally:
            await cluster.close()

    asyncio.run(scenario())


@pytest.mark.parametrize("run", range(12))
def test_close_right_after_concurrent_joins_leaves_no_socket_open(tmp_path, run):
    """Eight joiners onto eight nodes, then ``LocalCluster.close`` 0–50 ms
    later, while rounds still run.  A round of one node that dialled a node
    already closing used to leave that node an accepted socket nobody closed
    (a ``ResourceWarning`` — an error under this suite's filter) in about one
    run in twelve."""
    async def scenario() -> None:
        cluster = LocalCluster(8, data_root=tmp_path, m=M, stabilize_interval=0.05)
        try:
            await cluster.start()
            joiners = [NodeProcess(cluster._config(i, cluster.nodes[i % 4].addr))
                       for i in range(8, 16)]
            cluster.nodes.extend(joiners)
            await asyncio.gather(*(node.start() for node in joiners))
            await asyncio.sleep(run * 0.05 / 11)
        finally:
            await cluster.close()

    asyncio.run(scenario())
    gc.collect()   # an unclosed socket warns when it is collected


def test_idle_stable_ring_sends_what_it_always_sent(tmp_path, monkeypatch):
    """Twenty rounds of every node of a stable, idle 8-node ring send what
    they sent before joins spliced: per node and round one
    ``get_predecessor``, ``notify``, ``get_successor_list`` and ``ping``, one
    ``lookup_step`` for the finger refresh (settled fingers: one hop), and no
    ``splice`` — the walk stops at the first reply, this node."""
    sent: Counter[str] = Counter()
    rpc = TcpTransport.rpc

    async def counting_rpc(self, dst_addr, kind, payload=None, **kw):
        sent[kind] += 1
        return await rpc(self, dst_addr, kind, payload, **kw)

    async def round_of(node: NodeProcess) -> None:
        await node._stabilize_round()

    async def scenario() -> None:
        cluster = LocalCluster(8, data_root=tmp_path, m=M, stabilize_interval=3600)
        try:
            await cluster.start()
            await asyncio.sleep(0.05)
            for _ in range(3 * M):   # converge, then a full finger cycle and more
                for node in cluster.nodes:
                    await round_of(node)
            assert _ring_errors(cluster.nodes) == []
            before = [(n.successors, n.predecessor, dict(n.fingers)) for n in cluster.nodes]
            for node in cluster.nodes:
                node.next_finger = 0   # the same finger starts whatever came before
            monkeypatch.setattr(TcpTransport, "rpc", counting_rpc)
            for _ in range(20):
                for node in cluster.nodes:
                    await round_of(node)
            monkeypatch.undo()
            assert [(n.successors, n.predecessor, n.fingers) for n in cluster.nodes] == before
        finally:
            await cluster.close()

    asyncio.run(scenario())
    assert dict(sent) == dict.fromkeys(
        ["get_predecessor", "notify", "get_successor_list", "ping", "lookup_step"], 20 * 8)
