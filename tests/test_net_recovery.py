"""Crash recovery on the live backend: SIGKILL, WAL restore, re-convergence.

Three escalating scenarios against :mod:`repro.net`:

* a fast unit check that :func:`repro.check.invariants.check_live_cluster`
  actually detects broken rings and lost entries;
* an in-process :class:`LocalCluster` kill/restart cycle asserting digest
  equality, ring invariants and query-answer stability;
* a real OS-process cluster (``repro node`` children) where the victim is
  SIGKILLed — no flush, no atexit — restarted on the same data directory,
  and must report the identical shard digest over RPC.

The live scenarios are ``slow`` (real sockets, real child processes) and
carry timeouts so a wedged event loop fails instead of hanging CI.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.check.invariants import InvariantViolation, check_live_cluster
from repro.core import storage
from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import lp_hash_batch
from repro.net.cluster import (
    ClusterClient,
    LocalCluster,
    kill_node_process,
    run_cluster_demo,
    spawn_node_process,
)
from repro.net.node import NodeProcess
from repro.net.transport import RpcError
from tests.net_helpers import ephemeral_port

M = 32
K = 2


def workload(n, seed=0, n_rects=6):
    bounds = IndexSpaceBounds.uniform(K, 0.0, 1000.0)
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1000.0, size=(n, K))
    ids = np.arange(n, dtype=np.int64)
    keys = lp_hash_batch(points, bounds, M)
    rects = []
    for _ in range(n_rects):
        center = rng.uniform(150.0, 850.0, size=K)
        half = rng.uniform(40.0, 150.0, size=K)
        rects.append((center - half, center + half))
    return keys, points, ids, rects


async def _statuses(client, addrs):
    return [await client.status(a) for a in addrs]


async def _wait_up(client, addr, timeout=30.0):
    """Poll ``status`` until the node answers (child processes boot slowly)."""
    deadline = client.transport.now + timeout
    while client.transport.now < deadline:
        try:
            return await client.status(addr)
        except RpcError:
            await asyncio.sleep(0.2)
    raise TimeoutError(f"node at {addr} did not come up within {timeout}s")


# -- the checker itself must catch real damage ----------------------------------


def _fake_statuses(ids, entries_each=0):
    ordered = sorted(ids)
    out = []
    for pos, nid in enumerate(ordered):
        succ = ordered[(pos + 1) % len(ordered)]
        pred = ordered[(pos - 1) % len(ordered)]
        out.append({
            "index": {"name": "index", "m": M, "k": K, "bounds_low": 0.0, "bounds_high": 1000.0},
            "id": nid,
            "addr": f"a{nid}",
            "name": f"n{nid}",
            "successors": [{"id": succ, "addr": f"a{succ}", "name": f"n{succ}"}],
            "predecessor": {"id": pred, "addr": f"a{pred}", "name": f"n{pred}"},
            "entries": entries_each,
        })
    return out


def _wait_converged(statuses, timeout=0.2):
    """``ClusterClient.wait_converged`` over ``statuses``, each served as
    the ``status`` reply of one address, with no socket."""
    client = ClusterClient()

    async def status(addr):
        return statuses[int(addr)]

    client.status = status
    addrs = [str(i) for i in range(len(statuses))]
    return asyncio.run(client.wait_converged(addrs, timeout=timeout, poll=0.05))


MALFORMED_STATUSES = {
    "none": lambda s: None,
    "list": lambda s: [],
    "addr-only": lambda s: {"addr": "a"},
    "predecessor-str": lambda s: {**s, "predecessor": "x"},
    "successors-str": lambda s: {**s, "successors": "bb"},
}


def _with_malformed(shape, pos=1):
    statuses = _fake_statuses([10, 900, 2**20])
    statuses[pos] = MALFORMED_STATUSES[shape](statuses[pos])
    return statuses


def test_check_live_cluster_accepts_consistent_ring():
    rep = check_live_cluster(_fake_statuses([10, 900, 2**20], entries_each=4),
                             M, expected_entries=12)
    assert rep.ok
    assert rep.checks["ring"] == 1
    assert rep.checks["ownership"] == 1


def test_check_live_cluster_detects_broken_successor():
    statuses = _fake_statuses([10, 900, 2**20])
    statuses[0]["successors"][0]["id"] = 10  # points back at itself
    with pytest.raises(InvariantViolation, match="ring.successor"):
        check_live_cluster(statuses, M)
    rep = check_live_cluster(statuses, M, strict=False)
    assert not rep.ok and rep.violations[0].name == "ring.successor"


def test_check_live_cluster_detects_dangling_predecessor():
    statuses = _fake_statuses([10, 900, 2**20])
    statuses[1]["predecessor"] = None
    rep = check_live_cluster(statuses, M, strict=False)
    assert not rep.ok and rep.violations[0].name == "ring.predecessor"


def test_check_live_cluster_detects_lost_entries():
    statuses = _fake_statuses([10, 900], entries_each=5)
    rep = check_live_cluster(statuses, M, strict=False, expected_entries=11)
    assert not rep.ok and rep.violations[0].name == "ownership.conservation"
    statuses[0]["entries"] = "5"   # no count: never cast, never a TypeError
    rep = check_live_cluster(statuses, M, strict=False, expected_entries=10)
    assert [v.name for v in rep.violations] == ["ownership.conservation"]


def test_check_live_cluster_single_node_ring():
    assert check_live_cluster(_fake_statuses([42]), M).ok


def test_check_live_cluster_detects_a_stale_address():
    """A neighbour named under the right id at a restarted node's old
    address is not the node: ids alone used to pass it."""
    statuses = _fake_statuses([10, 900, 2**20])
    statuses[0]["successors"][0]["addr"] = "old"
    rep = check_live_cluster(statuses, M, strict=False)
    assert [v.name for v in rep.violations] == ["ring.successor"]


@pytest.mark.parametrize("shape", MALFORMED_STATUSES)
def test_check_live_cluster_reports_a_malformed_status(shape):
    rep = check_live_cluster(_with_malformed(shape), M, strict=False, expected_entries=0)
    assert [v.name for v in rep.violations] == ["ring.malformed"]
    with pytest.raises(InvariantViolation, match="ring.malformed"):
        check_live_cluster(_with_malformed(shape), M)


@pytest.mark.parametrize("shape", MALFORMED_STATUSES)
def test_a_malformed_status_is_not_converged(shape):
    """Such replies used to escape ``wait_converged`` as a ``TypeError`` or
    ``KeyError``, which only caught ``RpcError``.  The first status also
    names the index, whose ``m`` the entries are checked against."""
    for pos in (0, 1):
        assert _wait_converged(_with_malformed(shape, pos)) is False


def test_a_live_but_wrong_predecessor_is_not_converged():
    statuses = _fake_statuses([10, 900, 2**20])
    assert _wait_converged(statuses) is True
    statuses[1]["predecessor"] = dict(statuses[0]["predecessor"])   # 2**20: live, two back
    assert _wait_converged(statuses) is False


# -- in-process kill/restart cycle ----------------------------------------------


@pytest.mark.slow
@pytest.mark.timeout(120)
def test_local_cluster_kill_restart_recovers_bit_identically(tmp_path):
    asyncio.run(_local_cluster_scenario(tmp_path))


async def _local_cluster_scenario(tmp_path):
    keys, points, ids, rects = workload(160)
    cluster = LocalCluster(5, data_root=tmp_path, m=M, k=K)
    client = ClusterClient()
    try:
        addrs = await cluster.start()
        await client.start()
        assert await client.wait_converged(addrs)
        accepted = await client.insert(addrs[0], keys, points, ids)
        assert accepted == len(ids)

        rep = check_live_cluster(await _statuses(client, addrs), M,
                                 expected_entries=len(ids))
        assert rep.ok and rep.checks["ring"] and rep.checks["ownership"]

        before = [np.sort(await client.query(addrs[1], lo, hi))
                  for lo, hi in rects]

        digest_before = cluster.nodes[2].shard.digest()
        await cluster.stop_node(2)
        survivors = [a for i, a in enumerate(addrs) if i != 2]
        assert await client.wait_converged(survivors)
        # the survivors alone must re-form a consistent (smaller) ring
        assert check_live_cluster(await _statuses(client, survivors), M).ok

        await cluster.restart_node(2, bootstrap=survivors[0])
        assert cluster.nodes[2].shard.digest() == digest_before
        assert await client.wait_converged(cluster.addrs)
        rep = check_live_cluster(await _statuses(client, cluster.addrs), M,
                                 expected_entries=len(ids))
        assert rep.ok

        # answers routed through the recovered node are unchanged
        for (lo, hi), want in zip(rects, before):
            got = np.sort(await client.query(cluster.addrs[2], lo, hi))
            assert np.array_equal(got, want)
    finally:
        await client.close()
        await cluster.close()


# -- an idle ring leaves its files alone -----------------------------------------


@pytest.mark.timeout(60)
def test_idle_stabilise_rounds_do_not_rewrite_meta_json(tmp_path, monkeypatch):
    """Every stabilise round ends in ``set_meta``; on a converged ring the
    overlay state it carries is the state on disk, so nothing is written
    (each write is an fsync on the event loop's thread)."""
    written: list[str] = []
    rounds = [0]
    write_json = storage._atomic_write_json
    stabilize_round = NodeProcess._stabilize_round

    def counting_write(path, payload):
        written.append(path.name)
        write_json(path, payload)

    async def counting_round(self):
        rounds[0] += 1
        await stabilize_round(self)

    monkeypatch.setattr(storage, "_atomic_write_json", counting_write)
    monkeypatch.setattr(NodeProcess, "_stabilize_round", counting_round)

    async def scenario():
        cluster = LocalCluster(4, data_root=tmp_path, m=M, k=K, stabilize_interval=0.02)
        client = ClusterClient()
        try:
            addrs = await cluster.start()
            await client.start()
            assert await client.wait_converged(addrs)
            # successor lists keep filling for a few rounds after the ring closes
            for _ in range(50):
                seen = len(written)
                await asyncio.sleep(0.1)
                if len(written) == seen:
                    break
            assert written.count("meta.json") >= len(addrs)  # joining did persist
            del written[:]
            first = rounds[0]
            while rounds[0] < first + 10 * len(addrs):
                await asyncio.sleep(0.05)
            assert written == []
        finally:
            await client.close()
            await cluster.close()

    asyncio.run(scenario())


# -- OS-process SIGKILL (the real crash) ----------------------------------------


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_sigkill_child_process_recovers_from_wal(tmp_path):
    asyncio.run(_subprocess_scenario(tmp_path))


async def _subprocess_scenario(tmp_path):
    keys, points, ids, rects = workload(96, seed=1, n_rects=3)
    ports = [ephemeral_port() for _ in range(3)]
    addrs = [f"127.0.0.1:{p}" for p in ports]
    extra = ("--stabilize-interval", "0.1")
    procs = {}
    client = ClusterClient()
    try:
        await client.start()
        procs[0] = spawn_node_process(
            "node-0", tmp_path / "node-0", ports[0], m=M, k=K, extra_args=extra)
        await _wait_up(client, addrs[0])
        for i in (1, 2):
            procs[i] = spawn_node_process(
                f"node-{i}", tmp_path / f"node-{i}", ports[i],
                bootstrap=addrs[0], m=M, k=K, extra_args=extra)
            await _wait_up(client, addrs[i])
        assert await client.wait_converged(addrs, timeout=60.0)

        accepted = await client.insert(addrs[0], keys, points, ids)
        assert accepted == len(ids)
        baseline = [np.sort(await client.query(addrs[2], lo, hi))
                    for lo, hi in rects]

        digest_before = (await client.status(addrs[1]))["digest"]
        kill_node_process(procs.pop(1))  # SIGKILL: no flush, no atexit

        survivors = [addrs[0], addrs[2]]
        assert await client.wait_converged(survivors, timeout=60.0)
        assert check_live_cluster(await _statuses(client, survivors), M).ok

        procs[1] = spawn_node_process(
            "node-1", tmp_path / "node-1", ports[1],
            bootstrap=addrs[0], m=M, k=K, extra_args=extra)
        recovered = await _wait_up(client, addrs[1])
        assert recovered["digest"] == digest_before  # bit-identical shard
        assert await client.wait_converged(addrs, timeout=60.0)
        rep = check_live_cluster(await _statuses(client, addrs), M,
                                 expected_entries=len(ids))
        assert rep.ok

        for (lo, hi), want in zip(rects, baseline):
            got = np.sort(await client.query(addrs[1], lo, hi))
            assert np.array_equal(got, want)
    finally:
        await client.close()
        for proc in procs.values():
            proc.kill()
            proc.wait(timeout=10)


# -- the issue's acceptance demo, at the specified scale ------------------------


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_eight_node_demo_end_to_end(tmp_path):
    report = asyncio.run(run_cluster_demo(
        n_nodes=8, n_entries=256, n_queries=8, m=M, k=K, seed=0,
        data_root=tmp_path))
    assert report.ok, report
