"""Backend-agnostic transport conformance suite.

One parametrized set of assertions over the Transport contract, run against
both execution backends:

* ``sim`` — :class:`repro.sim.transport.Transport` on the discrete-event
  engine (tier-1: fast, deterministic);
* ``tcp`` — :class:`repro.net.transport.TcpTransport` on real asyncio
  sockets (marked ``slow``; the CI live-backend job runs it).

The contract under test: per-peer in-order delivery, fault-injection drop
behaviour (loss, partition, self-send exemption, the status handed to
``on_drop``), and stats/byte accounting.  A behaviour difference between the
backends is a bug in the live backend, not in the test.  Cancelable timers
are the simulator's alone — the live node schedules with asyncio directly —
so the two timer tests run on ``sim`` only.
"""

from __future__ import annotations

import pytest

from repro.sim.transport import FaultConfig

from tests.net_helpers import SimHarness, TcpHarness

BACKENDS = [
    pytest.param("sim", id="sim"),
    pytest.param("tcp", id="tcp",
                 marks=[pytest.mark.slow, pytest.mark.timeout(60)]),
]


@pytest.fixture(params=BACKENDS)
def harness(request):
    h = SimHarness() if request.param == "sim" else TcpHarness()
    yield h
    h.stop()


def test_in_order_delivery_per_peer(harness):
    harness.start(2)
    n = 64
    for i in range(n):
        assert harness.send(0, 1, kind="message", payload=i)
    harness.settle()
    assert [p for _, p in harness.received(1)] == list(range(n))


def test_in_order_delivery_interleaved_destinations(harness):
    harness.start(3)
    for i in range(32):
        harness.send(0, 1, kind="message", payload=("to1", i))
        harness.send(0, 2, kind="message", payload=("to2", i))
    harness.settle()
    got1 = [tuple(p) for _, p in harness.received(1)]
    got2 = [tuple(p) for _, p in harness.received(2)]
    assert got1 == [("to1", i) for i in range(32)]
    assert got2 == [("to2", i) for i in range(32)]


SIM_ONLY = pytest.mark.parametrize("harness", BACKENDS[:1], indirect=True)


@SIM_ONLY
def test_timer_fires_and_deactivates(harness):
    harness.start(1)
    fired = []
    h = harness.timer(0, 0.01, lambda: fired.append(1))
    assert h.active
    harness.advance(0.1)
    assert fired == [1]
    assert not h.active
    h.cancel()  # cancel-after-fire is a no-op
    assert not h.active


@SIM_ONLY
def test_timer_cancel_prevents_firing(harness):
    harness.start(1)
    fired = []
    h = harness.timer(0, 0.02, lambda: fired.append(1))
    h.cancel()
    assert not h.active
    h.cancel()  # idempotent
    harness.advance(0.1)
    assert fired == []


def test_full_loss_drops_everything(harness):
    harness.start(2, faults=FaultConfig(loss_rate=1.0, seed=3))
    drops = []
    for i in range(10):
        ok = harness.send(0, 1, kind="message", payload=i, on_drop=drops.append)
        assert ok is False
    harness.settle()
    assert harness.received(1) == []
    assert drops == ["dropped:loss"] * 10
    assert harness.total_dropped("loss") == 10
    assert harness.total_dropped("partition") == harness.total_dropped("dead") == 0
    assert harness.total_delivered() == 0


def test_partition_blocks_cross_group_only(harness):
    faults = FaultConfig(partitions=({0, 1}, {2}))
    harness.start(3, faults=faults)
    same, cross = [], []
    assert harness.send(0, 1, kind="message", payload="same-group", on_drop=same.append)
    ok_cross = harness.send(0, 2, kind="message", payload="cross", on_drop=cross.append)
    assert ok_cross is False
    harness.settle()
    assert [p for _, p in harness.received(1)] == ["same-group"]
    assert harness.received(2) == []
    assert harness.total_dropped("partition") == 1
    assert harness.total_delivered() == 1
    assert (same, cross) == ([], ["dropped:partition"])


def test_self_send_is_never_faulted(harness):
    harness.start(1, faults=FaultConfig(loss_rate=1.0, seed=1))
    assert harness.send(0, 0, kind="message", payload="local")
    harness.settle()
    assert [p for _, p in harness.received(0)] == ["local"]
    assert harness.total_delivered() == 1


def test_stats_and_byte_accounting(harness):
    harness.start(2)
    harness.send(0, 1, kind="message", payload=None, size=10)   # query class
    harness.send(0, 1, kind="result", payload=None, size=20)
    harness.send(0, 1, kind="maintenance:x", payload=None, size=30)
    harness.settle()
    assert harness.total_sent() == 3
    assert harness.total_delivered() == 3
    assert harness.byte_totals() == (10, 20, 30)


def test_seeded_loss_is_reproducible(harness):
    outcomes = []
    for _ in range(2):
        harness.start(2, faults=FaultConfig(loss_rate=0.5, seed=99))
        outcomes.append(tuple(
            harness.send(0, 1, kind="message", payload=i) for i in range(32)
        ))
        harness.settle()
    assert outcomes[0] == outcomes[1]
    assert any(outcomes[0]) and not all(outcomes[0])


# -- tcp-only regressions ---------------------------------------------------


def test_local_rpc_answer_task_handle_is_kept():
    """Regression (ASY403): the self-addressed RPC fast path spawns an
    answer task; its handle must be strongly referenced until completion,
    or the loop's weak task set lets it be collected mid-flight."""
    import asyncio

    from repro.net.transport import TcpTransport

    async def scenario():
        transport = TcpTransport(node_id=0, host=0)
        await transport.start(listen=False)
        release = asyncio.Event()

        async def handler(payload, src):
            await release.wait()
            return {"echo": payload}

        transport.register_rpc("echo", handler)
        rpc = asyncio.create_task(
            transport.rpc(transport.addr, "echo", {"n": 1}))
        await asyncio.sleep(0)  # let the answer task spawn
        assert transport._client_tasks, "answer task handle was dropped"
        release.set()
        reply = await rpc
        assert reply == {"echo": {"n": 1}}
        for _ in range(3):  # done_callback runs a tick after completion
            if not transport._client_tasks:
                break
            await asyncio.sleep(0)
        assert not transport._client_tasks, "completed task not discarded"
        await transport.close()

    asyncio.run(scenario())


def test_closed_transport_opens_no_connection():
    """Regression: ``asyncio.wait_for`` (3.11) swallows a cancellation that
    lands as the awaited reply arrives, so a stabilise round cancelled by
    ``NodeProcess.close()`` could run on and issue its next RPC on the closed
    transport — which pooled a fresh connection nothing would ever close
    (a ResourceWarning in whichever later test the collector ran)."""
    import asyncio

    from repro.net.transport import RpcError, TcpTransport

    async def scenario():
        served = []
        server = TcpTransport(node_id=1)

        async def ping(payload, src):
            served.append(payload)
            return {"pong": payload}

        server.register_rpc("ping", ping)
        addr = await server.start()
        client = TcpTransport(node_id=2)
        await client.start(listen=False)
        assert await client.rpc(addr, "ping", 1) == {"pong": 1}
        await client.close()
        with pytest.raises(RpcError, match="transport closed"):
            await client.rpc(addr, "ping", 2)
        assert not client._pool and not client._pending and served == [1]
        await server.close()

    asyncio.run(scenario())
