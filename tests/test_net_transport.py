"""``TcpTransport``'s links, pinned by exact counts on real loopback sockets.

What the protocol-level receive path promises beyond the conformance suite:
a leaf request costs no task on either side and an awaiting handler exactly
one; requests on one connection complete out of order when the first one
awaits; only an outgoing link takes a ``res``; a client that does not read
its replies stops being served until it does; and a reply the codec refuses
reaches the caller as an error, not as silence.
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Any

import pytest

from repro.net.codec import WIRE_VERSION, FrameDecoder
from repro.net.transport import RpcError, TcpTransport
from repro.obs.registry import MetricsRegistry

from tests.net_helpers import json_frame


def req_frame(rid: int, kind: str, payload: Any = None) -> bytes:
    return json_frame({"v": WIRE_VERSION, "t": "req", "kind": kind, "rid": rid,
                       "payload": payload})


async def read_replies(reader: asyncio.StreamReader, decoder: FrameDecoder,
                       n: int) -> list[dict[str, Any]]:
    replies: list[dict[str, Any]] = []
    while len(replies) < n:
        chunk = await asyncio.wait_for(reader.read(1 << 16), timeout=10.0)
        assert chunk, "connection closed before every reply arrived"
        replies.extend(decoder.feed(chunk))
    return replies


class Server:
    """A listening transport with one leaf handler and one that awaits."""

    def __init__(self) -> None:
        self.transport = TcpTransport(node_id=1)
        self.release = asyncio.Event()
        self.served: list[Any] = []
        self.transport.register_rpc("leaf", self.leaf)
        self.transport.register_rpc("held", self.held)

    def leaf(self, payload: Any, src: dict[str, Any]) -> Any:
        self.served.append(payload)
        if payload == "release":
            self.release.set()
        return {"leaf": payload}

    async def held(self, payload: Any, src: dict[str, Any]) -> Any:
        await self.release.wait()
        return {"held": payload}

    async def start(self) -> tuple[str, int]:
        host, _, port = (await self.transport.start()).rpartition(":")
        return host, int(port)


@pytest.mark.timeout(30)
def test_leaf_rpc_creates_no_task_and_an_awaiting_handler_exactly_one():
    async def scenario() -> None:
        loop = asyncio.get_running_loop()
        created: list[str] = []

        def counting(loop: asyncio.AbstractEventLoop, coro: Any) -> asyncio.Task[Any]:
            created.append(coro.__qualname__)
            return asyncio.Task(coro, loop=loop)

        server = Server()
        await server.start()
        client = TcpTransport(node_id=2)
        await client.start(listen=False)
        addr = server.transport.addr
        assert await client.rpc(addr, "leaf", 0) == {"leaf": 0}  # connects: the peer's writer task
        loop.set_task_factory(counting)
        for i in range(1, 4):  # warm connection: both sides stay inside their callbacks
            assert await client.rpc(addr, "leaf", i) == {"leaf": i}
        assert created == []
        assert await server.transport.rpc(addr, "leaf", "local") == {"leaf": "local"}
        assert created == []
        server.release.set()
        assert await client.rpc(addr, "held", 9) == {"held": 9}
        assert created == ["TcpTransport._serve_later"]
        assert await server.transport.rpc(addr, "held", "local") == {"held": "local"}
        assert created == ["TcpTransport._serve_later"] * 2
        loop.set_task_factory(None)
        for _ in range(3):  # a task's done-callback runs a tick after it
            await asyncio.sleep(0)
        assert not server.transport._client_tasks
        await client.close()
        await server.transport.close()

    asyncio.run(scenario())


@pytest.mark.timeout(30)
def test_a_served_request_counts_as_one_delivery_at_the_server():
    """Deliveries are counted by the receiver: five RPCs from A to B are five
    deliveries on B (counter and latency histogram alike) and none on A, and
    a request A serves itself is one delivery on A."""
    async def scenario() -> None:
        regs = MetricsRegistry(), MetricsRegistry()
        a, b = (TcpTransport(node_id=i, metrics=reg) for i, reg in enumerate(regs))
        for t in (a, b):
            t.register_rpc("echo", lambda payload, src: payload)
            await t.start()
        for i in range(5):
            assert await a.rpc(b.addr, "echo", i) == i
        assert (a.stats.sent, a.stats.delivered) == (5, 0)
        assert (b.stats.sent, b.stats.delivered) == (0, 5)
        assert regs[1].get("transport_delivered_total").value(("echo",)) == 5
        assert regs[1].get("transport_delivery_latency_seconds").count() == 5
        assert regs[0].get("transport_delivery_latency_seconds").count() == 0
        assert await a.rpc(a.addr, "echo", "local") == "local"
        assert (a.stats.delivered, b.stats.delivered) == (1, 5)
        await a.close()
        await b.close()

    asyncio.run(scenario())


async def _serve_raw_request(extra: dict[str, Any]) -> tuple[TcpTransport, MetricsRegistry]:
    """One raw ``req`` frame carrying ``extra`` to a listening transport,
    answered; returns the transport (closed) and its registry."""
    reg = MetricsRegistry()
    t = TcpTransport(node_id=1, metrics=reg)
    t.register_rpc("echo", lambda payload, src: payload)
    host, _, port = (await t.start()).rpartition(":")
    reader, writer = await asyncio.open_connection(host, int(port))
    writer.write(json_frame({"v": WIRE_VERSION, "t": "req", "kind": "echo", "rid": 1,
                             "payload": "x", **extra}))
    assert [r["payload"] for r in await read_replies(reader, FrameDecoder(), 1)] == ["x"]
    writer.close()
    await writer.wait_closed()
    await t.close()
    return t, reg


@pytest.mark.timeout(30)
def test_delivery_latency_reads_the_senders_stamp_on_the_hosts_clock():
    """``sent_at`` is ``time.monotonic()`` of the sending process, whichever
    it is: a request stamped 0.25 s ago records at least 0.25 s."""
    async def scenario() -> None:
        t, reg = await _serve_raw_request({"sent_at": time.monotonic() - 0.25})
        hist = reg.get("transport_delivery_latency_seconds")
        assert t.stats.delivered == 1 and hist.count() == 1
        assert 0.25 <= hist.sum() < 10.0

    asyncio.run(scenario())


@pytest.mark.timeout(30)
def test_a_request_without_sent_at_is_delivered_with_no_latency_sample():
    async def scenario() -> None:
        t, reg = await _serve_raw_request({})
        assert t.stats.delivered == 1
        assert reg.get("transport_delivered_total").value(("echo",)) == 1
        assert reg.get("transport_delivery_latency_seconds").count() == 0

    asyncio.run(scenario())


@pytest.mark.timeout(30)
def test_requests_on_one_connection_are_answered_out_of_order_when_the_first_awaits():
    async def scenario() -> None:
        server = Server()
        reader, writer = await asyncio.open_connection(*await server.start())
        # rid 1 waits for an event that only rid 2's handler sets
        writer.write(req_frame(1, "held", "first") + req_frame(2, "leaf", "release"))
        replies = await read_replies(reader, FrameDecoder(), 2)
        assert [(r["rid"], r["payload"]) for r in replies] == [
            (2, {"leaf": "release"}), (1, {"held": "first"})]
        writer.close()
        await writer.wait_closed()
        await server.transport.close()

    asyncio.run(scenario())


@pytest.mark.timeout(30)
def test_forged_res_sent_to_a_listener_resolves_nothing():
    """Only the connection a request left on may carry its answer."""
    async def scenario() -> None:
        server = Server()
        await server.start()
        victim = Server()
        host, port = await victim.start()
        call = asyncio.ensure_future(victim.transport.rpc(server.transport.addr, "held", "real"))
        await asyncio.sleep(0.05)
        (rid,) = victim.transport._pending
        reader, writer = await asyncio.open_connection(host, port)
        forged = json_frame({"v": WIRE_VERSION, "t": "res", "rid": rid, "payload": "forged"})
        writer.write(forged + req_frame(7, "leaf"))
        # the listener read past the forged frame: it answered the request behind it
        assert [r["rid"] for r in await read_replies(reader, FrameDecoder(), 1)] == [7]
        assert not call.done()
        server.release.set()
        assert await call == {"held": "real"}
        writer.close()
        await writer.wait_closed()
        await victim.transport.close()
        await server.transport.close()

    asyncio.run(scenario())


@pytest.mark.timeout(60)
def test_client_that_stops_reading_is_paused_and_resumed_after_it_drains():
    async def scenario() -> None:
        server = Server()
        big = "x" * (128 * 1024)
        server.transport.register_rpc("big", lambda payload, src: server.leaf(payload, src) and big)
        host, port = await server.start()
        # small kernel buffers on both ends, so 2 MiB of replies cannot hide in them
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
        reader, writer = await asyncio.open_connection(sock=sock)
        writer.write(req_frame(0, "leaf"))
        decoder = FrameDecoder()
        await read_replies(reader, decoder, 1)
        (link,) = server.transport._links
        link.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        n = 16
        writer.write(b"".join(req_frame(i, "big", i) for i in range(1, n + 1)))
        for _ in range(200):
            if not link.writable:
                break
            await asyncio.sleep(0.01)
        assert not link.writable and not link.transport.is_reading()
        writer.write(req_frame(n + 1, "leaf", "late"))
        await asyncio.sleep(0.1)
        assert "late" not in server.served  # not read, so not served
        replies = await read_replies(reader, decoder, n + 1)
        assert [r["rid"] for r in replies] == list(range(1, n + 2))
        assert all(r["payload"] == big for r in replies[:n])
        assert server.served[-1] == "late"
        assert link.writable and link.transport.is_reading()
        writer.close()
        await writer.wait_closed()
        await server.transport.close()

    asyncio.run(scenario())


@pytest.mark.timeout(30)
@pytest.mark.parametrize("awaiting", [False, True], ids=["leaf", "awaiting"])
def test_reply_the_codec_refuses_is_an_rpc_error_not_a_timeout(awaiting: bool):
    """Regression: the ``CodecError`` used to escape the serve task, the
    connection dropped without a word and the caller waited out ``rpc_timeout``."""
    async def scenario() -> None:
        server = Server()

        def leaf(payload: Any, src: dict[str, Any]) -> Any:
            return {"ids": {1, 2}, 3: "non-string key"}

        async def coro(payload: Any, src: dict[str, Any]) -> Any:
            return leaf(payload, src)

        server.transport.register_rpc("unencodable", coro if awaiting else leaf)
        await server.start()
        client = TcpTransport(node_id=2, rpc_timeout=5.0)
        await client.start(listen=False)
        addr = server.transport.addr
        with pytest.raises(RpcError, match="CodecError: non-string dict key 3") as failure:
            await asyncio.wait_for(client.rpc(addr, "unencodable"), timeout=2.0)
        assert type(failure.value) is RpcError  # not its subclass RpcTimeout
        (link,) = server.transport._links  # and the connection lives on
        assert await client.rpc(addr, "leaf", 1) == {"leaf": 1}
        assert server.transport._links == {link}
        await client.close()
        await server.transport.close()

    asyncio.run(scenario())
