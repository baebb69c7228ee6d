"""Asyncio TCP transport: the sim transport's contract on real sockets.

The simulator's :class:`repro.sim.transport.Transport` and this class obey
the same observable contract, asserted by the backend-agnostic conformance
suite (``tests/test_transport_conformance.py``):

* **per-peer in-order delivery** — one framed TCP connection per destination
  and one writer (the peer's task, or the caller itself when nothing is
  queued), so messages to one peer arrive in send order (TCP then preserves
  it);
* **fault injection** — the same :class:`~repro.sim.transport.FaultConfig`:
  probabilistic loss and host-set partitions are applied at send time from a
  seeded generator (drops are *local* — the bytes never reach the socket —
  so a partitioned live cluster behaves like a partitioned simulated one);
* **accounting** — the class inherits
  :class:`~repro.sim.transport.MessageAccounting`, so counters, metrics
  instruments, the partition table and the loss gate are the simulator's own
  code; drops are counted by the sender, deliveries by the receiver (the only
  party that can observe them over a real network; a served request counts
  as one delivery, like a one-way message), and ``on_drop`` callbacks
  receive the drop status string.

On top of the one-way contract it adds what live deployments need:
request/response RPC (responses ride the requesting connection, so pure
clients need no listener) and a per-peer connection pool with exponential
reconnect backoff.

Both ends of a connection are a :class:`_Link`, an :class:`asyncio.Protocol`
that acts on each envelope in the loop iteration that read it.  A request
handler that returns a plain value is answered there and then; one that
returns an awaitable gets a task, so requests on one connection may complete
out of order.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections import deque
from collections.abc import Awaitable, Callable
from functools import partial
from typing import Any

from repro.net.codec import WIRE_VERSION, CodecError, FrameDecoder, Framer
from repro.sim.transport import DROPPED_DEAD, FaultConfig, MessageAccounting

__all__ = ["RpcError", "RpcTimeout", "TcpTransport"]

class RpcError(ConnectionError):
    """The peer could not be reached or answered with a malformed frame."""


class RpcTimeout(RpcError):
    """No response within the deadline (peer dead, partitioned, or lossy)."""


#: reconnect backoff: the first delay and the cap it doubles up to (seconds,
#: each stretched by a seeded jitter of up to 2x), and how many consecutive
#: connection failures drop what is queued for the peer as ``dropped:dead``
RECONNECT_BASE = 0.05
RECONNECT_MAX = 2.0
MAX_CONNECT_ATTEMPTS = 8

#: what an RPC's deadline timer resolves its future with
_NO_RESPONSE: Any = object()


def _rpc_error(exc: Exception) -> dict[str, str]:
    """A failure on the answering side as a reply: a structured error, not a hang."""
    return {"__rpc_error__": f"{type(exc).__name__}: {exc}"}


class _Link(asyncio.Protocol):
    """One framed TCP connection, in either direction.

    An outgoing link (``peer`` set) accepts only ``res`` envelopes, a
    listener's link only ``msg`` and ``req``: a peer that dials in cannot
    answer this transport's requests.  A bad frame, or an envelope with a
    field of the wrong type (the bytes came from the network), closes this
    link and nothing else.
    """

    def __init__(self, owner: TcpTransport, peer: _PeerConnection | None = None) -> None:
        self.owner = owner
        self.peer = peer
        self.decoder = FrameDecoder()
        self.transport: asyncio.Transport  # from connection_made on
        #: False while the write buffer is above its high-water mark
        self.writable = True

    @property
    def up(self) -> bool:
        return not self.transport.is_closing()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]  # TCP: a full Transport
        if self.owner._closed:  # nothing would close it later
            transport.abort()
        else:
            self.owner._links.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.owner._links.discard(self)
        if self.peer is not None:
            self.peer.wake.set()

    def pause_writing(self) -> None:
        self.writable = False
        if self.peer is None:
            # a client that does not read its replies gets no more requests
            # served until it does
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.writable = True
        if self.peer is None:
            self.transport.resume_reading()
        else:
            self.peer.wake.set()

    def data_received(self, data: bytes) -> None:
        try:
            for env in self.decoder.feed(data):
                if isinstance(env, dict) and not self._dispatch(env):
                    raise CodecError("bad envelope")
        except CodecError:
            self.transport.close()  # framing is unrecoverable: drop the connection

    def _dispatch(self, env: dict[str, Any]) -> bool:
        """Act on one envelope; False when a field read here has the wrong type."""
        owner = self.owner
        t = env.get("t")
        if self.peer is not None:
            if t == "res":
                rid = env.get("rid")
                if not isinstance(rid, int):
                    return False
                owner._resolve(rid, env.get("payload"))
            return True
        if env.get("v") != WIRE_VERSION:
            return True
        kind, src = env.get("kind", ""), env.get("src") or {}
        if not (isinstance(t, str) and isinstance(kind, str) and isinstance(src, dict)):
            return False
        if t not in ("msg", "req"):
            return True
        sent_at = env.get("sent_at")
        if sent_at is not None:
            if not isinstance(sent_at, (int, float)):
                return False
            sent_at = float(sent_at)
        if t == "msg":
            owner._dispatch_msg(kind, env.get("payload"), src, sent_at)
            return True
        rid = env.get("rid")
        if not isinstance(rid, int):
            return False
        owner._serve(kind, env.get("payload"), src, sent_at, partial(self._reply, rid))
        return True

    def _reply(self, rid: int, payload: Any) -> None:
        encode = self.owner.framer.encode
        try:
            frame = encode({"v": WIRE_VERSION, "t": "res", "rid": rid, "payload": payload})
        except CodecError as exc:  # the handler returned what the wire does not carry
            frame = encode({"v": WIRE_VERSION, "t": "res", "rid": rid,
                            "payload": _rpc_error(exc)})
        if self.up:
            self.transport.write(frame)


class _PeerConnection:
    """One outgoing framed connection: FIFO queue, writer task, reconnect.

    The queue preserves send order across reconnects: a message is popped
    only after it was written and the link's buffer drained, so a connection
    dropped mid-queue resumes with the oldest unsent message.  After
    :data:`MAX_CONNECT_ATTEMPTS` consecutive connection failures the queued messages are
    dropped as ``dropped:dead`` (the live analogue of the simulator's
    crashed-node drop) and the backoff resets for future sends.
    """

    def __init__(self, owner: TcpTransport, addr: str) -> None:
        self.owner = owner
        self.addr = addr
        #: (frame, kind, on_drop); ``kind`` is None for RPC frames, whose loss
        #: the caller's timeout reports
        self.queue: deque[tuple[bytes, str | None, Any]] = deque()
        self.wake = asyncio.Event()
        self.task: asyncio.Task[None] | None = None
        self.link: _Link | None = None
        self.closed = False

    def enqueue(self, frame: bytes, kind: str | None, on_drop: Any) -> None:
        link = self.link
        if kind is None and not self.queue and link is not None and link.up and link.writable:
            # nothing is queued before it, so order is kept without waking the task
            link.transport.write(frame)
            return
        self.queue.append((frame, kind, on_drop))
        self.wake.set()
        if self.task is None or self.task.done():
            # the owner's loop, not get_running_loop(): sync callers (tests,
            # protocol code outside a coroutine) enqueue between loop runs
            self.task = self.owner._require_loop().create_task(self._run())

    async def _connect(self) -> bool:
        host, _, port = self.addr.rpartition(":")
        attempts = 0
        delay = RECONNECT_BASE
        while not self.closed:
            try:
                _, self.link = await self.owner._require_loop().create_connection(
                    lambda: _Link(self.owner, self), host, int(port))
                return True
            except OSError:
                attempts += 1
                if attempts >= MAX_CONNECT_ATTEMPTS:
                    return False
                # seeded jitter keeps concurrent reconnects from thundering
                await asyncio.sleep(delay * (1.0 + self.owner._backoff_rng.random()))
                delay = min(delay * 2.0, RECONNECT_MAX)
        return False

    async def _run(self) -> None:
        while not self.closed:
            if not self.queue:
                self.wake.clear()
                await self.wake.wait()
                continue
            link = self.link
            if link is None or not link.up:
                if not await self._connect():
                    self._drop_queued()
                continue
            link.transport.write(self.queue[0][0])
            while link.up and not link.writable:
                self.wake.clear()
                await self.wake.wait()
            if link.up:  # else: retry the same message on a fresh connection
                self.queue.popleft()

    def _drop_queued(self) -> None:
        while self.queue:
            _, kind, on_drop = self.queue.popleft()
            if kind is not None:
                self.owner._drop(kind, DROPPED_DEAD, on_drop)

    def close(self) -> None:
        """Stop writing; the owner aborts the link with all its others."""
        self.closed = True
        if self.task is not None:
            self.task.cancel()

    @property
    def idle(self) -> bool:
        return not self.queue


class TcpTransport(MessageAccounting):
    """Live message transport over asyncio TCP (see module docstring).

    Parameters mirror the sim transport where the concept transfers:
    ``faults``/``metrics`` behave identically; ``node_id`` and ``host``
    identify this endpoint on the wire and in partition checks; ``fmt``
    names the frame body serialisation (``"json"``, the only one).
    """

    def __init__(
        self,
        node_id: int = 0,
        host: int = 0,
        faults: FaultConfig | None = None,
        metrics: Any = None,
        fmt: str = "json",
        seed: int = 0,
        rpc_timeout: float = 2.0,
    ) -> None:
        super().__init__(faults, metrics)
        self.node_id = int(node_id)
        self.host = int(host)
        self.framer = Framer(fmt)
        self.rpc_timeout = rpc_timeout
        self.addr = ""
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: dict[str, _PeerConnection] = {}
        self._peer_hosts: dict[str, int] = {}
        self._handlers: dict[str, Callable[[Any, dict[str, Any]], None]] = {}
        self._rpc_handlers: dict[str, Callable[[Any, dict[str, Any]], Any]] = {}
        self._pending: dict[int, asyncio.Future[Any]] = {}
        self._next_rid = 1
        self._closed = False
        #: every open link, both directions
        self._links: set[_Link] = set()
        #: one task per request whose handler returned an awaitable
        self._client_tasks: set[asyncio.Task[None]] = set()
        # independent seeded streams, as in the sim transport: loss draws
        # must not shift when backoff jitter is consumed
        self._loss_rng = random.Random(self.faults.seed)
        self._backoff_rng = random.Random(seed ^ 0x5EED)

    # -- lifecycle --------------------------------------------------------------

    async def start(self, bind: str = "127.0.0.1", port: int = 0,
                    listen: bool = True) -> str:
        """Bind the listener (``port=0`` = ephemeral) and return ``addr``.

        ``listen=False`` skips the server — for pure RPC clients, whose
        responses ride the outgoing connections.
        """
        self._loop = asyncio.get_running_loop()
        if listen:
            self._server = await self._loop.create_server(lambda: _Link(self), bind, port)
            actual = self._server.sockets[0].getsockname()[1]
            self.addr = f"{bind}:{actual}"
        else:
            self.addr = f"{bind}:0"
        return self.addr

    async def close(self) -> None:
        """Abrupt shutdown: stop listening, drop every connection."""
        self._closed = True
        if self._server is not None:
            self._server.close()
        for task in list(self._client_tasks):
            task.cancel()
        if self._client_tasks:
            await asyncio.gather(*self._client_tasks, return_exceptions=True)
        self._client_tasks.clear()
        for conn in self._pool.values():
            conn.close()
        self._pool.clear()
        for link in list(self._links):
            link.transport.abort()
        # an aborted link closes its socket on the next loop iteration, and
        # Server.wait_closed() (3.12) returns once every accepted one did
        await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(RpcError("transport closed"))
        self._pending.clear()

    @property
    def now(self) -> float:
        """``time.monotonic()``: one clock for every process on the host, so
        a receiver reads a sender's ``sent_at`` against the same origin
        (delivery latency = receiver's ``now`` - ``sent_at``)."""
        return time.monotonic()

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise RuntimeError("transport not started (call start() first)")
        return loop

    # -- peer table -------------------------------------------------------------

    def set_peer_host(self, addr: str, host: int) -> None:
        """Associate a peer address with its partition-host index."""
        self._peer_hosts[addr] = int(host)

    # -- handler registration ---------------------------------------------------

    def register_handler(self, kind: str,
                         fn: Callable[[Any, dict[str, Any]], None]) -> None:
        """One-way message handler: ``fn(payload, src_info)``."""
        self._handlers[kind] = fn

    def register_rpc(self, kind: str, fn: Callable[[Any, dict[str, Any]], Any]) -> None:
        """Request handler: ``fn(payload, src_info)`` returns the reply, or an
        awaitable of it.  A plain ``def`` runs on the event loop, inside the
        iteration that read the request, and is answered with no task; a
        coroutine function gets a task per request."""
        self._rpc_handlers[kind] = fn

    # -- send path --------------------------------------------------------------

    def _src_info(self) -> dict[str, Any]:
        return {"id": self.node_id, "host": self.host, "addr": self.addr}

    def _dropped_at_send(self, dst_addr: str, kind: str, on_drop: Any) -> bool:
        """The shared partition-and-loss gate; a peer whose host was never
        declared (:meth:`set_peer_host`) is never partitioned off."""
        return self._faulted(
            self.host, self._peer_hosts.get(dst_addr, self.host), kind, on_drop)

    def send(
        self,
        dst_addr: str,
        kind: str,
        payload: Any = None,
        *,
        size: int = 0,
        qid: int | None = None,
        attempt: int = 1,
        on_drop: Callable[[str], None] | None = None,
    ) -> bool:
        """One-way message to ``dst_addr`` (``"ip:port"``).

        Returns ``False`` when dropped at send time (loss or partition),
        exactly like the sim transport; connection failures after send
        surface through ``on_drop`` with ``dropped:dead``.
        """
        self._account_send(kind, size)
        if dst_addr == self.addr:
            # local hand-off: immediate, never faulted (sim parity)
            self._require_loop().call_soon(
                self._dispatch_msg, kind, payload, self._src_info(), self.now)
            return True
        if self._dropped_at_send(dst_addr, kind, on_drop):
            return False
        frame = self.framer.encode({
            "v": WIRE_VERSION, "t": "msg", "kind": kind, "src": self._src_info(),
            "qid": qid, "size": size, "attempt": attempt,
            "sent_at": self.now, "payload": payload,
        })
        self._conn(dst_addr).enqueue(frame, kind, on_drop)
        return True

    async def rpc(self, dst_addr: str, kind: str, payload: Any = None, *,
                  size: int = 0, qid: int | None = None,
                  timeout: float | None = None) -> Any:
        """Request/response to ``dst_addr``; raises :class:`RpcTimeout` when
        no reply arrives in time (dead, partitioned or lossy peer)."""
        self._account_send(kind, size)
        if self._dropped_at_send(dst_addr, kind, None):
            raise RpcTimeout(f"rpc {kind} to {dst_addr}: dropped by fault injection")
        loop = self._require_loop()
        rid = self._next_rid
        self._next_rid += 1
        fut: asyncio.Future[Any] = loop.create_future()
        self._pending[rid] = fut
        # the deadline: one timer that resolves the future, not a wait_for task
        timer = loop.call_later(
            timeout or self.rpc_timeout, self._resolve, rid, _NO_RESPONSE)
        try:
            if dst_addr == self.addr:
                # local hand-off, no frame
                self._serve(kind, payload, self._src_info(), self.now,
                            partial(self._resolve, rid))
            else:
                frame = self.framer.encode({
                    "v": WIRE_VERSION, "t": "req", "kind": kind, "rid": rid,
                    "src": self._src_info(),
                    "qid": qid, "size": size, "sent_at": self.now, "payload": payload,
                })
                self._conn(dst_addr).enqueue(frame, None, None)
            reply = await fut
        finally:
            timer.cancel()
            self._pending.pop(rid, None)
        if reply is _NO_RESPONSE:
            raise RpcTimeout(f"rpc {kind} to {dst_addr}: no response")
        if isinstance(reply, dict) and reply.get("__rpc_error__"):
            raise RpcError(f"rpc {kind} to {dst_addr}: {reply['__rpc_error__']}")
        return reply

    def _resolve(self, rid: int, reply: Any) -> None:
        fut = self._pending.get(rid)
        if fut is not None and not fut.done():
            fut.set_result(reply)

    def _conn(self, addr: str) -> _PeerConnection:
        if self._closed:  # close() emptied the pool: nothing would close a new socket
            raise RpcError(f"transport closed: nothing is sent to {addr}")
        conn = self._pool.get(addr)
        if conn is None or conn.closed:
            conn = self._pool[addr] = _PeerConnection(self, addr)
        return conn

    async def flush(self, timeout: float = 5.0) -> bool:
        """Wait until every outgoing queue drained (sends on the wire)."""
        deadline = self.now + timeout
        while self.now < deadline:
            if all(c.idle for c in self._pool.values()):
                return True
            await asyncio.sleep(0.005)
        return False

    # -- receive path -----------------------------------------------------------

    def _latency(self, sent_at: float | None) -> float | None:
        """One-way latency of an envelope stamped ``sent_at`` on this host;
        ``None`` (no sample) for an envelope without the stamp."""
        return None if sent_at is None else max(0.0, self.now - sent_at)

    def _dispatch_msg(self, kind: str, payload: Any, src: dict[str, Any],
                      sent_at: float | None) -> None:
        self._account_delivery(kind, self._latency(sent_at))
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(payload, src)

    def _serve(self, kind: str, payload: Any, src: dict[str, Any], sent_at: float | None,
               answer: Callable[[Any], None]) -> None:
        """Count the request as delivered, run the handler of ``kind`` and
        hand its reply to ``answer``: before this returns when the handler
        returned a plain value, from a task when it returned an awaitable.
        Keep the task's handle: the loop holds tasks weakly, and an
        unreferenced one can be collected before it answers (its exception
        would surface only at exit)."""
        self._account_delivery(kind, self._latency(sent_at))
        handler = self._rpc_handlers.get(kind)
        if handler is None:
            answer({"__rpc_error__": f"no handler for {kind!r}"})
            return
        try:
            reply = handler(payload, src)
        except Exception as exc:
            reply = _rpc_error(exc)
        if hasattr(reply, "__await__"):
            task = self._require_loop().create_task(self._serve_later(reply, answer))
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        else:
            answer(reply)

    @staticmethod
    async def _serve_later(reply: Awaitable[Any], answer: Callable[[Any], None]) -> None:
        try:
            reply = await reply
        except Exception as exc:
            reply = _rpc_error(exc)
        answer(reply)
