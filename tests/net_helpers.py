"""Backend-agnostic harnesses for the transport conformance suite.

``tests/test_transport_conformance.py`` is written against the small driver
API below; :class:`SimHarness` runs it on the discrete-event
:class:`repro.sim.transport.Transport` and :class:`TcpHarness` on the live
:class:`repro.net.transport.TcpTransport` — same assertions, two backends.

Peers are integers ``0..n-1``; peer i's "host" (for partition faults) is i.
Payloads are kept JSON-simple so both backends carry them unchanged.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any

from repro.sim.transport import FaultConfig, Transport


def ephemeral_port() -> int:
    """A currently-free TCP port (bind-0-then-close; tiny reuse race, which
    is why in-process tests bind port 0 directly and only the subprocess
    launcher — which must know the port up front — uses this)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return int(s.getsockname()[1])


def json_frame(tree: Any) -> bytes:
    """A JSON frame around ``tree`` as written, bypassing ``Framer.encode``."""
    body = json.dumps(tree).encode("utf-8")
    return (len(body) + 1).to_bytes(4, "big") + b"J" + body


class _SimPeer:
    """Duck-typed endpoint of the sim transport (id/host/alive)."""

    def __init__(self, i: int) -> None:
        self.id = i
        self.host = i
        self.alive = True


class SimHarness:
    """Drives the conformance API on the simulator backend."""

    backend = "sim"

    def start(self, n: int, faults: FaultConfig | None = None) -> None:
        self.transport = Transport(faults=faults)
        self.peers = [_SimPeer(i) for i in range(n)]
        self.inbox: list[list[tuple[str, Any]]] = [[] for _ in range(n)]

    def send(self, src: int, dst: int, kind: str = "message", payload: Any = None,
             *, size: int = 0, on_drop=None) -> bool:
        def handler(p: Any = payload, d: int = dst, k: str = kind) -> None:
            self.inbox[d].append((k, p))

        return self.transport.send(
            self.peers[src], self.peers[dst], handler,
            kind=kind, size=size, on_drop=on_drop,
        )

    def timer(self, peer: int, delay: float, fn) -> Any:
        return self.transport.timer_cancelable(delay, fn)

    def advance(self, seconds: float) -> None:
        self.transport.sim.run(until=self.transport.sim.now + seconds)

    def settle(self) -> None:
        self.transport.sim.run()

    def received(self, peer: int) -> list[tuple[str, Any]]:
        return self.inbox[peer]

    def total_sent(self) -> int:
        return self.transport.stats.sent

    def total_delivered(self) -> int:
        return self.transport.stats.delivered

    def total_dropped(self, reason: str) -> int:
        return getattr(self.transport.stats, f"dropped_{reason}")

    def byte_totals(self) -> tuple[int, int, int]:
        s = self.transport.stats
        return s.query_bytes, s.result_bytes, s.maintenance_bytes

    def stop(self) -> None:
        pass


class TcpHarness:
    """Drives the conformance API on the live asyncio TCP backend.

    Owns a private event loop so the (synchronous) conformance tests can
    drive async transports; ``settle`` flushes every writer queue and then
    lets the loop breathe until the receive side has dispatched.
    """

    backend = "tcp"

    def start(self, n: int, faults: FaultConfig | None = None) -> None:
        from repro.net.transport import TcpTransport

        if getattr(self, "transports", None):
            self.stop()  # restartable: reproducibility tests start twice
        self.loop = asyncio.new_event_loop()
        self.transports: list[TcpTransport] = []
        self.inbox: list[list[tuple[str, Any]]] = [[] for _ in range(n)]

        async def boot() -> None:
            for i in range(n):
                t = TcpTransport(node_id=i, host=i, faults=faults)
                await t.start()
                for kind in ("message", "a", "b", "result", "maintenance:x"):
                    t.register_handler(kind, self._make_handler(i, kind))
                self.transports.append(t)
            for t in self.transports:
                for j, u in enumerate(self.transports):
                    t.set_peer_host(u.addr, j)

        self.loop.run_until_complete(boot())

    def _make_handler(self, i: int, kind: str):
        def handler(payload: Any, src: dict[str, Any]) -> None:
            self.inbox[i].append((kind, payload))

        return handler

    def send(self, src: int, dst: int, kind: str = "message", payload: Any = None,
             *, size: int = 0, on_drop=None) -> bool:
        return self.transports[src].send(
            self.transports[dst].addr, kind, payload, size=size, on_drop=on_drop,
        )

    def settle(self, quiet: float = 0.05, timeout: float = 10.0) -> None:
        async def drain() -> None:
            for t in self.transports:
                await t.flush(timeout)
            # wait until inboxes have been stable for `quiet` seconds
            deadline = asyncio.get_running_loop().time() + timeout
            last = None
            while asyncio.get_running_loop().time() < deadline:
                snap = [len(box) for box in self.inbox]
                if snap == last:
                    return
                last = snap
                await asyncio.sleep(quiet)

        self.loop.run_until_complete(drain())

    def received(self, peer: int) -> list[tuple[str, Any]]:
        return self.inbox[peer]

    def total_sent(self) -> int:
        return sum(t.stats.sent for t in self.transports)

    def total_delivered(self) -> int:
        return sum(t.stats.delivered for t in self.transports)

    def total_dropped(self, reason: str) -> int:
        return sum(getattr(t.stats, f"dropped_{reason}") for t in self.transports)

    def byte_totals(self) -> tuple[int, int, int]:
        return (
            sum(t.stats.query_bytes for t in self.transports),
            sum(t.stats.result_bytes for t in self.transports),
            sum(t.stats.maintenance_bytes for t in self.transports),
        )

    def stop(self) -> None:
        async def teardown() -> None:
            for t in self.transports:
                await t.close()

        self.loop.run_until_complete(teardown())
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()
