# lint-fixture-module: repro.net.fixture_leaf_handler
"""ASY401 clean twin: the handler answers from memory; the sleep is in a
function nothing registers."""

import time


class Node:
    def start(self, transport) -> None:
        transport.register_rpc("ping", self._rpc_ping)

    def _rpc_ping(self, payload, src):
        return {"pong": payload}

    def data_received(self, data: bytes) -> None:
        self.seen = len(data)

    def offline_repair(self) -> None:
        time.sleep(0.01)
