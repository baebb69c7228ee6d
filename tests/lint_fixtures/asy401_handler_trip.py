# lint-fixture-module: repro.net.fixture_leaf_handler
"""ASY401 trip: a plain RPC handler runs on the loop, and this one sleeps."""

import time


class Node:
    def start(self, transport) -> None:
        transport.register_rpc("ping", self._rpc_ping)

    def _rpc_ping(self, payload, src):
        time.sleep(0.01)  # ASY401: answered inline, so every link waits
        return {"pong": payload}
