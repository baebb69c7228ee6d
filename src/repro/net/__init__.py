"""Live network execution backend (asyncio TCP).

The simulator's :class:`repro.sim.transport.Transport` delivers messages by
scheduling callbacks on a virtual clock; this package is the second backend
the ROADMAP calls for — the same contract (per-peer ordered delivery,
fault injection, byte accounting) carried by real sockets on the host's
monotonic clock:

* :mod:`repro.net.codec` — length-prefixed JSON framing of a
  versioned envelope whose payloads are plain values (JSON scalars, lists,
  dicts, bytes, NumPy arrays); no class is built from network bytes;
* :mod:`repro.net.transport` — :class:`TcpTransport`: asyncio protocol
  links, a listener + per-peer connection pool (reconnect with exponential
  backoff), one-way sends and request/response RPC;
* :mod:`repro.net.node` — :class:`NodeProcess`: one live Chord node per
  asyncio task (or OS process via ``repro node``), running stabilisation
  over RPC and persisting its shard + successor state through
  :class:`repro.core.storage.PersistentShard`;
* :mod:`repro.net.cluster` — in-process clusters, the subprocess launcher
  used by the crash-recovery tests and Docker Compose, and the
  insert/query/kill-node/rejoin demo behind ``repro cluster``.

Both backends pass the same conformance suite
(``tests/test_transport_conformance.py``); docs/deployment.md describes the
architecture and the persistence format.
"""

from repro.net.codec import CodecError, FrameDecoder, Framer, WIRE_VERSION
from repro.net.transport import RpcError, RpcTimeout, TcpTransport
from repro.net.node import NodeConfig, NodeProcess
from repro.net.cluster import (
    ClusterClient,
    LocalCluster,
    run_cluster_demo,
)

__all__ = [
    "CodecError",
    "FrameDecoder",
    "Framer",
    "WIRE_VERSION",
    "RpcError",
    "RpcTimeout",
    "TcpTransport",
    "NodeConfig",
    "NodeProcess",
    "ClusterClient",
    "LocalCluster",
    "run_cluster_demo",
]
