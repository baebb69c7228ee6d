"""SciPy loads only where sparse data (or latency jitter) needs it.

Dense and live runs never touch a sparse matrix, so importing the package,
the CLI or the live backend must not load SciPy; a ``repro node`` process
must boot, take inserts and answer range queries with SciPy unimportable
(the node image installs NumPy only).  The sparse (TREC) path imports ``scipy.sparse`` where it builds or
reads a CSR matrix, and must still work from a fresh interpreter.

Every check runs in a child interpreter: the test process itself has long
imported SciPy through other test modules.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.lph import lp_hash_batch
from repro.net.cluster import ClusterClient, kill_node_process
from repro.net.transport import RpcError
from tests.net_helpers import ephemeral_port

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {**os.environ, "PYTHONPATH": SRC}

#: a ``sys.meta_path`` finder that refuses every ``scipy`` module
BLOCK_SCIPY = textwrap.dedent("""
    import sys

    class _NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, _NoScipy())
""")


def _python(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=ENV,
        capture_output=True, text=True, timeout=120, **kwargs,
    )


def test_importing_the_package_the_cli_and_the_live_backend_loads_no_scipy():
    out = _python(textwrap.dedent("""
        import sys
        import repro, repro.cli, repro.net.cluster, repro.core.platform
        import repro.core.scale, repro.datasets, repro.eval
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_the_blocker_refuses_scipy():
    out = _python(BLOCK_SCIPY + "import scipy.sparse\n")
    assert out.returncode != 0 and "scipy is blocked" in out.stderr


async def _serve_when_up(addr: str, proc: subprocess.Popen, log: Path,
                         timeout: float = 60.0) -> None:
    """Wait for the node's ``status``, then insert a dense batch through it
    and hold its range answers to a brute-force scan (the node's defaults:
    ``m`` = 32, ``k`` = 2, bounds 0–1000)."""
    client = ClusterClient()
    await client.start()
    try:
        deadline = client.transport.now + timeout
        while True:
            assert proc.poll() is None, f"the node exited:\n{log.read_text()}"
            try:
                status = await client.status(addr)
                break
            except RpcError:
                assert client.transport.now < deadline, f"node at {addr} did not come up"
                await asyncio.sleep(0.1)
        assert (status["name"], status["entries"]) == ("n0", 0)

        rng = np.random.default_rng(0)
        points = rng.uniform(0.0, 1000.0, size=(300, 2))
        ids = np.arange(len(points), dtype=np.int64)
        keys = lp_hash_batch(points, IndexSpaceBounds.uniform(2, 0.0, 1000.0), 32)
        assert await client.insert(addr, keys, points, ids) == len(ids)
        for _ in range(8):
            center = rng.uniform(0.0, 1000.0, size=2)
            half = rng.uniform(20.0, 300.0, size=2)
            lows, highs = center - half, center + half
            want = ids[np.all((points >= lows) & (points <= highs), axis=1)]
            assert np.array_equal(await client.query(addr, lows, highs), want)
        assert proc.poll() is None, f"the node exited:\n{log.read_text()}"
    finally:
        await client.close()


def test_a_node_serves_inserts_and_range_queries_without_scipy(tmp_path):
    port = ephemeral_port()
    launch = BLOCK_SCIPY + textwrap.dedent("""
        import runpy
        sys.argv[0] = "repro"
        runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
    """)
    log = tmp_path / "node.log"
    with log.open("w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-c", launch, "node", "--name", "n0",
             "--data-dir", str(tmp_path / "n0"), "--port", str(port)],
            env=ENV, stdout=out, stderr=subprocess.STDOUT,
        )
    try:
        asyncio.run(_serve_when_up(f"127.0.0.1:{port}", proc, log))
    finally:
        if proc.poll() is None:
            kill_node_process(proc)


def test_the_sparse_path_works_from_a_fresh_interpreter():
    out = _python(textwrap.dedent("""
        import sys
        import numpy as np
        from repro.core.platform import IndexPlatform
        from repro.datasets import SyntheticCorpusConfig, generate_corpus
        from repro.dht.ring import ChordRing
        from repro.metric.cosine import SparseAngularMetric
        from repro.sim.network import ConstantLatency

        assert "scipy.sparse" not in sys.modules
        corpus = generate_corpus(SyntheticCorpusConfig().scaled(0.002), seed=0)
        docs = corpus.tfidf
        assert type(docs).__name__ == "csr_matrix", type(docs)
        metric = SparseAngularMetric()
        d = metric.one_to_many(docs[0], docs)
        assert d.shape == (docs.shape[0],) and d[0] < 1e-6
        assert abs(metric.distance(docs[1], docs[2]) - metric.one_to_many(docs[1], docs[2])[0]) < 1e-12

        ring = ChordRing.build(8, m=20, seed=0, latency=ConstantLatency(8, delay=0.01), pns=False)
        platform = IndexPlatform(ring)
        for selection in ("greedy", "kmeans"):
            index = platform.create_index(selection, docs, metric, k=4, selection=selection,
                                          sample_size=200, seed=1)
            assert index.total_entries() == docs.shape[0]
            radius = 1.4  # 2 to 22 of the 314 documents
            for i in (0, 7, 42):
                got = {e.object_id for e in platform.query(selection, docs[i], radius, top_k=10**6)}
                want = set(np.flatnonzero(metric.one_to_many(docs[i], docs) <= radius).tolist())
                assert got == want, (selection, i, len(got), len(want))
        print("ok")
    """))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
