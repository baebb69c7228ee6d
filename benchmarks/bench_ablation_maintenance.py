"""Ablation — maintenance cost and the §3.3 piggybacking claim.

"The maintenance messages for the DHT links can be piggybacked onto the
query delivery messages, so as to reduce the maintenance cost."

Runs the Chord maintenance loop (stabilize / fix-fingers / successor lists)
under a live query workload with churn, with and without piggybacking, and
reports control bytes, the fraction of control messages that rode along with
query traffic, and post-churn convergence.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.platform import IndexPlatform
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.dht.stabilize import MaintenanceConfig, StabilizationProtocol
from repro.eval.report import format_table
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

N_NODES = 48
DURATION = 1200.0


def _run_setting(piggyback: bool, seed: int = 0):
    cfg = ClusteredGaussianConfig(n_objects=3000, dim=12, n_clusters=5, deviation=8.0)
    data, _ = generate_clustered(cfg, seed=seed)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
    latency = king_latency_model(n_hosts=N_NODES + 8, seed=seed)
    ring = ChordRing.build(N_NODES, m=32, seed=seed, latency=latency, pns=False)
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, metric, k=4, selection="kmeans", seed=seed)
    index = platform.indexes["idx"]

    mcfg = MaintenanceConfig(piggyback=piggyback, piggyback_window=30.0)
    maint = StabilizationProtocol(ring, platform.transport, config=mcfg, seed=seed)
    proto, stats = platform.protocol("idx")

    # live query workload: one query every ~10 s
    rng = np.random.default_rng(seed + 1)
    nodes = ring.nodes()
    t = 0.0
    qid = 0
    while t < DURATION:
        qi = int(rng.integers(0, cfg.n_objects))
        node = nodes[int(rng.integers(0, len(nodes)))]
        proto.issue(
            index.make_query(data[qi], 0.05 * cfg.max_distance, qid=qid), node, at_time=t
        )
        qid += 1
        t += float(rng.exponential(10.0))

    # churn: a couple of crashes and a join mid-run
    maint.start(duration=DURATION)
    victims = [nodes[7], nodes[23]]
    platform.sim.schedule_at(300.0, maint.leave, victims[0], False)
    platform.sim.schedule_at(600.0, maint.leave, victims[1], False)
    platform.sim.schedule_at(
        800.0, maint.join, 0xABCDEF01 % (1 << 32), nodes[0], "joiner", N_NODES
    )
    platform.sim.run(until=DURATION)
    return maint


def test_maintenance_piggybacking(benchmark, save_result):
    def run():
        rows = []
        outcomes = {}
        for piggyback in (False, True):
            maint = _run_setting(piggyback)
            s = maint.stats
            rows.append(
                [
                    "piggyback" if piggyback else "standalone",
                    s.messages,
                    s.bytes,
                    s.piggybacked,
                    s.bytes_saved,
                    f"{s.piggybacked / max(s.messages, 1):.0%}",
                    maint.ring_consistent(),
                ]
            )
            outcomes[piggyback] = s
        return rows, outcomes

    rows, outcomes = run_once(benchmark, run)
    save_result(
        "ablation_maintenance",
        "Ablation — maintenance traffic with/without piggybacking (§3.3)\n"
        f"{N_NODES} nodes, {DURATION:.0f}s, 2 crashes + 1 join, live query workload\n"
        + format_table(
            ["mode", "ctrl msgs", "ctrl bytes", "piggybacked", "bytes saved", "ratio", "ring ok"],
            rows,
        ),
    )
    assert outcomes[True].bytes < outcomes[False].bytes
    assert outcomes[True].piggybacked > 0
    # churn must have been repaired in both settings
    assert all(r[-1] for r in rows)
