"""Ablation — entry replication and failure tolerance.

The paper leans on the DHT's fault tolerance but stores each index entry on
exactly one node; a crash silently loses that shard.  Storing each entry on
the owner plus ``r - 1`` successors makes crashes survivable at ``r x``
storage: the replicas carry keys outside their holder's ownership interval,
so the claimed-key-range filter keeps them invisible until the ring repairs
around the dead owner — zero-code-path failover.

Reports recall after a burst of crashes for replication factors 1–3.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.platform import IndexPlatform
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import batch_exact_top_k
from repro.eval.metrics import merge_top_k, recall_at_k
from repro.eval.report import format_table
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

N_NODES = 40
N_CRASHES = 4
N_QUERIES = 40


def test_replication_failure_tolerance(benchmark, save_result):
    cfg = ClusteredGaussianConfig(n_objects=4000, dim=12, n_clusters=5, deviation=8.0)
    data, centers = generate_clustered(cfg, seed=0)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
    rng = np.random.default_rng(1)
    query_ids = rng.integers(0, cfg.n_objects, size=N_QUERIES)
    truth = batch_exact_top_k(data, metric, data[query_ids], k=10)
    radius = 0.08 * cfg.max_distance

    def measure(platform):
        proto, stats = platform.protocol("idx", top_k=10, range_filter=False)
        index = platform.indexes["idx"]
        nodes = platform.ring.nodes()
        platform.sim.reset()
        for qid, qi in enumerate(query_ids):
            proto.issue(index.make_query(data[qi], radius, qid=qid), nodes[qid % len(nodes)])
        platform.sim.run()
        recs = [
            recall_at_k(truth[qid], merge_top_k(stats.for_query(qid).entries, 10))
            for qid in range(N_QUERIES)
        ]
        return float(np.mean(recs))

    def run():
        rows = []
        for repl in (1, 2, 3):
            latency = king_latency_model(n_hosts=N_NODES, seed=0)
            ring = ChordRing.build(N_NODES, m=32, seed=0, latency=latency, pns=False)
            platform = IndexPlatform(ring)
            platform.create_index(
                "idx", data, metric, k=4, selection="kmeans",
                replication=repl, seed=0,
            )
            index = platform.indexes["idx"]
            storage = int(index.load_distribution().sum())
            before = measure(platform)
            # worst case: crash the most-loaded nodes
            for _ in range(N_CRASHES):
                victim = max(
                    (n for n in platform.ring.nodes() if n in index.shards),
                    key=lambda n: index.shards[n].load,
                )
                platform.fail_node(victim)
            surviving = index.total_entries()
            after = measure(platform)
            rows.append(
                [repl, storage, before, after, cfg.n_objects - surviving]
            )
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_replication",
        f"Ablation — replication vs {N_CRASHES} node crashes ({N_NODES} nodes)\n"
        + format_table(
            ["replication", "stored entries", "recall before", "recall after", "entries lost"],
            rows,
        ),
    )
    r1, r2, r3 = rows
    assert r1[4] > 0  # unreplicated: crashes lose data
    assert r3[4] <= r2[4] <= r1[4]  # replication reduces loss
    assert r3[3] >= r1[3]  # and preserves recall
    assert r2[1] == 2 * r1[1]  # storage scales with the factor
