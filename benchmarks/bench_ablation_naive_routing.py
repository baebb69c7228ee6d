"""Ablation — naive per-cuboid routing versus embedded-tree routing (§3.3).

The paper's strawman sends one independent Chord lookup per owner cuboid;
the proposed algorithm refines queries progressively along the trees
embedded in the DHT links, sharing paths and bundling subqueries.  This
bench measures both on the same index and workload and reports the message
and bandwidth blow-up of the naive scheme as query selectivity grows.
"""

import numpy as np

from benchmarks.conftest import BENCH_NODES, run_once
from repro.core.naive import NaiveProtocol
from repro.core.platform import IndexPlatform
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.eval.report import format_table
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model
from repro.sim.stats import StatsCollector

RANGE_FACTORS = (0.01, 0.05, 0.10, 0.20)
N_QUERIES = 40


def test_naive_vs_tree_routing(benchmark, save_result):
    cfg = ClusteredGaussianConfig(n_objects=5000, dim=20, n_clusters=6, deviation=10.0)
    data, centers = generate_clustered(cfg, seed=0)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
    latency = king_latency_model(n_hosts=BENCH_NODES, seed=0)
    ring = ChordRing.build(BENCH_NODES, m=32, seed=0, latency=latency, pns=True)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, metric, k=5, selection="kmeans", sample_size=800, seed=1
    )
    index = platform.indexes["idx"]
    rng = np.random.default_rng(2)
    query_ids = rng.integers(0, cfg.n_objects, size=N_QUERIES)
    nodes = ring.nodes()

    def run():
        rows = []
        for rf in RANGE_FACTORS:
            radius = rf * cfg.max_distance
            per_proto = {}
            for label, proto_cls in (("tree", None), ("naive", NaiveProtocol)):
                stats = StatsCollector()
                if proto_cls is None:
                    proto, stats = platform.protocol("idx", stats=stats)
                else:
                    proto = NaiveProtocol(platform.transport, index, stats)
                platform.sim.reset()
                for qid, qi in enumerate(query_ids):
                    q = index.make_query(data[qi], radius, qid=qid)
                    proto.issue(q, nodes[qid % len(nodes)])
                platform.sim.run()
                per_proto[label] = stats.summary()
            t, n = per_proto["tree"], per_proto["naive"]
            rows.append(
                [
                    f"{rf * 100:g}%",
                    t["query_messages"],
                    n["query_messages"],
                    n["query_messages"] / max(t["query_messages"], 1e-9),
                    t["query_bytes"],
                    n["query_bytes"],
                    t["hops"],
                    n["hops"],
                ]
            )
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_naive",
        "Ablation — embedded-tree routing vs naive per-cuboid Chord lookups\n"
        + format_table(
            [
                "range%",
                "tree msgs",
                "naive msgs",
                "naive/tree",
                "tree qbytes",
                "naive qbytes",
                "tree hops",
                "naive hops",
            ],
            rows,
        ),
    )
    # The paper's claim: naive costs more, and increasingly so as the query
    # selectivity (range) grows.
    ratios = [r[3] for r in rows]
    assert ratios[-1] >= 1.0
    assert max(ratios) > 1.5
