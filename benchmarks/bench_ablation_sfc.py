"""Ablation — the paper's k-d mapping + embedded-tree routing versus
SCRAP-style space-filling-curve interval routing (§5 related work).

Three systems answer the same workload on the same overlay and index space:

* **LPH + embedded tree** — the paper's architecture (Algorithms 2–5);
* **Morton intervals** — the identical 1-d ordering (Algorithm 2 *is*
  Z-order; verified bit-for-bit in the tests), but queried SCRAP-style as
  per-interval Chord lookups + successor walks;
* **Hilbert intervals** — SCRAP's actual curve, which fragments rectangles
  into fewer intervals at the cost of a different placement.

This isolates the contribution of the *routing* (shared prefixes on the
embedded tree) from the *mapping* (curve choice).
"""

import numpy as np

from benchmarks.baselines.scrap import SfcIndex, SfcRangeProtocol
from benchmarks.conftest import BENCH_NODES, run_once
from repro.core.platform import IndexPlatform
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.eval.report import format_table
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

RANGE_FACTORS = (0.02, 0.05, 0.10)
N_QUERIES = 30


def test_sfc_vs_embedded_tree(benchmark, save_result):
    cfg = ClusteredGaussianConfig(n_objects=5000, dim=16, n_clusters=6, deviation=8.0)
    data, _ = generate_clustered(cfg, seed=0)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
    latency = king_latency_model(n_hosts=BENCH_NODES, seed=0)
    ring = ChordRing.build(BENCH_NODES, m=32, seed=0, latency=latency, pns=True)
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, metric, k=4, selection="kmeans", seed=1)
    base = platform.indexes["idx"]
    morton = SfcIndex(base, curve="morton", p=8)
    hilbert = SfcIndex(base, curve="hilbert", p=8)
    rng = np.random.default_rng(2)
    qids = rng.integers(0, cfg.n_objects, size=N_QUERIES)
    nodes = ring.nodes()

    def measure(proto):
        platform.sim.reset()
        for i, qi in enumerate(qids):
            q = base.make_query(data[qi], RADIUS, qid=i)
            proto.issue(q, nodes[i % len(nodes)])
        platform.sim.run()
        s = proto.stats.summary()
        return [s["query_messages"], s["query_bytes"], s["index_nodes"], s["max_latency"]]

    def run():
        rows = []
        for rf in RANGE_FACTORS:
            global RADIUS
            RADIUS = rf * cfg.max_distance
            tree = measure(platform.protocol("idx", top_k=10)[0])
            mor = measure(SfcRangeProtocol(platform.transport, morton, top_k=10))
            hil = measure(SfcRangeProtocol(platform.transport, hilbert, top_k=10))
            for label, row in (("tree", tree), ("morton-sfc", mor), ("hilbert-sfc", hil)):
                rows.append([f"{rf*100:g}%", label] + [round(v, 2) for v in row])
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_sfc",
        "Ablation — embedded-tree routing vs SCRAP-style SFC interval routing\n"
        + format_table(
            ["range%", "system", "msgs/query", "qbytes/query", "nodes/query", "max latency"],
            rows,
        ),
    )
    by = {(r[0], r[1]): r for r in rows}
    for rf in ("2%", "5%", "10%"):
        # hilbert fragments less than morton under interval routing
        assert by[(rf, "hilbert-sfc")][2] <= by[(rf, "morton-sfc")][2] * 1.3
