"""Ablation — queries during churn: stabilisation x replication.

The paper measures queries only "after system stabilization".  This bench
asks the harder systems question: what happens to recall when nodes crash
*while* the query workload runs?

Four configurations share the same dataset, overlay and crash schedule
(4 crashes spread through a 20-minute workload of ~100 queries):

* stabilisation off / replication 1 — routes through dead nodes keep failing
  and the dead shards' entries are simply gone;
* stabilisation off / replication 2 — the data survives on successors, but
  stale routing still drops query branches;
* stabilisation on / replication 1 — routing repairs within a stabilisation
  interval, but the dead shards' entries stay lost;
* stabilisation on / replication 2 — both repair: recall recovers to ~1.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.core.platform import IndexPlatform
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.dht.stabilize import MaintenanceConfig, StabilizationProtocol
from repro.eval.ground_truth import batch_exact_top_k
from repro.eval.metrics import merge_top_k, recall_at_k
from repro.eval.report import format_table
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

N_NODES = 48
N_QUERIES = 100
DURATION = 1200.0
N_CRASHES = 4


def _run_config(stabilize: bool, replication: int, data, metric, truth, query_ids, cfg):
    latency = king_latency_model(n_hosts=N_NODES, seed=0)
    ring = ChordRing.build(N_NODES, m=32, seed=0, latency=latency, pns=False)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, metric, k=4, selection="kmeans", replication=replication, seed=0
    )
    index = platform.indexes["idx"]
    maint = StabilizationProtocol(
        ring, platform.transport,
        config=MaintenanceConfig(stabilize_interval=15.0),
        seed=0,
    )
    proto, stats = platform.protocol("idx", top_k=10, range_filter=False)
    nodes = list(ring.nodes())
    rng = np.random.default_rng(1)
    # schedule queries uniformly over the run
    times = np.sort(rng.uniform(0, DURATION, size=N_QUERIES))
    for qid, (qi, t) in enumerate(zip(query_ids, times)):
        src = nodes[int(rng.integers(0, len(nodes)))]
        proto.issue(
            index.make_query(data[qi], 0.08 * cfg.max_distance, qid=qid), src, at_time=float(t)
        )
    # schedule crashes of loaded, pairwise non-adjacent nodes at T/5..4T/5
    # (crashing a primary AND its replica-holding successor would be data
    # loss by design; the replication ablation covers that worst case)
    victims: "list" = []
    for cand in sorted(nodes, key=lambda n: -index.shards[n].load):
        if any(
            cand is v.successor or v is cand.successor for v in victims
        ):
            continue
        victims.append(cand)
        if len(victims) == N_CRASHES:
            break
    for i, victim in enumerate(victims):
        platform.sim.schedule_at(DURATION * (i + 1) / (N_CRASHES + 1), maint.leave, victim, False)
    if stabilize:
        maint.start(duration=DURATION)
    platform.sim.run(until=DURATION + 60.0)
    recalls = []
    drops = 0
    for qid in range(N_QUERIES):
        st = stats.for_query(qid)
        recalls.append(recall_at_k(truth[qid], merge_top_k(st.entries, 10)))
        drops += st.dropped_messages
    return float(np.mean(recalls)), drops


def test_queries_under_churn(benchmark, save_result):
    cfg = ClusteredGaussianConfig(n_objects=4000, dim=12, n_clusters=5, deviation=8.0)
    data, _ = generate_clustered(cfg, seed=0)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
    rng = np.random.default_rng(2)
    query_ids = rng.integers(0, cfg.n_objects, size=N_QUERIES)
    truth = batch_exact_top_k(data, metric, data[query_ids], k=10)

    def run():
        rows = []
        for stabilize in (False, True):
            for repl in (1, 2):
                recall, drops = _run_config(
                    stabilize, repl, data, metric, truth, query_ids, cfg
                )
                rows.append(
                    ["on" if stabilize else "off", repl, round(recall, 3), drops]
                )
        return rows

    rows = run_once(benchmark, run)
    save_result(
        "ablation_churn",
        f"Ablation — recall during churn ({N_CRASHES} crashes of loaded nodes "
        f"over a {DURATION:.0f}s workload, {N_NODES} nodes)\n"
        + format_table(
            ["stabilisation", "replication", "mean recall", "dropped msgs"], rows
        ),
    )
    by = {(r[0], r[1]): r[2] for r in rows}
    # full repair (stabilisation + replication) dominates everything else
    assert by[("on", 2)] >= by[("off", 1)]
    assert by[("on", 2)] >= by[("on", 1)] - 1e-9
    assert by[("on", 2)] >= by[("off", 2)] - 1e-9
    assert by[("on", 2)] > 0.8
