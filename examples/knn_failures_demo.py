"""Exact k-NN search, dynamic updates and crash tolerance in one scenario.

Extensions beyond the paper's evaluation (DESIGN.md §5b):

1. **k-NN with unknown radius** — the radius-doubling loop certifies the
   exact 10 nearest neighbours while touching a handful of nodes;
2. **dynamic datasets** — entries inserted and deleted at runtime through
   the overlay (the paper's §6 future-work item);
3. **replication + failure injection** — with entries on 2 successors the
   index answers exactly through a node crash, with zero failover code in
   the query path.

Run:  python examples/knn_failures_demo.py
"""


from repro import ChordRing, EuclideanMetric, IndexPlatform
from repro.core.knn import knn_search
from repro.core.updates import UpdateProtocol
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.eval.ground_truth import exact_top_k
from repro.sim.king import king_latency_model


def main() -> None:
    cfg = ClusteredGaussianConfig(n_objects=3000, dim=12, n_clusters=6, deviation=6.0)
    data, _ = generate_clustered(cfg, seed=0)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)

    latency = king_latency_model(n_hosts=40, seed=0)
    ring = ChordRing.build(40, m=32, seed=0, latency=latency, pns=True)
    platform = IndexPlatform(ring)
    index = platform.create_index(
        "vecs", data, metric, k=4, selection="kmeans", replication=2, seed=1
    )
    print(
        f"indexed {index.total_entries()} vectors on {len(ring)} nodes "
        f"(replication 2 -> {index.load_distribution().sum()} stored entries)"
    )

    # -- 1. exact k-NN ---------------------------------------------------------
    qi = 7
    res = knn_search(platform, "vecs", data[qi], k=10)
    truth = exact_top_k(data, metric, data[qi], 10)
    match = set(res.object_ids.tolist()) == set(int(t) for t in truth)
    print(
        f"\nkNN(10) of object #{qi}: {res.rounds} rounds, final radius "
        f"{res.final_radius:.1f}, {res.index_nodes} nodes touched, "
        f"exact={res.exact}, matches brute force={match}"
    )

    # -- 2. dynamic updates -------------------------------------------------------
    up = UpdateProtocol(index)
    up.delete(int(res.object_ids[1]))  # remove the 2nd-nearest neighbour
    res2 = knn_search(platform, "vecs", data[qi], k=10)
    print(
        f"after deleting neighbour #{res.object_ids[1]}: "
        f"it {'is GONE from' if res.object_ids[1] not in res2.object_ids else 'is still in'} the top-10"
    )
    up.insert(int(res.object_ids[1]))
    res3 = knn_search(platform, "vecs", data[qi], k=10)
    print(
        f"after re-inserting: top-10 restored = "
        f"{set(res3.object_ids.tolist()) == set(res.object_ids.tolist())} "
        f"(update cost: {up.stats.messages} msgs, {up.stats.mean_hops:.1f} hops/op)"
    )

    # -- 3. crash tolerance ----------------------------------------------------------
    victim = max(index.shards, key=lambda n: index.shards[n].load)
    print(f"\ncrashing the most loaded node ({victim.name}, {index.shards[victim].load} entries)...")
    before = index.total_entries()
    platform.fail_node(victim)
    res4 = knn_search(platform, "vecs", data[qi], k=10)
    print(
        f"post-crash kNN exact={res4.exact}, matches pre-crash="
        f"{set(res4.object_ids.tolist()) == set(res3.object_ids.tolist())}"
    )
    index.distribute()
    lost = before - index.total_entries()
    print(f"re-replication: {lost} entries lost, storage back to "
          f"{index.load_distribution().sum()} entries")


if __name__ == "__main__":
    main()
