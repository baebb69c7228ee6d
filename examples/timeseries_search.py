"""Approximate time-series search (paper §2, motivating example 4).

Fixed-length time series are vectors; under the ``L_1`` (Hamilton) metric
they plug straight into the landmark platform.  Series are synthesised from
template shapes (trend + seasonality) with autocorrelated noise, so each
query has a genuine family of near neighbours.

Also demonstrates the query *trace*: the embedded-tree execution of one
range query, printed step by step.

Run:  python examples/timeseries_search.py
"""

import numpy as np

from repro import ChordRing, IndexPlatform, ManhattanMetric
from repro.core.routing import QueryProtocol
from repro.datasets.timeseries import TimeSeriesFamilyConfig, generate_timeseries
from repro.obs import Observability
from repro.sim.king import king_latency_model


def main() -> None:
    cfg = TimeSeriesFamilyConfig(n_series=800, n_templates=8, length=48, noise=0.15)
    series, family = generate_timeseries(cfg, seed=0)
    print(f"dataset: {len(series)} series of length {cfg.length}, {cfg.n_templates} shape families")

    metric = ManhattanMetric(box=(cfg.low, cfg.high), dim=cfg.length)
    latency = king_latency_model(n_hosts=32, seed=0)
    ring = ChordRing.build(32, m=28, seed=0, latency=latency, pns=True)
    platform = IndexPlatform(ring)
    platform.create_index(
        "series", series, metric, k=4, selection="kmeans", sample_size=300, seed=1
    )

    rng = np.random.default_rng(2)
    for trial in range(3):
        qi = int(rng.integers(0, cfg.n_series))
        radius = 0.05 * metric.upper_bound
        results = platform.query("series", series[qi], radius=radius, top_k=8,
                                 range_filter=False)
        own = sum(family[e.object_id] == family[qi] for e in results)
        print(
            f"query {trial}: series #{qi} (family {family[qi]}): "
            f"{own}/{len(results)} of top {len(results)} from the same family"
        )

    # -- trace one query through the embedded tree -----------------------------
    obs = Observability(tracing=True).bind(platform.sim)
    proto = QueryProtocol(platform.transport, platform.indexes["series"], obs=obs)
    platform.sim.reset()
    q = platform.indexes["series"].make_query(series[0], 0.03 * metric.upper_bound, qid=0)
    proto.issue(q, ring.nodes()[0])
    platform.sim.run()
    obs.close()  # flushes the query's root span
    routes, refines, solves = (
        obs.span_memory.by_kind(kind) for kind in ("route", "refine", "solve")
    )
    visited = {s.node for s in routes + refines + solves}
    print(
        f"\ntraced query: {len(routes)} routing steps, "
        f"{len(refines)} refinements, {len(solves)} local solves "
        f"on {len(visited)} nodes"
    )
    print(obs.span_tree(0).render(max_spans=15))


if __name__ == "__main__":
    main()
