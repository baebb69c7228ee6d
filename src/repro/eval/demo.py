"""A small fault-injected workload with the full observability stack on.

(Lives in ``eval`` because it drives the whole stack — platform, datasets,
overlay, faults; ``obs`` itself stays a leaf layer per layers.toml.)

This is what ``repro obs-demo`` runs and what CI records as artifacts: a
clustered synthetic dataset on a Chord overlay, queried under message loss
with lifecycle retries, with metrics, span tracing and health sampling all
enabled.  The run writes ``metrics.jsonl`` / ``metrics.prom`` /
``spans.jsonl`` / ``health.jsonl`` into ``out_dir``, so ``repro metrics``
and ``repro trace <qid>`` have something real to render and the e2e tests
have a deterministic workload to assert span/stat consistency on.
"""

from __future__ import annotations

from typing import Any

__all__ = ["run_demo"]


def run_demo(
    out_dir: Any = None,
    *,
    n_nodes: int = 32,
    n_objects: int = 2000,
    n_queries: int = 50,
    dim: int = 8,
    loss: float = 0.05,
    seed: int = 0,
    mean_interarrival: float = 20.0,
) -> dict:
    """Run the demo workload; returns the live objects plus written paths.

    All heavyweight imports happen here, not at module load, so importing
    :mod:`repro.obs` stays cheap for code that only wants the registry.
    """
    from pathlib import Path

    from repro.core.lifecycle import RetryPolicy
    from repro.core.platform import IndexPlatform
    from repro.datasets.queries import QueryWorkload, synthetic_query_points
    from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
    from repro.dht.ring import ChordRing
    from repro.metric.vector import EuclideanMetric
    from repro.obs import Observability
    from repro.obs.export import write_jsonl, write_prometheus
    from repro.obs.load import STORED_ENTRIES_GAUGE, record_load_vector
    from repro.sim.king import king_latency_model
    from repro.sim.transport import FaultConfig

    paths: dict[str, str] = {}
    out = None
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    trace_path = str(out / "spans.jsonl") if out is not None else None

    latency = king_latency_model(n_hosts=n_nodes, seed=seed)
    ring = ChordRing.build(n_nodes, m=32, seed=seed, latency=latency, pns=False)
    cfg = ClusteredGaussianConfig(
        n_objects=n_objects, dim=dim, n_clusters=5, deviation=10.0)
    data, centers = generate_clustered(cfg, seed=seed + 1)
    metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)

    obs = Observability(metrics=True, tracing=True, trace_path=trace_path)
    faults = FaultConfig(loss_rate=loss, seed=seed)
    with IndexPlatform(ring, faults=faults, obs=obs) as platform:
        index = platform.create_index(
            "demo", data, metric, k=4, selection="kmeans",
            sample_size=min(500, n_objects), seed=seed + 2,
        )
        qpoints = synthetic_query_points(cfg, n_queries, centers, seed=seed + 3)
        workload = QueryWorkload.build(
            qpoints, radius=0.05 * cfg.max_distance, n_nodes=len(ring),
            mean_interarrival=mean_interarrival, seed=seed + 4,
        )
        sampler = platform.health_sampler(interval=100.0)
        sampler.start()
        stats = platform.run_workload(
            "demo", workload, reset_sim=False,
            policy=RetryPolicy(deadline=60.0, max_retries=2, rto=2.0),
        )
        record_load_vector(
            obs.registry, index.load_distribution(), metric=STORED_ENTRIES_GAUGE)

    # platform/obs are closed now: span sinks flushed, health sampler stopped.
    if out is not None:
        paths["spans"] = trace_path
        metrics_path = out / "metrics.jsonl"
        write_jsonl(obs.metrics_snapshot(), metrics_path)
        paths["metrics"] = str(metrics_path)
        prom_path = out / "metrics.prom"
        write_prometheus(obs.registry, prom_path)
        paths["prom"] = str(prom_path)
        health_path = out / "health.jsonl"
        write_jsonl(sampler.to_dicts(), health_path)
        paths["health"] = str(health_path)

    return {
        "obs": obs,
        "stats": stats,
        "sampler": sampler,
        "workload": workload,
        "index": index,
        "platform": platform,
        "paths": paths,
    }
