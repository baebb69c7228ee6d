"""Experiment runner: builds a full simulated system and sweeps query ranges.

One experiment = one dataset + one overlay + several landmark schemes
(e.g. Greedy-5/Greedy-10/Kmean-5/Kmean-10) swept over query range factors,
optionally with dynamic load balancing between construction and querying —
the structure of the paper's Figures 2, 3 and 5.  Ground truth is computed
once per dataset and shared by every scheme and range factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.lifecycle import RetryPolicy
from repro.core.loadbalance import LoadBalanceReport, dynamic_load_migration
from repro.core.platform import IndexPlatform
from repro.datasets.documents import SyntheticCorpusConfig, generate_corpus, generate_topics
from repro.datasets.queries import QueryWorkload, repeat_topics, synthetic_query_points
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import batch_exact_top_k
from repro.eval.metrics import load_summary, workload_recall
from repro.metric.cosine import SparseAngularMetric
from repro.metric.vector import EuclideanMetric
from repro.sim.transport import FaultConfig
from repro.util.rng import as_rng, spawn_rngs

__all__ = [
    "Scheme",
    "ExperimentConfig",
    "SchemeResult",
    "ExperimentResult",
    "DatasetBundle",
    "build_synthetic_bundle",
    "build_trec_bundle",
    "run_experiment",
]


@dataclass(frozen=True)
class Scheme:
    """One landmark-selection configuration, e.g. ``Kmean-10``."""

    label: str
    selection: str
    k: int


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one of the paper's experiments.

    The defaults are the *bench scale* (fast, shape-preserving); the paper
    scale uses 1740 hosts / 1e5 objects / 2000 queries — see
    :mod:`repro.eval.experiments` for both.
    """

    kind: str = "synthetic"  # "synthetic" | "trec"
    n_nodes: int = 128
    m: int = 64
    pns: bool = True
    successor_list_len: int = 16
    n_objects: int = 20_000
    n_queries: int = 200
    n_topics: int = 50  # trec only
    sample_size: int = 2000
    schemes: tuple[Scheme, ...] = (
        Scheme("Greedy-5", "greedy", 5),
        Scheme("Greedy-10", "greedy", 10),
        Scheme("Kmean-5", "kmeans", 5),
        Scheme("Kmean-10", "kmeans", 10),
    )
    range_factors: tuple[float, ...] = (0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20)
    load_balance: bool = False
    lb_delta: float = 0.0
    lb_probe_level: int = 4
    lb_max_rounds: int = 40
    rotation: bool = False
    boundary: str = "metric"
    surrogate_mode: str = "fixed"
    #: The paper's recall protocol: index nodes return their 10 nearest
    #: candidates from the range rectangle *without* a radius cutoff (the
    #: rectangle is the gathering mechanism; §4.1's merge step ranks by true
    #: distance).  Set True for strict range-query semantics instead.
    range_filter: bool = False
    top_k: int = 10
    mean_interarrival: float = 150.0
    seed: int = 0
    corpus_scale: float = 0.1  # trec only: fraction of the full AP corpus
    #: Optional transport fault model (loss / jitter / partitions) applied to
    #: every message of every scheme run; None = the paper's fault-free runs.
    faults: FaultConfig | None = None
    #: Lifecycle policy (per-query deadline, retransmission with exponential
    #: backoff); None = the default policy: no deadline, no retransmission,
    #: a lost branch settles as failed.
    policy: RetryPolicy | None = None


@dataclass
class SchemeResult:
    """Sweep results for one landmark scheme."""

    scheme: Scheme
    rows: list[dict[str, float]] = field(default_factory=list)
    load_distribution: np.ndarray | None = None
    load_stats: dict[str, float] = field(default_factory=dict)
    lb_report: LoadBalanceReport | None = None


@dataclass
class ExperimentResult:
    """All scheme sweeps of one experiment."""

    config: ExperimentConfig
    schemes: list[SchemeResult] = field(default_factory=list)

    def scheme(self, label: str) -> SchemeResult:
        for s in self.schemes:
            if s.scheme.label == label:
                return s
        raise KeyError(label)


@dataclass
class DatasetBundle:
    """A dataset with its metric, query objects and exact ground truth."""

    dataset: object
    metric: object
    query_objects: object  # indexable; one per workload query
    max_distance: float
    ground_truth: list[np.ndarray]
    boundary: str


def build_synthetic_bundle(cfg: ExperimentConfig) -> DatasetBundle:
    """The §4.2 workload: clustered Gaussians, Euclidean metric, Table 1 params."""
    rng_data, rng_query = spawn_rngs(cfg.seed, 2)
    data_cfg = ClusteredGaussianConfig(n_objects=cfg.n_objects)
    dataset, centers = generate_clustered(data_cfg, rng_data)
    metric = EuclideanMetric(box=(data_cfg.low, data_cfg.high), dim=data_cfg.dim)
    queries = synthetic_query_points(data_cfg, cfg.n_queries, centers, rng_query)
    truth = batch_exact_top_k(dataset, metric, queries, k=cfg.top_k)
    return DatasetBundle(
        dataset=dataset,
        metric=metric,
        query_objects=queries,
        max_distance=data_cfg.max_distance,
        ground_truth=truth,
        boundary=cfg.boundary,
    )


def build_trec_bundle(cfg: ExperimentConfig) -> DatasetBundle:
    """The §4.3 workload: synthetic AP-like corpus, angular metric, topic queries.

    50 topics are repeated to ``n_queries`` queries (the paper's setup);
    ground truth is computed per distinct topic and expanded positionally.
    """
    rng_data, rng_topic, rng_rep = spawn_rngs(cfg.seed, 3)
    corpus_cfg = SyntheticCorpusConfig().scaled(cfg.corpus_scale)
    corpus = generate_corpus(corpus_cfg, rng_data)
    metric = SparseAngularMetric()
    topics = generate_topics(corpus, n_topics=cfg.n_topics, seed=rng_topic)
    topic_truth = batch_exact_top_k(corpus.tfidf, metric, topics, k=cfg.top_k)
    idx, query_objects = repeat_topics(topics, cfg.n_queries, rng_rep)
    truth = [topic_truth[int(i)] for i in idx]
    return DatasetBundle(
        dataset=corpus.tfidf,
        metric=metric,
        query_objects=query_objects,
        max_distance=metric.upper_bound,
        ground_truth=truth,
        boundary="sample" if cfg.boundary == "metric" else cfg.boundary,
    )


def build_bundle(cfg: ExperimentConfig) -> DatasetBundle:
    """Dispatch on the experiment kind."""
    if cfg.kind == "synthetic":
        return build_synthetic_bundle(cfg)
    if cfg.kind == "trec":
        return build_trec_bundle(cfg)
    raise ValueError(f"unknown experiment kind {cfg.kind!r}")


def _build_platform(cfg: ExperimentConfig, seed_offset: int = 0, obs=None):
    """Fresh latency model + ring + platform for one scheme run: the O(n²)
    King RTT matrix up to the size of the King trace (1740 hosts), beyond it
    lazy coordinates fitted to the same distribution (O(n) memory)."""
    from repro.sim.king import KING_N_HOSTS, king_coordinate_model, king_latency_model

    n_hosts = max(cfg.n_nodes, 64)
    model = king_latency_model if n_hosts <= KING_N_HOSTS else king_coordinate_model
    latency = model(n_hosts=n_hosts, seed=cfg.seed + seed_offset)
    ring = ChordRing.build(
        cfg.n_nodes,
        m=cfg.m,
        seed=cfg.seed + seed_offset,
        latency=latency,
        pns=cfg.pns,
        successor_list_len=cfg.successor_list_len,
    )
    return IndexPlatform(ring, latency=latency, faults=cfg.faults, obs=obs)


def run_scheme(
    cfg: ExperimentConfig,
    scheme: Scheme,
    bundle: DatasetBundle,
    seed_offset: int = 0,
    obs=None,
) -> SchemeResult:
    """Build one index with ``scheme`` and sweep all range factors.

    ``obs`` is an optional :class:`repro.obs.Observability` shared across
    scheme runs; per-node load lands in its ``node_stored_entries`` gauge
    (labeled by scheme) and the figure benches read it back from the
    registry (the caller closes the shared bundle).
    """
    platform = _build_platform(cfg, seed_offset, obs=obs)
    platform.create_index(
        scheme.label,
        bundle.dataset,
        bundle.metric,
        k=scheme.k,
        selection=scheme.selection,
        sample_size=cfg.sample_size,
        boundary=bundle.boundary,
        rotation=cfg.rotation,
        seed=cfg.seed + 17 * seed_offset,
    )
    result = SchemeResult(scheme=scheme)
    if cfg.load_balance:
        result.lb_report = dynamic_load_migration(
            platform,
            delta=cfg.lb_delta,
            probe_level=cfg.lb_probe_level,
            max_rounds=cfg.lb_max_rounds,
            seed=cfg.seed + seed_offset,
        )
    index = platform.indexes[scheme.label]
    if obs is not None and obs.registry.enabled:
        from repro.obs.load import STORED_ENTRIES_GAUGE, gauge_vector, record_load_vector

        record_load_vector(
            obs.registry, index.load_distribution(),
            metric=STORED_ENTRIES_GAUGE,
            extra_labels=("scheme",), extra_values=(scheme.label,),
        )
        loads = gauge_vector(
            obs.registry, STORED_ENTRIES_GAUGE, match={"scheme": scheme.label}
        )
        result.load_distribution = np.sort(loads)[::-1]
    else:
        result.load_distribution = np.sort(index.load_distribution())[::-1]
    result.load_stats = load_summary(result.load_distribution)
    rng_workload = as_rng(cfg.seed + 1000 + seed_offset)
    for rf in cfg.range_factors:
        radius = rf * bundle.max_distance
        workload = QueryWorkload.build(
            bundle.query_objects,
            radius,
            n_nodes=len(platform.ring),
            mean_interarrival=cfg.mean_interarrival,
            seed=rng_workload,
        )
        stats = platform.run_workload(
            scheme.label,
            workload,
            policy=cfg.policy,
            surrogate_mode=cfg.surrogate_mode,
            top_k=cfg.top_k,
            range_filter=cfg.range_filter,
        )
        recall, _ = workload_recall(stats, bundle.ground_truth, k=cfg.top_k)
        row = stats.summary()
        row["range_factor"] = rf
        row["radius"] = radius
        row["recall"] = recall
        result.rows.append(row)
    return result


def run_experiment(cfg: ExperimentConfig, bundle: DatasetBundle | None = None) -> ExperimentResult:
    """Run every scheme of ``cfg`` against one shared dataset bundle."""
    bundle = bundle or build_bundle(cfg)
    result = ExperimentResult(config=cfg)
    for i, scheme in enumerate(cfg.schemes):
        result.schemes.append(run_scheme(cfg, scheme, bundle, seed_offset=i))
    return result


@dataclass
class ReplicatedResult:
    """Mean/std aggregation of an experiment over independent seeds.

    ``mean``/``std`` hold, per scheme label and metric, arrays over the range
    factors; ``runs`` keeps the individual :class:`ExperimentResult` objects.
    """

    config: ExperimentConfig
    n_seeds: int
    runs: list[ExperimentResult] = field(default_factory=list)
    mean: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    std: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def run_replicated(cfg: ExperimentConfig, n_seeds: int = 3) -> ReplicatedResult:
    """Repeat an experiment over ``n_seeds`` independent seeds.

    A fresh dataset, overlay and workload are generated per seed (the seed
    perturbs everything downstream of ``cfg.seed``); per-metric means and
    standard deviations quantify run-to-run variability — a credible
    evaluation reports both.
    """
    out = ReplicatedResult(config=cfg, n_seeds=n_seeds)
    for s in range(n_seeds):
        run_cfg = replace(cfg, seed=cfg.seed + 1009 * s)
        out.runs.append(run_experiment(run_cfg))
    metrics = [k for k in out.runs[0].schemes[0].rows[0] if k != "range_factor"]
    for scheme_idx, scheme in enumerate(cfg.schemes):
        label = scheme.label
        out.mean[label] = {}
        out.std[label] = {}
        for metric in metrics:
            stacked = np.asarray(
                [
                    [row[metric] for row in run.schemes[scheme_idx].rows]
                    for run in out.runs
                ]
            )
            out.mean[label][metric] = stacked.mean(axis=0)
            out.std[label][metric] = stacked.std(axis=0)
    return out
