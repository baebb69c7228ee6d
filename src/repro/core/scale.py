"""The 100k-node simulator core: the paper's pipeline on flat arrays.

The object-graph simulation (:class:`repro.core.platform.IndexPlatform` over
:class:`repro.dht.ring.ChordRing`) models every message and per-node state
faithfully, which caps it at a few thousand nodes.  This module runs the same
*pipeline* — clustered data, landmark projection, locality-preserving
hashing, rotation, Chord routing, per-node shards — against the compact
substrates built for scale:

* membership + routing: :class:`repro.dht.compact.CompactChordRing`
  (slot-keyed arrays, batched greedy lookups);
* storage: :class:`repro.core.storage.ShardStore` (one columnar block,
  CSR-like offsets);
* delays: any :class:`repro.sim.LatencyModel` via its vectorised
  ``latency_pairs`` — at full scale that is
  :func:`repro.sim.king_coordinate_model`, whose lazy synthetic coordinates
  replace the O(n²) King matrix.

Queries advance in chunks; after each chunk the embedded
:class:`repro.sim.Simulator` clock advances one virtual second so a
:class:`repro.obs.HealthSampler` can tick and the run leaves a live health
trace alongside the Fig. 4/6-analogue outputs: the per-node load vector
(stored entries + forwarding visits, Gini/hotspot summarised) and the
query hop/latency distributions, all recorded into the metrics registry.

Each chunk's row-wise pipeline — projection, clipping, hashing, rotation,
routing — runs in contiguous row parts on parallel threads (the NumPy
kernels release the GIL; see :data:`_MIN_PART_ROWS`).  The invariant that keeps
a run bit-identical to a one-part run: every random draw and every write to
simulation state (histograms, counters, load vectors, traces, the clock)
stays on the calling thread, and a part only reads shared state and returns
its rows' arrays, so each lookup's result depends on its own row alone.

Wall-clock timing deliberately lives elsewhere (:mod:`repro.check.scale_smoke`):
this module is deterministic simulation state only.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpaceBounds
from repro.core.landmarks import LandmarkSet, kmeans_selection
from repro.core.lph import lp_hash_batch
from repro.core.storage import ShardStore
from repro.datasets.synthetic import ClusteredGaussianConfig, generate_clustered
from repro.dht.compact import CompactChordRing
from repro.dht.hashing import rotation_offset
from repro.dht.idspace import rotate_keys
from repro.metric.vector import EuclideanMetric
from repro.obs import (
    DEFAULT_HOP_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    FlightRecorder,
    HealthSampler,
    SpanRecorder,
    TraceSampler,
    gini_coefficient,
    hotspot_report,
    record_load_vector,
)
from repro.obs.registry import MetricsRegistry
from repro.sim import LatencyModel, Simulator
from repro.util.rng import as_rng, derive_rng

__all__ = ["ScaleConfig", "ScaleReport", "ScaleSimulation"]

#: per-node gauges are only materialised up to this ring size — beyond it a
#: 100k-label gauge would dwarf the simulation state it describes; the load
#: vectors stay available on the report regardless.
_LOAD_GAUGE_MAX_NODES = 20_000

#: identifier bits and successor-list length of the compact ring, and the
#: index name the static rotation (§3.4) is hashed from
ID_BITS = 64
SUCCESSOR_LIST_LEN = 16
INDEX_NAME = "scale-index"
#: per-coordinate half-width of the sampled local range searches, as a
#: fraction of the index-space span.
QUERY_RANGE_FACTOR = 0.02
#: no part of a chunk is smaller than this many rows.  Starting and joining a
#: thread costs only 60-90 us (``route_batch`` takes ~4.3 ms per 3,125 rows on
#: the 100k-node ring), but each part also holds the GIL for the Python of its
#: ~20 routing rounds, and small parts mostly contend for it.  Timed on a
#: 2-core x86 VM (``run()`` of 50k queries, medians of 5-9, 2 parts vs 1, on
#: 10k- and 100k-node rings, measured twice): parts of 1,562 rows cost
#: x1.15-1.41, of 3,125 rows x1.00-1.15, of 6,250 rows x0.84-0.99, of 12,500
#: rows x0.74-0.87 and of 25,000 rows x0.68-0.69.  So the smoke run's
#: 12,500-row chunks split in two and its 6,250-row chunks do not.
_MIN_PART_ROWS = 6_000
#: a per-chunk dropped fraction above this triggers the run's one
#: flight-recorder "deadline-storm" bundle dump.
STORM_THRESHOLD = 0.05

QUERY_LATENCY_HIST = "scale_query_latency_seconds"
QUERY_HOPS_HIST = "scale_query_hops"
FORWARD_LOAD_GAUGE = "scale_node_forwarding_visits"
STORED_LOAD_GAUGE = "scale_node_stored_entries"
QUERIES_ROUTED_TOTAL = "scale_queries_routed_total"
QUERIES_SOLVED_TOTAL = "scale_queries_solved_total"
QUERIES_DROPPED_TOTAL = "scale_queries_dropped_total"
TRACE_SAMPLES_TOTAL = "scale_trace_samples_total"


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs of a scale run (defaults: the 100k-node / 1M-query target).

    The data model is the paper's Table 1 clustered-Gaussian family
    (:class:`~repro.datasets.synthetic.ClusteredGaussianConfig`'s defaults),
    scaled down in dimensionality so a 100k-object
    projection stays cheap; queries are drawn from the same cluster structure
    ("the corresponding query sets are generated with the same method").
    """

    n_nodes: int = 100_000
    n_objects: int = 100_000
    n_queries: int = 1_000_000
    dim: int = 16
    n_landmarks: int = 4
    seed: int = 0
    #: queries routed per vectorised round-trip; each chunk advances the
    #: embedded simulator clock one virtual second (the health cadence).
    chunk: int = 100_000
    #: how many queries of a run's first chunk additionally run the
    #: owner-side range search (one batched search over their owners).
    local_solve_sample: int = 2_048
    #: trace 1-in-N queries via :class:`~repro.obs.sampling.TraceSampler`
    #: (deterministic qid hash — no RNG draws, replay-stable); 0 disables.
    trace_sample_every: int = 1024
    #: queries forwarded more than this many hops count as dropped
    #: (matches the top of :data:`~repro.obs.registry.DEFAULT_HOP_BUCKETS`).
    hop_deadline: int = 32


@dataclass
class ScaleReport:
    """Outcome of :meth:`ScaleSimulation.run` (numbers only, no wall-clock)."""

    n_nodes: int
    n_objects: int
    n_queries: int
    mean_hops: float
    hops_p50: float
    hops_p99: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    storage_load: dict[str, Any] = field(default_factory=dict)
    forwarding_load: dict[str, Any] = field(default_factory=dict)
    health_samples: int = 0
    local_solves: int = 0
    local_hits_mean: float = 0.0
    dropped: int = 0
    sampled_spans: int = 0
    counters: dict[str, float] = field(default_factory=dict)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class ScaleSimulation:
    """Build once, route millions: the scale-path end-to-end harness."""

    def __init__(
        self,
        cfg: ScaleConfig,
        latency: LatencyModel | None = None,
        registry: MetricsRegistry | None = None,
        recorder: SpanRecorder | None = None,
        health_jsonl: Any = None,
    ) -> None:
        self.cfg = cfg
        self.latency = latency
        # Real metrics by default: the vectorised instruments (observe_many,
        # counter adds per chunk) keep the overhead within the ≤10% budget
        # asserted in bench, so NullRegistry is an opt-out, not the default.
        self.registry = registry if registry is not None else MetricsRegistry()
        rng = as_rng(cfg.seed)
        self._rng_data = derive_rng(rng, "scale-data")
        self._rng_query = derive_rng(rng, "scale-query")
        self._rng_ring = derive_rng(rng, "scale-ring")

        # -- data + landmark projection (the paper's Table 1 family) ----------
        self._data_cfg = ClusteredGaussianConfig(n_objects=cfg.n_objects, dim=cfg.dim)
        objects, self._centers = generate_clustered(self._data_cfg, self._rng_data)
        metric = EuclideanMetric()
        sample_n = min(2_048, cfg.n_objects)
        self.landmarks: LandmarkSet = kmeans_selection(
            objects[:sample_n], metric, cfg.n_landmarks, seed=derive_rng(rng, "scale-lm")
        )
        proj = self.landmarks.project(objects)
        self.bounds = IndexSpaceBounds.from_sample(proj, pad=0.05)
        keys = lp_hash_batch(self.bounds.clip(proj), self.bounds, ID_BITS)

        # -- membership + distribution ----------------------------------------
        n_hosts = latency.n_hosts if latency is not None else cfg.n_nodes
        self.ring = CompactChordRing.build(
            cfg.n_nodes,
            m=ID_BITS,
            seed=self._rng_ring,
            n_hosts=n_hosts,
            successor_list_len=SUCCESSOR_LIST_LEN,
        )
        self.phi = rotation_offset(INDEX_NAME, ID_BITS)
        owners = self.ring.owners_of_keys(rotate_keys(keys, self.phi, ID_BITS))
        self.store = ShardStore.build(
            owners, keys, proj, np.arange(cfg.n_objects, dtype=np.int64), cfg.n_nodes
        )

        # -- telemetry ---------------------------------------------------------
        self.sim = Simulator()
        self._hist_latency = self.registry.histogram(
            QUERY_LATENCY_HIST,
            "End-to-end routing latency per scale query",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._hist_hops = self.registry.histogram(
            QUERY_HOPS_HIST,
            "Forwarding hops per scale query",
            buckets=DEFAULT_HOP_BUCKETS,
        )
        self._c_routed = self.registry.counter(
            QUERIES_ROUTED_TOTAL, "Queries routed through the compact ring")
        self._c_solved = self.registry.counter(
            QUERIES_SOLVED_TOTAL, "Queries that reached their owner within the hop deadline")
        self._c_dropped = self.registry.counter(
            QUERIES_DROPPED_TOTAL, "Queries exceeding the hop deadline")
        self._c_traced = self.registry.counter(
            TRACE_SAMPLES_TOTAL, "Queries kept by the deterministic trace sampler")
        # Sampling is a pure hash of the qid — it draws no randomness, so
        # attaching a recorder cannot perturb the seeded streams above.
        self.tracer = TraceSampler(every=cfg.trace_sample_every)
        self.recorder = recorder
        if recorder is not None:
            recorder.bind(self.sim)
        self.flight = FlightRecorder(
            clock=lambda: self.sim.now,
            context={"scenario": "scale", "config": asdict(cfg)},
        )
        self.forward_visits = np.zeros(cfg.n_nodes, dtype=np.int64)
        #: per-chunk summary rows, the substrate of :meth:`slo_series`
        self.chunk_stats: list[dict[str, float]] = []
        self._local_hits = np.zeros(0, dtype=np.int64)
        self._storm_dumped = False
        #: the stored-load hotspot report, made by the first run(): the store
        #: never changes after the build, so every report gets a copy of it
        self._storage_load: dict[str, Any] | None = None
        self.sampler = HealthSampler(
            self.sim,
            interval=1.0,
            registry=self.registry,
            load_fn=lambda: self.forward_visits,
            probes={
                "live_nodes": lambda: float(len(self.ring)),
                "routed_total": lambda: self._c_routed.total(),
                "dropped_total": lambda: self._c_dropped.total(),
            },
            jsonl=health_jsonl,
        )

    # -- invariants ---------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural checks over ring + store; AssertionError on violation.

        A violation dumps a flight bundle (reason ``invariant-violation``)
        before the assertion propagates, so the buffered chunk history and
        the replayable config land on disk next to the failure.
        """
        with self.flight.dump_on_error("invariant-violation"):
            self._check_invariants()

    def _check_invariants(self) -> None:
        self.ring.check_invariants()
        offsets = self.store.offsets
        assert offsets[0] == 0 and offsets[-1] == len(self.store)
        assert np.all(np.diff(offsets) >= 0), "store offsets must be monotone"
        assert int(self.store.loads().sum()) == self.cfg.n_objects
        # every stored entry must live on the node owning its rotated key
        owner_of = self.ring.owners_of_keys(rotate_keys(self.store.keys, self.phi, ID_BITS))
        slot_of_row = np.repeat(
            np.arange(self.store.n_slots, dtype=np.int64), self.store.loads()
        )
        assert np.array_equal(owner_of, slot_of_row), "entry stored off its owner"
        # within each shard slice, keys are sorted (the Shard invariant)
        for slot in np.flatnonzero(self.store.loads())[:64]:
            ks, _, _ = self.store.slice(int(slot))
            assert np.all(np.diff(ks.astype(np.uint64)) >= 0)

    # -- the run ------------------------------------------------------------------

    def run(self, n_queries: int | None = None) -> ScaleReport:
        """Route ``n_queries`` (default: config) and return the report.

        Per chunk, the calling thread draws the query points and then the
        source slots, routes them with :meth:`_route_chunk` (in parallel
        parts, each a pure function of its rows) and then alone records
        everything: histograms, counters, the load vector, sampled spans,
        chunk stats, the flight recorder, the local-solve sample and the
        clock.  The report is therefore the same for any part count.
        ``n_queries`` must be a non-negative int (``ValueError`` otherwise).
        """
        cfg = self.cfg
        nq = cfg.n_queries if n_queries is None else n_queries
        if isinstance(nq, bool) or not isinstance(nq, (int, np.integer)) or nq < 0:
            raise ValueError(f"n_queries must be a non-negative int, got {nq!r}")
        nq = int(nq)
        self.sampler.start(duration=float(max(1, -(-nq // cfg.chunk))) + 1.0)
        hops_sum = 0.0
        all_hops: list[np.ndarray] = []
        all_lat: list[np.ndarray] = []
        local_hits = np.zeros(0, dtype=np.int64)
        routed = 0
        chunk_no = 0
        dropped_total = 0
        sampled_total = 0
        while routed < nq:
            size = min(cfg.chunk, nq - routed)
            qpts, _ = generate_clustered(replace(self._data_cfg, n_objects=size),
                                         self._rng_query, centers=self._centers)
            src = self._rng_query.integers(0, cfg.n_nodes, size=size)
            qproj, owner, hops, lat, visits = self._route_chunk(qpts, src)
            self.forward_visits += visits
            hops_sum += float(hops.sum())
            all_hops.append(hops)
            all_lat.append(lat)
            self._hist_hops.observe_many(hops.astype(np.float64))
            self._hist_latency.observe_many(lat)
            dropped_mask = hops > cfg.hop_deadline if cfg.hop_deadline > 0 else hops < 0
            n_dropped = int(dropped_mask.sum())
            self._c_routed.add(float(size))
            self._c_dropped.add(float(n_dropped))
            self._c_solved.add(float(size - n_dropped))
            dropped_total += n_dropped
            sampled_total += self._trace_chunk(
                routed, size, src, owner, hops, lat, dropped_mask)
            stats = {
                "chunk": float(chunk_no),
                "routed": float(size),
                "dropped_frac": n_dropped / size if size else 0.0,
                "hops_p99": float(np.percentile(hops, 99)) if size else 0.0,
                "latency_p99_s": float(np.percentile(lat, 99)) if size else 0.0,
            }
            self.chunk_stats.append(stats)
            self.flight.record("chunk", **{k: v for k, v in stats.items()})
            if (
                stats["dropped_frac"] > STORM_THRESHOLD
                and not self._storm_dumped
            ):
                # one bundle per run: the first storm captures the tail that
                # led into it; later storms would only repeat the picture.
                self._storm_dumped = True
                self.flight.record(
                    "deadline-storm",
                    chunk=chunk_no,
                    dropped_frac=stats["dropped_frac"],
                    hop_deadline=cfg.hop_deadline,
                )
                self.flight.dump(reason="deadline-storm")
            if chunk_no == 0 and cfg.local_solve_sample > 0:
                local_hits = self._local_solve(
                    qproj[: cfg.local_solve_sample], owner[: cfg.local_solve_sample]
                )
                self._local_hits = local_hits
            routed += size
            chunk_no += 1
            # one virtual second per chunk, counted over every run() so far,
            # lets the health sampler tick without core touching the
            # scheduler (that is Transport's job in the object simulation;
            # here the clock is purely a cadence).
            self.sim.run(until=float(len(self.chunk_stats)))
        hops_all = np.concatenate(all_hops) if all_hops else np.zeros(0)
        lat_all = np.concatenate(all_lat) if all_lat else np.zeros(0)
        load_gauges = cfg.n_nodes <= _LOAD_GAUGE_MAX_NODES and self.registry.enabled
        if self._storage_load is None:
            stored = self.store.loads().astype(np.float64)
            self._storage_load = hotspot_report(stored)
            if load_gauges:
                record_load_vector(self.registry, stored, metric=STORED_LOAD_GAUGE)
        forward = self.forward_visits.astype(np.float64)
        if load_gauges:
            record_load_vector(self.registry, forward, metric=FORWARD_LOAD_GAUGE)
        forwarding_load = hotspot_report(forward)
        hops_q = np.percentile(hops_all, [50, 99]) if routed else np.zeros(2)
        lat_q = np.percentile(lat_all, [50, 99]) if routed else np.zeros(2)
        return ScaleReport(
            n_nodes=cfg.n_nodes,
            n_objects=cfg.n_objects,
            n_queries=routed,
            mean_hops=float(hops_all.mean()) if routed else 0.0,
            hops_p50=float(hops_q[0]),
            hops_p99=float(hops_q[1]),
            latency_mean_s=float(lat_all.mean()) if routed else 0.0,
            latency_p50_s=float(lat_q[0]),
            latency_p99_s=float(lat_q[1]),
            storage_load=copy.deepcopy(self._storage_load),
            forwarding_load=forwarding_load,
            health_samples=len(self.sampler.samples),
            local_solves=local_hits.size,
            local_hits_mean=float(np.mean(local_hits)) if local_hits.size else 0.0,
            dropped=dropped_total,
            sampled_spans=sampled_total,
            counters={
                "routed": self._c_routed.total(),
                "solved": self._c_solved.total(),
                "dropped": self._c_dropped.total(),
                "trace_samples": self._c_traced.total(),
            },
        )

    def _route_rows(
        self, qpts: np.ndarray, src: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The row-wise pipeline on one part of a chunk: ``(qproj, owner,
        hops, latency, visits)``.  It reads the landmarks, bounds, ring and
        latency model and writes nothing, so parts may run side by side."""
        qproj = self.bounds.clip(self.landmarks.project(qpts))
        qkeys = lp_hash_batch(qproj, self.bounds, ID_BITS)
        owner, hops, lat, visits = self.ring.route_batch(
            src,
            rotate_keys(qkeys, self.phi, ID_BITS),
            latency=self.latency,
            count_visits=True,
        )
        assert visits is not None
        return qproj, owner, hops, lat, visits

    def _route_chunk(
        self, qpts: np.ndarray, src: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_route_rows` over the chunk in contiguous parts, one per
        usable CPU and none under :data:`_MIN_PART_ROWS` rows, joined as if
        it were one part.

        The first part runs on the calling thread, each other on a thread of
        its own started here and joined before this returns, whatever
        happens; the first exception of a part, in part order, is re-raised.
        The row arrays are concatenated in part order and the visit counts
        summed, which is exactly the one-part result: every lookup depends
        on its own row only, and the counts are integers.
        """
        n_parts = max(1, min(_usable_cpus(), len(src) // _MIN_PART_ROWS))
        if n_parts == 1:
            return self._route_rows(qpts, src)
        cuts = [len(src) * i // n_parts for i in range(n_parts + 1)]
        parts: list[Any] = [None] * n_parts

        def route_part(i: int) -> None:
            rows = slice(cuts[i], cuts[i + 1])
            try:
                parts[i] = self._route_rows(qpts[rows], src[rows])
            except BaseException as exc:  # handed to the calling thread
                parts[i] = exc

        workers = [
            threading.Thread(target=route_part, args=(i,), name=f"scale-part-{i}")
            for i in range(1, n_parts)
        ]
        try:
            for worker in workers:
                worker.start()
            route_part(0)
        finally:
            for worker in workers:
                if worker.is_alive():
                    worker.join()
        for part in parts:
            if isinstance(part, BaseException):
                raise part
        qproj, owner, hops, lat, visits = zip(*parts)
        return (np.concatenate(qproj), np.concatenate(owner), np.concatenate(hops),
                np.concatenate(lat), np.sum(visits, axis=0))

    def _trace_chunk(
        self,
        base: int,
        size: int,
        src: np.ndarray,
        owner: np.ndarray,
        hops: np.ndarray,
        lat: np.ndarray,
        dropped_mask: np.ndarray,
    ) -> int:
        """Emit spans for the deterministically sampled qids of one chunk.

        qids are the global query ordinals ``base..base+size``; the sampler
        mask is a pure hash, so the same qids are kept on every replay and
        whether or not a recorder is attached.
        """
        qids = np.arange(base, base + size, dtype=np.uint64)
        mask = self.tracer.mask(qids)
        n = int(mask.sum())
        if n:
            self._c_traced.add(float(n))
        rec = self.recorder
        if rec is None or n == 0:
            return n
        for i in np.flatnonzero(mask):
            qid = int(qids[i])
            rec.begin_query(qid, src=int(src[i]))
            rec.event(
                qid, "route",
                node=int(owner[i]),
                hops=int(hops[i]),
                latency_s=float(lat[i]),
            )
            rec.finish_query(
                qid, status="dropped" if bool(dropped_mask[i]) else "complete")
        return n

    def slo_series(self) -> dict[str, list[float]]:
        """The ``{series: values}`` map :data:`~repro.obs.slo.DEFAULT_SCALE_SLOS`
        evaluates — per-chunk tails plus run-final balance/recall/cadence."""
        n_chunks = len(self.chunk_stats)
        series: dict[str, list[float]] = {
            "chunk_latency_p99_s": [c["latency_p99_s"] for c in self.chunk_stats],
            "chunk_hops_p99": [c["hops_p99"] for c in self.chunk_stats],
            "chunk_dropped_frac": [c["dropped_frac"] for c in self.chunk_stats],
            "storage_gini": [
                float(gini_coefficient(self.store.loads().astype(np.float64)))],
            "forwarding_gini": [
                float(gini_coefficient(self.forward_visits.astype(np.float64)))],
        }
        if self._local_hits.size:
            series["local_hit_rate"] = [
                np.count_nonzero(self._local_hits) / self._local_hits.size]
        else:
            series["local_hit_rate"] = []
        series["health_cadence_ratio"] = (
            [len(self.sampler.samples) / n_chunks] if n_chunks else []
        )
        return series

    def _local_solve(self, qproj: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Owner-side rectangle searches for a sample of routed queries:
        the number of stored entries each one's owner finds.

        The rectangle is the paper's necessary condition: an object within
        range ``r`` of the query satisfies ``|proj_q - proj_o| <= r`` in
        every landmark coordinate (triangle inequality), so the owner scans
        ``proj_q ± r`` per dimension on its shard slice — all owners in one
        batched :meth:`~repro.core.storage.ShardStore.range_search`.
        """
        span = self.bounds.highs - self.bounds.lows
        radius = QUERY_RANGE_FACTOR * span
        which, _ = self.store.range_search(owner, qproj - radius, qproj + radius)
        return np.bincount(which, minlength=len(qproj))
