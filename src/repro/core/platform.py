"""The multi-index platform: index construction, distribution and querying.

This is the public face of the architecture.  An :class:`IndexPlatform`
wraps a Chord ring and hosts any number of :class:`LandmarkIndex` instances
— the paper's headline feature is that one overlay supports "arbitrary
number of indexes on different data types" with *no per-index routing
structures*: queries ride the trees already embedded in the DHT links.

Index construction follows §3.1: a well-known node samples the network's
data, selects landmarks (greedy / k-means / k-medoids), fixes the index-space
boundary (from the metric or from the sample), projects every object to its
landmark-distance vector, hashes it with the locality-preserving hash and
stores the entry on the Chord successor of the (optionally rotated) key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.index_space import IndexSpace
from repro.core.landmarks import select_landmarks
from repro.core.lifecycle import LifecycleEngine, QueryFuture, RetryPolicy
from repro.core.lph import lp_hash_batch
from repro.core.query import QidAllocator, RangeQuery
from repro.core.routing import QueryProtocol
from repro.core.storage import Shard, group_by_owner
from repro.dht.hashing import rotation_offset
from repro.dht.idspace import rotate_keys
from repro.dht.ring import ChordRing
from repro.metric.base import Metric
from repro.sim import Simulator
from repro.sim.stats import StatsCollector
from repro.sim.transport import FaultConfig, Transport
from repro.util.arrays import issparse
from repro.util.rng import as_rng

__all__ = ["QueryPayload", "LandmarkIndex", "IndexPlatform", "take"]


def take(dataset: Any, idx: Any) -> Any:
    """Index a dataset that may be an ndarray, CSR matrix or plain sequence."""
    if issparse(dataset) or isinstance(dataset, np.ndarray):
        return dataset[idx]
    if np.ndim(idx) == 0:
        return dataset[int(idx)]
    return [dataset[int(i)] for i in np.atleast_1d(idx)]


@dataclass
class QueryPayload:
    """What a query carries besides its rectangle: the query object, which
    index nodes refine candidates against."""

    obj: Any


class LandmarkIndex:
    """One distributed index: landmark space + entry placement + refinement.

    Attributes
    ----------
    name:
        Index name; also the seed of its rotation offset.
    space:
        The :class:`repro.core.index_space.IndexSpace` (landmarks + bounds).
    rotation:
        The static load-balancing offset ``φ`` (0 when rotation is off).
    shards:
        ``ChordNode -> Shard`` mapping of stored entries.
    """

    def __init__(
        self,
        name: str,
        space: IndexSpace,
        ring: ChordRing,
        dataset: Any,
        rotation: int = 0,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.name = name
        self.space = space
        self.ring = ring
        self.dataset = dataset
        self.rotation = int(rotation)
        #: scoped query-id source; the platform replaces it with its shared
        #: allocator so ids are unique across all of a platform's indexes
        self.qids = QidAllocator()
        #: entries are stored on the owner plus the next ``replication - 1``
        #: successors.  Replicas carry keys outside their holder's ownership
        #: interval, so the claimed-key-range filter of query resolution
        #: ignores them while the primary is alive — and serves them
        #: automatically once the ring repairs around a failed owner.
        self.replication = int(replication)
        self.m = ring.m
        self.k = space.k
        self.bounds = space.bounds
        self.metric = space.landmark_set.metric
        self.shards: dict[Any, Shard] = {}
        self._keys: np.ndarray | None = None
        self._points: np.ndarray | None = None
        self._object_ids: np.ndarray | None = None
        self._owner_objs: np.ndarray | None = None

    # -- construction -----------------------------------------------------------

    def build(self) -> None:
        """Project the dataset, hash it, and distribute entries to owners."""
        points = self.space.project(self.dataset)
        self._points = points
        self._keys = lp_hash_batch(points, self.bounds, self.m)
        n = points.shape[0]
        self._object_ids = np.arange(n, dtype=np.int64)
        self.distribute()

    def rotated_keys(self) -> np.ndarray:
        """Ring keys of all entries: LPH keys shifted by the rotation offset."""
        return rotate_keys(self._keys, self.rotation, self.m)

    def distribute(self) -> int:
        """(Re)assign all entries to their current owners.

        Returns the number of entries that changed node, which is the
        migration volume of a load-balancing step.
        """
        if self._keys is None:
            raise RuntimeError("call build() first")
        owners = self.ring.owners_of_keys(self.rotated_keys())
        nodes = self.ring.nodes()
        node_arr = np.empty(len(nodes), dtype=object)
        node_arr[:] = nodes
        new_owner_objs = node_arr[owners]
        if self._owner_objs is None:
            moved = 0
        else:
            moved = int(np.count_nonzero(new_owner_objs != self._owner_objs))
        self._owner_objs = new_owner_objs
        order, offsets = group_by_owner(owners, len(nodes))
        self.shards = {node: Shard(self.k) for node in nodes}
        n_nodes = len(nodes)
        copies = min(self.replication, n_nodes)
        for i, node in enumerate(nodes):
            sel = order[offsets[i] : offsets[i + 1]]
            if not len(sel):
                continue
            for c in range(copies):
                holder = nodes[(i + c) % n_nodes]
                self.shards[holder].add(
                    self._keys[sel], self._points[sel], self._object_ids[sel]
                )
        return moved

    # -- dynamic entries (used by repro.core.updates) ------------------------------

    def append_entries(self, object_ids: Any, points: Any, keys: Any) -> None:
        """Add a batch of entries to the global arrays and redistribute once.

        ``object_ids`` must index into ``dataset`` (the objects themselves
        must already exist there); ``points`` holds one index point a row.
        """
        self._keys = np.concatenate([self._keys, np.asarray(keys, dtype=np.uint64)])
        self._points = np.vstack([self._points, np.asarray(points, dtype=np.float64)])
        self._object_ids = np.concatenate(
            [self._object_ids, np.asarray(object_ids, dtype=np.int64)]
        )
        self._owner_objs = None  # placement cache invalidated
        self.distribute()

    def remove_entry(self, object_id: int) -> int | None:
        """Remove the entry of ``object_id``; returns its LPH key or None."""
        pos = np.flatnonzero(self._object_ids == object_id)
        if pos.size == 0:
            return None
        p = int(pos[0])
        key = int(self._keys[p])
        keep = np.ones(len(self._keys), dtype=bool)
        keep[p] = False
        self._keys = self._keys[keep]
        self._points = self._points[keep]
        self._object_ids = self._object_ids[keep]
        self._owner_objs = None
        self.distribute()
        return key

    # -- failure handling -----------------------------------------------------------

    def surviving_object_ids(self) -> np.ndarray:
        """Distinct object ids still stored on some live node's shard."""
        ids = [s.object_ids for s in self.shards.values() if len(s)]
        if not ids:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(ids))

    def rebuild_from_shards(self) -> int:
        """Re-replication after failures: rebuild the entry set from the
        union of surviving shards and redistribute (restoring the configured
        replication factor).  Returns the number of entries lost for good.
        """
        before = len(self._keys)
        keys, points, oids = [], [], []
        seen: set[int] = set()
        for shard in self.shards.values():
            for j in range(len(shard)):
                oid = int(shard.object_ids[j])
                if oid in seen:
                    continue
                seen.add(oid)
                keys.append(shard.keys[j])
                points.append(shard.points[j])
                oids.append(oid)
        self._keys = np.asarray(keys, dtype=np.uint64)
        self._points = (
            np.asarray(points, dtype=np.float64)
            if points
            else np.empty((0, self.k))
        )
        self._object_ids = np.asarray(oids, dtype=np.int64)
        self._owner_objs = None
        self.distribute()
        return before - len(self._keys)

    # -- querying ------------------------------------------------------------------

    def make_query(
        self,
        obj: Any,
        radius: float,
        qid: int | None = None,
    ) -> RangeQuery:
        """Convert a near-neighbour query ``(obj, radius)`` to its range query."""
        ipoint = self.space.project_one(obj)
        return RangeQuery.from_point(
            ipoint,
            radius,
            self.bounds,
            self.m,
            index_name=self.name,
            payload=QueryPayload(obj=obj),
            qid=qid,
            alloc=self.qids,
        )

    def make_queries(
        self,
        objs: Any,
        radii: Any,
        qids: Any = None,
    ) -> list[RangeQuery]:
        """Batch :meth:`make_query`: one projection pass for all objects.

        The whole batch is embedded as a single ``(n, k)`` distance matrix
        (the metric's ``many_to_many`` kernel); per-query rectangle and
        prefix construction is unchanged.  ``project_one`` delegates to the
        same batch kernel, so the resulting queries are bit-identical to n
        separate :meth:`make_query` calls.  ``qids=None`` draws fresh ids
        from the platform allocator, exactly as the scalar path would.
        """
        n = objs.shape[0] if hasattr(objs, "shape") else len(objs)
        ipoints = self.space.project(objs)
        if qids is None:
            qids = [None] * n
        return [
            RangeQuery.from_point(
                ipoints[i],
                float(radii[i]),
                self.bounds,
                self.m,
                index_name=self.name,
                payload=QueryPayload(obj=take(objs, i)),
                qid=qids[i],
                alloc=self.qids,
            )
            for i in range(n)
        ]

    def refine_distances(self, q: RangeQuery, object_ids: np.ndarray,
                         radius: float | None = None) -> np.ndarray:
        """True distances from the query object to range-search candidates
        at an index node.

        On a dense dataset with a ``radius`` it returns ``+inf`` for rows the
        metric proves farther than ``radius``
        (:meth:`Metric.one_to_rows_within`), every other distance exactly as
        ``one_to_many`` computes it.
        """
        if isinstance(self.dataset, np.ndarray) and self.dataset.ndim == 2:
            return self.metric.one_to_rows_within(
                q.payload.obj, self.dataset, object_ids,
                np.inf if radius is None else radius)
        return self.metric.one_to_many(q.payload.obj, take(self.dataset, object_ids))

    # -- introspection ------------------------------------------------------------------

    def load_distribution(self) -> np.ndarray:
        """Index entries per node, in ring order (Figures 4 and 6).

        Counts replicas too — they cost storage.  Nodes that joined after
        the last distribution hold nothing yet.
        """
        empty = Shard(self.k)
        return np.asarray(
            [self.shards.get(n, empty).load for n in self.ring.nodes()], dtype=np.int64
        )

    def total_entries(self) -> int:
        return 0 if self._keys is None else len(self._keys)

    def filtering_score(self, sample: Any, seed: int | np.random.Generator | None = 0, pairs: int = 500) -> float:
        """How well the landmark projection preserves distances on a sample.

        Mean ratio of the contractive lower bound (L∞ in index space) to the
        true distance over random pairs, in [0, 1]; higher means tighter
        filtering.  Used by landmark regeneration (§6 future work) to decide
        whether a candidate landmark set beats the current one.
        """
        rng = as_rng(seed)
        n = sample.shape[0] if hasattr(sample, "shape") else len(sample)
        a = rng.integers(0, n, size=pairs)
        b = rng.integers(0, n, size=pairs)
        keep = a != b
        a, b = a[keep], b[keep]
        pa = self.space.project(take(sample, a))
        pb = self.space.project(take(sample, b))
        lower = np.abs(pa - pb).max(axis=1)
        true = np.asarray(
            [self.metric.distance(take(sample, int(x)), take(sample, int(y))) for x, y in zip(a, b)]
        )
        ok = true > 0
        if not ok.any():
            return 0.0
        return float(np.mean(np.minimum(lower[ok] / true[ok], 1.0)))


class IndexPlatform:
    """A Chord overlay hosting multiple landmark indexes.

    Parameters
    ----------
    ring:
        The overlay; build one with :meth:`ChordRing.build`.
    latency:
        Latency model shared with the ring (may be None for structural runs).
    faults:
        Optional :class:`repro.sim.transport.FaultConfig` — message loss,
        delay jitter and partitions applied to every protocol on the
        platform's shared transport.
    obs:
        Optional :class:`repro.obs.Observability`.  Its metrics registry is
        attached to the transport and threaded into every protocol and
        lifecycle engine the platform creates; its span recorder (when
        tracing is on) is bound to the platform's simulator.  The platform
        is a context manager — ``with IndexPlatform(..., obs=obs) as p:``
        guarantees span sinks are flushed and closed on any exit path.
    """

    def __init__(
        self,
        ring: ChordRing,
        latency: Any = None,
        faults: FaultConfig | None = None,
        obs: Any = None,
    ) -> None:
        self.ring = ring
        self.latency = latency if latency is not None else ring.latency
        self.obs = obs
        self.sim = Simulator()
        self.transport = Transport(
            sim=self.sim, latency=self.latency, faults=faults,
            metrics=obs.registry if obs is not None else None,
        )
        if obs is not None:
            obs.bind(self.sim)
        self.indexes: dict[str, LandmarkIndex] = {}
        #: platform-scoped query ids: unique across all indexes and
        #: concurrent queries, reproducible per platform instance
        self.qids = QidAllocator()

    # -- teardown --------------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the observability bundle.

        Idempotent; runs on ``with``-exit so an exception mid-run cannot
        leave truncated JSONL span files behind.
        """
        if self.obs is not None:
            self.obs.close()

    def __enter__(self) -> IndexPlatform:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- index lifecycle -------------------------------------------------------------

    def create_index(
        self,
        name: str,
        dataset: Any,
        metric: Metric,
        k: int = 10,
        selection: str = "greedy",
        sample_size: int = 2000,
        boundary: str = "metric",
        rotation: bool = False,
        replication: int = 1,
        seed: int | np.random.Generator | None = 0,
    ) -> LandmarkIndex:
        """Build and distribute a new index (§3.1's initiation procedure).

        ``sample_size`` objects are sampled for landmark selection (paper:
        2000 for the synthetic dataset, 3000 for TREC); ``boundary`` picks
        the index-space bounding strategy; ``rotation`` enables the static
        load-balancing offset.
        """
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists")
        rng = as_rng(seed)
        n = dataset.shape[0] if hasattr(dataset, "shape") else len(dataset)
        sample_idx = rng.choice(n, size=min(sample_size, n), replace=False)
        sample = take(dataset, sample_idx)
        lset = select_landmarks(selection, sample, metric, k, rng)
        space = IndexSpace.build(lset, boundary=boundary, sample=sample)
        rot = rotation_offset(name, self.ring.m) if rotation else 0
        index = LandmarkIndex(
            name, space, self.ring, dataset, rotation=rot,
            replication=replication,
        )
        index.qids = self.qids
        index.build()
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        """Remove an index and free its shards."""
        del self.indexes[name]

    def reindex(
        self,
        name: str,
        selection: str | None = None,
        sample_size: int = 2000,
        threshold: float = 0.02,
        seed: int | np.random.Generator | None = 1,
    ) -> dict[str, float]:
        """Landmark regeneration for dynamic datasets (paper §6, future work).

        Selects a candidate landmark set, scores old vs new by
        :meth:`LandmarkIndex.filtering_score` on a fresh sample, and adopts
        the new set when it wins by more than ``threshold``.  Returns a
        report including whether adoption happened and how many entries
        migrated.
        """
        index = self.indexes[name]
        rng = as_rng(seed)
        n = index.dataset.shape[0] if hasattr(index.dataset, "shape") else len(index.dataset)
        sample_idx = rng.choice(n, size=min(sample_size, n), replace=False)
        sample = take(index.dataset, sample_idx)
        scheme = selection or index.space.landmark_set.scheme
        new_set = select_landmarks(scheme, sample, index.metric, index.k, rng)
        boundary = "metric" if index.metric.is_bounded else "sample"
        new_space = IndexSpace.build(new_set, boundary=boundary, sample=sample)
        candidate = LandmarkIndex(
            name, new_space, self.ring, index.dataset,
            rotation=index.rotation, replication=index.replication,
        )
        candidate.qids = self.qids
        old_score = index.filtering_score(sample, rng)
        new_score = candidate.filtering_score(sample, rng)
        report = {"old_score": old_score, "new_score": new_score, "adopted": 0.0, "moved": 0.0}
        if new_score > old_score * (1.0 + threshold):
            candidate.build()
            self.indexes[name] = candidate
            report["adopted"] = 1.0
            report["moved"] = float(candidate.total_entries())
        return report

    # -- querying --------------------------------------------------------------------

    def protocol(
        self,
        name: str,
        stats: StatsCollector | None = None,
        **kwargs: Any,
    ) -> tuple[QueryProtocol, StatsCollector]:
        """A query protocol bound to one index (kwargs forwarded to it).

        All protocols from one platform share its transport, so faults and
        the latency model are configured once, on the platform.
        """
        # note: an empty StatsCollector is falsy (len == 0), so test identity
        stats = stats if stats is not None else StatsCollector()
        kwargs.setdefault("obs", self.obs)
        proto = QueryProtocol(
            index=self.indexes[name], stats=stats, transport=self.transport, **kwargs
        )
        return proto, stats

    def lifecycle(self, policy: RetryPolicy | None = None) -> LifecycleEngine:
        """A fresh :class:`repro.core.lifecycle.LifecycleEngine` on the
        platform's transport (deadlines, retries and completion futures)."""
        obs = self.obs
        return LifecycleEngine(
            self.transport, policy=policy,
            metrics=obs.registry if obs is not None else None,
            recorder=obs.recorder if obs is not None else None,
        )

    def health_sampler(self, interval: float = 1.0, engine: Any = None,
                       **kwargs: Any) -> Any:
        """A :class:`repro.obs.HealthSampler` wired to this platform.

        Samples event-queue depth, live ring membership and the per-node
        load deciles of all hosted indexes; pass the run's lifecycle
        ``engine`` to include in-flight branch counts.  Requires ``obs=``.
        """
        if self.obs is None:
            raise RuntimeError("health_sampler requires the platform's obs=")
        return self.obs.health_sampler(
            self.sim, interval, ring=self.ring, engine=engine,
            load_fn=self.load_distribution, **kwargs,
        )

    def run_workload(
        self,
        name: str,
        workload: Any,
        reset_sim: bool = True,
        pipelined: bool = True,
        policy: RetryPolicy | None = None,
        **protocol_kwargs: Any,
    ) -> StatsCollector:
        """Issue a :class:`repro.datasets.queries.QueryWorkload` and run it.

        Query ``qid`` equals the workload position, so ground-truth joins are
        positional.  Returns the stats collector (per-query costs + merged
        result entries).

        ``pipelined=True`` (default) injects every query at its arrival time
        and runs them concurrently — one pass over the event queue.
        ``pipelined=False`` issues and drains one query at a time (the
        serial baseline; with faults off both produce identical per-query
        stats, the queries being causally independent).  The run's lifecycle
        engine takes ``policy`` — per-query deadlines and retransmission with
        backoff; the default arms no timer, so a lost branch settles as
        failed and every query still ends in a terminal state.

        ``reset_sim=True`` rewinds the simulator first, which drops every
        queued event; it raises ``ValueError`` instead while any timer (a
        started protocol's, a ``sim.every`` sampler's) is queued.  Cancelled
        timers and messages a settled query left in flight do not count.
        """
        if reset_sim:
            live = self.transport.pending_timers()
            if live:
                raise ValueError(
                    f"run_workload(reset_sim=True) would drop {live} queued "
                    "timers (a started protocol or sampler); pass reset_sim=False"
                )
            self.sim.reset()
        engine = self.lifecycle(policy)
        proto, stats = self.protocol(name, engine=engine, **protocol_kwargs)
        index = self.indexes[name]
        nodes = self.ring.nodes()
        # Maintenance traffic has no qid, so per-query stats can't carry it;
        # snapshot the transport's per-class counters around the run instead
        # and hand the delta to the collector (query-vs-maintenance split).
        maint_bytes0 = self.transport.stats.maintenance_bytes
        maint_msgs0 = self.transport.stats.maintenance_messages
        # One batched projection pass maps every query object up front
        # (bit-identical to per-query make_query; see make_queries).
        queries = index.make_queries(
            workload.points, workload.radii, qids=range(len(workload))
        )

        def issue_one(i: int) -> Any:
            q = queries[i]
            node = nodes[int(workload.source_nodes[i]) % len(nodes)]
            # serial draining can advance the clock past the next arrival;
            # the serial baseline then issues the query immediately (its
            # *relative* latencies are unaffected — only absolute timestamps)
            at = max(float(workload.arrival_times[i]), self.sim.now)
            return proto.issue(q, node, at_time=at)

        if pipelined:
            # the clock does not advance while issuing, so the arrival clamp
            # uses one fixed `now`
            now = self.sim.now
            n_ring = len(nodes)
            futures = proto.issue_many(
                queries,
                [nodes[int(s) % n_ring] for s in workload.source_nodes],
                [max(float(t), now) for t in workload.arrival_times],
            )
            engine.run_until_complete(futures)
        else:
            for i in range(len(workload)):
                engine.run_until_complete([issue_one(i)])
        stats.maintenance_bytes += self.transport.stats.maintenance_bytes - maint_bytes0
        stats.maintenance_messages += (
            self.transport.stats.maintenance_messages - maint_msgs0
        )
        return stats

    def query_async(
        self,
        name: str,
        obj: Any,
        radius: float,
        source_node: Any = None,
        top_k: int = 10,
        policy: RetryPolicy | None = None,
        engine: LifecycleEngine | None = None,
        **protocol_kwargs: Any,
    ) -> QueryFuture:
        """Issue one similarity query on the live simulator; returns its future.

        The query runs alongside whatever else is scheduled (other queries,
        maintenance); harvest it with ``future.engine.run_until_complete([f])``
        or a done-callback.  Pass a shared ``engine`` to co-track several
        queries; otherwise one is created with ``policy``.
        """
        if engine is None:
            engine = self.lifecycle(policy)
        elif policy is not None:
            raise ValueError("pass either engine= or policy=, not both")
        proto, _ = self.protocol(name, top_k=top_k, engine=engine, **protocol_kwargs)
        index = self.indexes[name]
        node = source_node or self.ring.nodes()[0]
        q = index.make_query(obj, radius)
        return proto.issue(q, node)

    def query(
        self,
        name: str,
        obj: Any,
        radius: float,
        source_node: Any = None,
        top_k: int = 10,
        policy: RetryPolicy | None = None,
        **protocol_kwargs: Any,
    ) -> list[Any]:
        """One-shot similarity query; returns merged, deduplicated results.

        Results are ``ResultEntry`` objects sorted by distance (closest
        first), at most ``top_k`` of them.  Runs through the lifecycle
        engine: the simulator advances only until this query completes, so
        co-scheduled events stay queued.  Raises
        :class:`repro.core.lifecycle.QueryTimeout` when ``policy`` has a
        deadline and the query missed it.
        """
        fut = self.query_async(
            name, obj, radius, source_node=source_node, top_k=top_k,
            policy=policy, **protocol_kwargs,
        )
        fut.engine.run_until_complete([fut])
        return fut.result(top_k)

    # -- failure injection --------------------------------------------------------------

    def fail_node(self, node: Any) -> None:
        """Crash a node: every entry it stored (primaries and replicas)
        vanishes; the ring repairs around it.  Surviving replicas on the new
        owners keep the dead key ranges answerable — queries need no code
        path for failover because the claimed-key-range filter serves
        whatever the current owner stores.
        """
        for index in self.indexes.values():
            index.shards.pop(node, None)
        self.ring.remove_node(node)

    # -- load ------------------------------------------------------------------------

    def node_load(self, node: Any) -> int:
        """Total index entries a node stores across all indexes (§3.4's measure)."""
        return sum(
            idx.shards[node].load for idx in self.indexes.values() if node in idx.shards
        )

    def load_distribution(self) -> np.ndarray:
        """Per-node total load in ring order."""
        return np.asarray([self.node_load(n) for n in self.ring.nodes()], dtype=np.int64)
