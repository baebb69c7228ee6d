"""The five workloads: three drivers, closed loop, inputs from ``--seed`` only.

Each workload exposes the same small async surface so one harness
(:func:`benchmarks.ledger.run.measure`) can drive all of them:

``setup(seed)``   build data, ring/cluster and index up to the first operation
``warmup()``      fixed-count untimed operations (lazy connections, memoised
                  ``next_hop``, lazy shard sort); the paper's exact per-query
                  counts are taken here because this count never varies
``timed(seconds, region)``  closed-loop operations until the deadline
``single_op()``   one operation on its own, for the span trees of the traced pass
``extras(tracer)``          per-layer numbers that need a run of their own
``check()``       the correctness gate over everything that was executed
``close()``       stop every task, socket and temp file the workload opened

Sizes are constants of this file, never read from the environment.  They are
chosen for a 2-core box; see README.md for why each workload exists.
"""

from __future__ import annotations

import asyncio
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np
from repro.core.index_space import IndexSpaceBounds
from repro.core.lifecycle import RetryPolicy
from repro.core.lph import lp_hash_batch
from repro.core.platform import IndexPlatform
from repro.core.scale import ScaleConfig, ScaleSimulation
from repro.datasets.queries import QueryWorkload
from repro.datasets.synthetic import generate_clustered, paper_table1_config
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.net.cluster import ClusterClient, LocalCluster
from repro.net.transport import RpcError
from repro.obs import Observability
from repro.obs.registry import NullRegistry
from repro.sim import Simulator
from repro.sim.king import king_coordinate_model, king_latency_model

from benchmarks.ledger import reference
from benchmarks.ledger.check import (
    LiveAnswer, SimAnswer, Verdict, check_live, check_scale, check_sim,
)
from benchmarks.ledger.trace import Tracer

__all__ = ["WORKLOADS", "Lap", "Region", "make_workload"]

clock = time.perf_counter
cpu = time.process_time

#: draws the event-sim dataset, ring hosts and landmarks (see SimWorkload.setup)
DATASET_SEED = 2007


class Lap(NamedTuple):
    """How long something took on the clock and how much CPU the process used for it."""

    wall: float
    busy: float

    @classmethod
    def since(cls, clock0: float, cpu0: float) -> Lap:
        return cls(clock() - clock0, cpu() - cpu0)


@dataclass
class Region:
    """What one timed region produced, step by step.

    A step is one sim batch, one ``run()`` call or one segment of the live
    clients, timed with the reference kernel before and after it.  ``wall_s``
    and ``busy_s`` are the steps' time on the clock and on the CPU as read (the
    tracer's self times are fractions of ``wall_s``).  ``ref_busy_s``,
    ``query_us`` and ``insert_us`` are at reference speed: a step's CPU time
    and its per-operation wall times, divided by the slowdown of the box
    around the step (see ``reference.py``).  ``counters`` are the driver-side
    counts the per-layer metrics divide by.
    """

    query_us: list[float] = field(default_factory=list)
    insert_us: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    busy_s: float = 0.0
    ref_busy_s: float = 0.0

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def step(self, lap: Lap, slowdown: float, query_us: list[float],
             insert_us: list[float] | None = None) -> None:
        self.wall_s += lap.wall
        self.busy_s += lap.busy
        self.ref_busy_s += lap.busy / slowdown
        self.query_us += [us / slowdown for us in query_us]
        self.insert_us += [us / slowdown for us in insert_us or ()]

    @property
    def queries(self) -> float:
        return self.counters.get("queries", 0.0)

    @property
    def ops_per_s(self) -> float:
        """Operations per CPU second at reference speed.

        Everything runs on one thread that never idles, so CPU time is wall
        time minus the waits on the box's disk (the live nodes' ``fsync`` of
        their overlay state and what it stalls), and the disk of the shared
        box is slow in phases minutes long: over them a wall-clock rate of
        ``live_mixed`` read 76-120 where this one read 101-124.
        """
        return (self.queries + self.counters.get("inserts", 0.0)) / self.ref_busy_s


def _rng(seed: int, salt: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt, stream]))


# -- event simulator ---------------------------------------------------------------


class SimWorkload:
    """``IndexPlatform.run_workload`` on the Table-1 dataset (see README)."""

    driver = "sim"

    def __init__(self, name: str, salt: int, n_nodes: int, n_objects: int,
                 range_factor: float, batch: int, warm_batches: int, quick: bool) -> None:
        self.name = name
        self.salt = salt
        self.n_nodes = n_nodes
        self.n_objects = n_objects // 10 if quick else n_objects
        self.range_factor = range_factor
        self.batch = batch
        self.warm_batches = warm_batches
        self.answers: list[SimAnswer] = []
        self.paper: dict[str, float] = {}
        self.platform: Any = None
        self.round = 0

    async def setup(self, seed: int) -> None:
        # The dataset, ring and index are the fixed part of the workload: ten
        # cluster centres and ten greedy landmarks decide the shard sizes and
        # the fan-out, so drawing them per seed moved query cost by 2-3x
        # between seeds.  The seed draws the operations (points, sources,
        # arrival times), which average out within a run.
        rng = _rng(DATASET_SEED, self.salt, 0)
        cfg = paper_table1_config(self.n_objects)
        self.data, _ = generate_clustered(cfg, rng)
        self.latency = king_latency_model(n_hosts=self.n_nodes, seed=rng)
        self.ring = ChordRing.build(
            self.n_nodes, m=64, seed=rng, latency=self.latency, pns=True,
            successor_list_len=16)
        self.platform = IndexPlatform(self.ring, latency=self.latency)
        self.metric = EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim)
        self.platform.create_index(
            "ledger", self.data, self.metric, k=10, selection="greedy",
            sample_size=2000, seed=rng)
        self.radius = self.range_factor * cfg.max_distance
        self.box = (cfg.low, cfg.high)
        self.policy = RetryPolicy(deadline=500)
        self.seed = seed
        self.round += 1
        self.qrng = _rng(seed, self.salt, 3)
        self.answers = []

    def _workload(self, n: int) -> Any:
        # data points plus N(0, 0.1^2) noise: every query has >= 1 true hit,
        # so a false negative cannot hide behind an empty oracle answer
        picks = self.qrng.integers(0, self.n_objects, size=n)
        points = self.data[picks] + self.qrng.normal(0.0, 0.1, size=(n, self.data.shape[1]))
        np.clip(points, *self.box, out=points)
        return QueryWorkload.build(
            points, self.radius, n_nodes=self.n_nodes, mean_interarrival=0.01, seed=self.qrng)

    def _run(self, workload: Any, platform: Any = None) -> tuple[Lap, Any]:
        platform = platform or self.platform
        t0, c0 = clock(), cpu()
        stats = platform.run_workload(
            "ledger", workload, pipelined=True, policy=self.policy,
            top_k=10**6, range_filter=True)
        lap = Lap.since(t0, c0)
        for i in range(len(workload)):
            qs = stats.queries[i]
            self.answers.append(SimAnswer(workload.points[i], qs.state, qs.entries))
        return lap, stats

    async def warmup(self) -> None:
        queries = [
            qs for _ in range(self.warm_batches)
            for qs in self._run(self._workload(self.batch))[1].queries.values()
        ]
        self.paper = {
            "msgs_per_query": float(np.mean(
                [q.query_messages + q.result_messages for q in queries])),
            "bytes_per_query": float(np.mean([q.total_bytes for q in queries])),
            "sim_latency_s_mean": float(np.mean([q.response_time for q in queries])),
            "hops_mean": float(np.mean([q.max_hops for q in queries])),
            "index_nodes_per_query": float(np.mean([len(q.index_nodes) for q in queries])),
        }

    async def timed(self, seconds: float, region: Region, tracer: Tracer | None = None) -> None:
        # the timed regions of one set-up replay one query stream, so the traced
        # and the untraced region of a run are comparable batch for batch; each
        # set-up of a run gets a stream of its own
        self.qrng = _rng(self.seed, self.salt, 100 + self.round)
        transport = self.platform.transport
        dropped0 = transport.stats.dropped
        start = clock()
        batch_no = 0
        slow = reference.slowdown()
        while clock() - start < seconds:
            lap, stats = self._run(self._workload(self.batch))
            slow, before = reference.slowdown(), slow
            region.step(lap, (before + slow) / 2, [lap.wall / self.batch * 1e6])
            region.add("queries", self.batch)
            region.add("events", self.platform.sim.events_processed)
            for qs in stats.queries.values():
                region.add("messages", qs.query_messages + qs.result_messages)
                region.add("result_rows", len(qs.entries))
                region.add("retransmissions", qs.retransmissions)
            if tracer is not None:
                tracer.mark(batch_no, self.batch, int(lap.wall * 1e9))
            batch_no += 1
        region.add("dropped", transport.stats.dropped - dropped0)

    async def single_op(self) -> None:
        self._run(self._workload(1))

    async def extras(self, tracer: Tracer) -> dict[str, float]:
        """``engine.ns_per_event`` by direct drive, and the obs on/off ratio."""
        out: dict[str, float] = {}
        n_events = 100_000
        sim = Simulator()
        t0 = clock()
        for i in range(n_events):
            sim.schedule_at(float(i), _noop)
        sim.run()
        out["engine.ns_per_event"] = (clock() - t0) / n_events * 1e9
        if self.name == "sim_wide":
            on, off = [], []
            with Observability(tracing=True) as obs:
                traced = IndexPlatform(self.ring, latency=self.latency, obs=obs)
                traced.indexes["ledger"] = self.platform.indexes["ledger"]
                for _ in range(3):
                    # the simulator is deterministic: both runs do the same work
                    workload = self._workload(self.batch)
                    on.append(self._run(workload, traced)[0].wall)
                    off.append(self._run(workload)[0].wall)
            out["obs.sim_on_ratio"] = float(np.median(on) / np.median(off))
        return out

    async def check(self) -> Verdict:
        return check_sim(self.data, self.metric, self.radius, self.answers,
                         _rng(0, self.salt, 2))

    async def close(self) -> None:
        if self.platform is not None:
            self.platform.close()
        self.platform = self.ring = self.data = None
        self.answers = []


def _noop() -> None:
    return None


# -- scale simulator ---------------------------------------------------------------


class ScaleWorkload:
    """``ScaleSimulation.run`` — vectorised point lookups on a 100k ring."""

    driver = "scale"
    name = "scale_lookup"
    salt = 3

    def __init__(self, quick: bool) -> None:
        self.n = 10_000 if quick else 100_000
        self.per_call = 5_000 if quick else 50_000
        self.paper: dict[str, float] = {}
        self.lookups = 0
        self.dropped = 0

    def _build(self, seed: int, registry: Any = None) -> Any:
        rng = _rng(seed, self.salt, 0)
        latency = king_coordinate_model(n_hosts=self.n, seed=rng)
        cfg = ScaleConfig(n_nodes=self.n, n_objects=self.n,
                          seed=int(rng.integers(0, 2**31)))
        return ScaleSimulation(cfg, latency=latency, registry=registry)

    async def setup(self, seed: int) -> None:
        self.seed = seed
        self.sim = self._build(seed)
        self.lookups = self.dropped = 0

    def _call(self, sim: Any = None) -> tuple[Lap, Any]:
        t0, c0 = clock(), cpu()
        report = (sim or self.sim).run(n_queries=self.per_call)
        lap = Lap.since(t0, c0)
        self.lookups += self.per_call
        self.dropped += report.dropped
        return lap, report

    async def warmup(self) -> None:
        report = self._call()[1]
        self.paper = {
            "msgs_per_query": report.mean_hops,
            "sim_latency_s_mean": report.latency_mean_s,
            "hops_mean": report.mean_hops,
        }

    async def timed(self, seconds: float, region: Region, tracer: Tracer | None = None) -> None:
        start = clock()
        call_no = 0
        slow = reference.slowdown()
        while clock() - start < seconds:
            lap, report = self._call()
            slow, before = reference.slowdown(), slow
            region.step(lap, (before + slow) / 2, [lap.wall / self.per_call * 1e6])
            region.add("queries", self.per_call)
            region.add("hops", report.mean_hops * self.per_call)
            if tracer is not None:
                tracer.mark(call_no, self.per_call, int(lap.wall * 1e9))
            call_no += 1

    async def single_op(self) -> None:
        self._call()

    async def extras(self, tracer: Tracer) -> dict[str, float]:
        """Default registry ÷ ``NullRegistry`` on alternating ``run()`` calls."""
        null_sim = self._build(self.seed, registry=NullRegistry())
        self._call(null_sim)
        on, off = [], []
        for _ in range(3):
            on.append(self._call()[0].wall)
            off.append(self._call(null_sim)[0].wall)
        return {"obs.scale_on_ratio": float(np.median(on) / np.median(off))}

    async def check(self) -> Verdict:
        return check_scale(self.sim, self.lookups, self.dropped, _rng(0, self.salt, 2))

    async def close(self) -> None:
        self.sim = None


# -- live cluster ------------------------------------------------------------------


class LiveWorkload:
    """``LocalCluster`` + ``ClusterClient`` over loopback TCP, one process.

    ``mixed=False``: two closed-loop clients, queries only.
    ``mixed=True``: one client, rounds of one 256-entry insert then 4 queries.
    """

    driver = "live"
    N_NODES = 16
    K = 4
    M = 32
    FMT = "json"
    #: NodeConfig's default.  At 0.1 s the 16 nodes fsync their overlay state
    #: 160 times a second on the event loop's thread, and the disk's fsync
    #: tail then decides the run (same-seed spread of +-11% on the build box)
    STABILIZE_INTERVAL = 0.25
    HALF_WIDTH = 150.0
    INSERT_BATCH = 256
    QUERIES_PER_ROUND = 4
    WARM_QUERIES = 32
    #: operations per client between two readings of the reference kernel
    #: (0.1-0.2 s; three rounds of ``live_mixed``)
    SEGMENT_OPS = 15

    def __init__(self, name: str, salt: int, mixed: bool, quick: bool, scratch: Path) -> None:
        self.name = name
        self.salt = salt
        self.mixed = mixed
        self.n_clients = 1 if mixed else 2
        self.preload = 2_000 if quick else 20_000
        self.scratch = scratch
        self.answers: list[LiveAnswer] = []
        self.paper: dict[str, float] = {}
        self.cluster: Any = None
        self.clients: list[Any] = []
        self.round = 0

    async def setup(self, seed: int) -> None:
        rng = _rng(seed, self.salt, 0)
        self.bounds = IndexSpaceBounds.uniform(self.K, 0.0, 1000.0)
        self.chunks: list[np.ndarray] = []
        self.n_points = 0
        self.answers = []
        self.seed = seed
        self.round += 1
        self.rngs = [_rng(seed, self.salt, 20 + c) for c in range(self.n_clients)]
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.cluster = LocalCluster(
            self.N_NODES, data_root=self.scratch, m=self.M, k=self.K, fmt=self.FMT,
            stabilize_interval=self.STABILIZE_INTERVAL, seed=int(rng.integers(0, 2**31)))
        self.addrs = await self.cluster.start()
        self.clients = [ClusterClient(fmt=self.FMT) for _ in range(self.n_clients)]
        for client in self.clients:
            await client.start()
        if not await self.clients[0].wait_converged(self.addrs):
            raise RuntimeError("live cluster did not converge")
        for start in range(0, self.preload, 2_000):
            answer, _ = await self._insert(
                self.clients[0], self.addrs[(start // 2_000) % self.N_NODES],
                rng, min(2_000, self.preload - start))
            if answer.accepted != answer.expected:
                raise RuntimeError("preload insert was not fully accepted")

    async def _insert(self, client: Any, addr: str,
                      rng: np.random.Generator, n: int) -> tuple[LiveAnswer, float]:
        """One ``ClusterClient.insert`` of ``n`` fresh entries; returns its wall time."""
        points = rng.uniform(0.0, 1000.0, size=(n, self.K))
        keys = lp_hash_batch(points, self.bounds, self.M)
        ids = np.arange(self.n_points, self.n_points + n, dtype=np.int64)
        answer = LiveAnswer(None, None, None, expected=n)
        t0 = clock()
        try:
            answer.accepted = await client.insert(addr, keys, points, ids)
        except RpcError:
            pass
        wall = clock() - t0
        # ids stay aligned with rows even if the batch was refused
        self.chunks.append(points)
        self.n_points += n
        return answer, wall

    async def _query(self, client: Any, addr: str,
                     rng: np.random.Generator) -> tuple[LiveAnswer, float]:
        """One ``ClusterClient.query``; returns its wall time."""
        centre = rng.uniform(self.HALF_WIDTH, 1000.0 - self.HALF_WIDTH, size=self.K)
        answer = LiveAnswer(centre - self.HALF_WIDTH, centre + self.HALF_WIDTH, None,
                            visible=self.n_points)
        t0 = clock()
        try:
            answer.ids = await client.query(addr, answer.lows, answer.highs)
        except RpcError:
            pass
        return answer, clock() - t0

    async def _client_loop(self, c: int, count: int, region: Region | None) -> None:
        """One closed-loop client: the next request leaves when the last returned."""
        client, rng = self.clients[c], self.rngs[c]
        for i in range(count):
            addr = self.addrs[(c + self.n_clients * i) % self.N_NODES]
            is_insert = self.mixed and i % (1 + self.QUERIES_PER_ROUND) == 0
            if is_insert:
                answer, wall = await self._insert(client, addr, rng, self.INSERT_BATCH)
            else:
                answer, wall = await self._query(client, addr, rng)
            self.answers.append(answer)
            if region is not None:
                (region.insert_us if is_insert else region.query_us).append(wall * 1e6)
                region.add("inserts" if is_insert else "queries", 1)
                if answer.ids is not None:
                    region.add("result_rows", len(answer.ids))

    async def _run_clients(self, count: int, region: Region | None = None) -> None:
        """Every client issues ``count`` operations; returns when the last has."""
        await asyncio.gather(*[
            self._client_loop(c, count, region) for c in range(self.n_clients)])

    async def warmup(self) -> None:
        rounds = 1 + self.QUERIES_PER_ROUND if self.mixed else 1
        await self._run_clients(self.WARM_QUERIES * rounds)

    def _wal_bytes(self) -> int:
        return sum(node.shard.wal.path.stat().st_size for node in self.cluster.nodes)

    async def timed(self, seconds: float, region: Region, tracer: Tracer | None = None) -> None:
        self.rngs = [_rng(self.seed, self.salt, 100 * self.round + c)
                     for c in range(self.n_clients)]
        marker = None
        if tracer is not None:
            marker = asyncio.get_running_loop().create_task(self._mark_loop(tracer, region))
        try:
            # a segment is the live drivers' step: the reference kernel cannot
            # run beside open requests without landing in their latency
            deadline = clock() + seconds
            slow = reference.slowdown()
            while clock() < deadline:
                segment = Region()
                t0, c0 = clock(), cpu()
                await self._run_clients(self.SEGMENT_OPS, segment)
                lap = Lap.since(t0, c0)
                slow, before = reference.slowdown(), slow
                region.step(lap, (before + slow) / 2, segment.query_us, segment.insert_us)
                for key, value in segment.counters.items():
                    region.add(key, value)
        finally:
            if marker is not None:
                marker.cancel()
                await asyncio.gather(marker, return_exceptions=True)
        region.add("wal_bytes_total", self._wal_bytes())
        region.add("entries_total", self.n_points)

    async def _mark_loop(self, tracer: Tracer, region: Region) -> None:
        """Rollup marks once a second (live batches have no natural boundary)."""
        batch, seen, t0 = 0, 0, clock()
        while True:
            await asyncio.sleep(1.0)
            ops = len(region.query_us) + len(region.insert_us)
            tracer.mark(batch, ops - seen, int((clock() - t0) * 1e9))
            batch, seen, t0 = batch + 1, ops, clock()

    async def single_op(self) -> None:
        self.answers.append((await self._query(
            self.clients[0], self.addrs[len(self.answers) % self.N_NODES], self.rngs[0]))[0])

    async def extras(self, tracer: Tracer) -> dict[str, float]:
        """Maintenance RPC rate, counted by the wrappers over one idle second."""
        with tracer:
            tracer.take()
            t0 = clock()
            await asyncio.sleep(1.0)
            idle = tracer.take()
        rpcs = sum(s.calls for n, s in idle.items() if n.startswith("net_transport.rpc."))
        return {"net_transport.maint_rpcs_per_s": rpcs / (clock() - t0)}

    async def check(self) -> Verdict:
        return check_live(np.concatenate(self.chunks), self.answers)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.cluster is not None:
            await self.cluster.close()
            self.cluster = None
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = ("sim_dense", "sim_wide", "scale_lookup", "live_query", "live_mixed")


def make_workload(name: str, quick: bool, scratch: Path) -> Any:
    if name == "sim_dense":
        return SimWorkload(name, 1, n_nodes=64, n_objects=100_000, range_factor=0.005,
                           batch=100, warm_batches=2, quick=quick)
    if name == "sim_wide":
        return SimWorkload(name, 2, n_nodes=256, n_objects=20_000, range_factor=0.05,
                           batch=8, warm_batches=4, quick=quick)
    if name == "scale_lookup":
        return ScaleWorkload(quick)
    if name == "live_query":
        return LiveWorkload(name, 4, mixed=False, quick=quick, scratch=scratch)
    if name == "live_mixed":
        return LiveWorkload(name, 5, mixed=True, quick=quick, scratch=scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
