"""Lifecycle engine tests: completion, deadlines, retries, dedup, pipelining.

Covers the per-query state machine (`issued -> routing -> resolving ->
complete | timed_out`), positive completion detection via branch accounting,
retransmission with exponential backoff under injected loss, duplicate
suppression under jitter-induced retransmission races, and the pipelined
batch execution path — across all three query protocols (tree, naive,
SCRAP).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.baselines.scrap import SfcIndex, SfcRangeProtocol
from repro.core.knn import knn_search
from repro.core.lifecycle import (
    COMPLETE,
    ISSUED,
    RESOLVING,
    ROUTING,
    LifecycleEngine,
    QueryTimeout,
    RetryPolicy,
)
from repro.core.naive import NaiveProtocol
from repro.core.platform import IndexPlatform
from repro.core.query import QidAllocator
from repro.core.routing import QueryProtocol
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model
from repro.sim.network import ConstantLatency
from repro.sim.stats import StatsCollector
from repro.sim.transport import FaultConfig, Transport

DIM = 5
FLAVORS = ("tree", "naive", "scrap")
FIGURE_PATH_FIXTURE = Path(__file__).parent / "fixtures" / "quiescence_path_pr17.json"


def _make_data(n_objects, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(3, DIM))
    return np.clip(
        centers[rng.integers(0, 3, size=n_objects)]
        + rng.normal(0, 4, size=(n_objects, DIM)),
        0,
        100,
    )


def _make_platform(faults=None, n_nodes=24, seed=11, n_objects=400):
    data = _make_data(n_objects, seed)
    latency = ConstantLatency(n_nodes, delay=0.02)
    ring = ChordRing.build(n_nodes, m=24, seed=seed, latency=latency, pns=False)
    p = IndexPlatform(ring, faults=faults)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3, sample_size=200, seed=3
    )
    return p, data


def _build_proto(p, flavor, engine=None, stats=None):
    """One of the three query protocols on the platform's shared transport."""
    stats = stats if stats is not None else StatsCollector()
    index = p.indexes["t"]
    if flavor == "tree":
        proto = QueryProtocol(
            index=index, stats=stats, transport=p.transport, engine=engine
        )
    elif flavor == "naive":
        proto = NaiveProtocol(
            index=index, stats=stats, transport=p.transport, engine=engine
        )
    else:
        proto = SfcRangeProtocol(
            index=SfcIndex(index), stats=stats, transport=p.transport, engine=engine
        )
    return proto, stats


def _top_ids(qs, k=10):
    """Top-k object ids of a QueryStats record, deduped best-distance-first."""
    best = {}
    for e in qs.entries:
        d = best.get(e.object_id)
        if d is None or e.distance < d:
            best[e.object_id] = e.distance
    ranked = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))
    return [oid for oid, _ in ranked[:k]]


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"max_retries": -1},
            {"rto": 0.0},
            {"backoff": 0.5},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_defaults_valid(self):
        p = RetryPolicy()
        assert p.deadline is None and p.max_retries == 0


class TestTimerHandle:
    def test_cancel_and_fire(self):
        tr = Transport()
        fired = []
        h1 = tr.timer_cancelable(1.0, fired.append, "a")
        h2 = tr.timer_cancelable(2.0, fired.append, "b")
        h3 = tr.at_cancelable(3.0, fired.append, "c")
        assert h1.active and h2.active and h3.active
        h2.cancel()
        h2.cancel()  # idempotent
        tr.sim.run()
        assert fired == ["a", "c"]
        assert not h1.active and not h2.active and not h3.active


class TestStateMachine:
    def test_future_lifecycle(self):
        p, data = _make_platform()
        engine = p.lifecycle()
        proto, stats = _build_proto(p, "tree", engine=engine)
        q = p.indexes["t"].make_query(data[0], 12.0, qid=7)
        fut = proto.issue(q, p.ring.nodes()[1])
        assert not fut.done()
        assert fut.state in (ISSUED, ROUTING, RESOLVING)
        with pytest.raises(RuntimeError):
            fut.result()
        assert engine.run_until_complete([fut])
        assert fut.done() and fut.state == COMPLETE and fut.outstanding == 0
        st = stats.for_query(7)
        assert st.state == "complete" and st.terminal
        assert st.completed_at is not None and st.completed_at >= st.issued_at
        ids = [e.object_id for e in fut.entries()]
        assert len(set(ids)) == len(ids)
        dists = [e.distance for e in fut.entries()]
        assert dists == sorted(dists)
        assert fut.result(top_k=5) == fut.entries()[:5]
        assert engine.counters.completed == 1

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_protocol_built_without_engine_tracks_its_queries(self, flavor):
        # no engine= passed: the protocol runs under one of its own, and
        # draining to quiescence completes the query
        p, data = _make_platform()
        proto, stats = _build_proto(p, flavor)
        fut = proto.issue(p.indexes["t"].make_query(data[0], 12.0, qid=0), p.ring.nodes()[1])
        assert not fut.done()
        p.sim.run()
        assert fut.done() and fut.state == COMPLETE
        st = stats.for_query(0)
        assert st.state == "complete" and st.completed_at == st.last_result_at
        assert [e.object_id for e in fut.entries()] == _top_ids(st, k=10**9)
        assert proto.engine.counters.completed == 1

    def test_duplicate_qid_rejected(self):
        p, _ = _make_platform()
        engine = LifecycleEngine(p.transport)
        engine.register(1)
        with pytest.raises(ValueError):
            engine.register(1)

    def test_done_callback_fires_once_and_immediately_when_late(self):
        p, data = _make_platform()
        engine = p.lifecycle()
        proto, _ = _build_proto(p, "tree", engine=engine)
        fut = proto.issue(p.indexes["t"].make_query(data[0], 12.0, qid=0), p.ring.nodes()[0])
        seen = []
        fut.add_done_callback(seen.append)
        engine.run_until_complete([fut])
        assert seen == [fut]
        fut.add_done_callback(seen.append)  # already terminal: fires now
        assert seen == [fut, fut]


@pytest.mark.parametrize("flavor", FLAVORS)
class TestTerminationUnderFaults:
    def test_loss_terminates_positively(self, flavor):
        # no deadline, no retries: drop notifications settle lost branches,
        # so every query still reaches an explicit terminal state
        p, data = _make_platform(faults=FaultConfig(loss_rate=0.25, seed=3))
        engine = p.lifecycle()
        proto, stats = _build_proto(p, flavor, engine=engine)
        index = p.indexes["t"]
        futs = [
            proto.issue(index.make_query(data[i], 15.0, qid=i), p.ring.nodes()[i % 5])
            for i in range(8)
        ]
        assert engine.run_until_complete(futs)
        assert all(f.done() and not f.timed_out for f in futs)
        assert stats.state_counts() == {"complete": 8}
        assert p.transport.stats.dropped_loss > 0
        assert engine.counters.branches_failed > 0

    def test_source_dead_at_start_fails_the_root_branch(self, flavor):
        # the source crashes between issue() and the scheduled start: the
        # query must end complete *with a known gap*, not as a clean success
        p, data = _make_platform()
        engine = p.lifecycle()
        proto, stats = _build_proto(p, flavor, engine=engine)
        src = p.ring.nodes()[2]
        fut = proto.issue(p.indexes["t"].make_query(data[0], 12.0, qid=0), src, at_time=5.0)
        src.alive = False
        assert engine.run_until_complete([fut])
        st = stats.for_query(0)
        assert fut.state == COMPLETE and fut.entries() == []
        assert st.failed_branches == 1 and st.dropped_messages == 1
        assert st.query_messages == 0 and not st.index_nodes
        assert engine.counters.branches_failed == 1

    def test_partitioned_source_times_out(self, flavor):
        # retries keep rescheduling the dropped branches past the deadline,
        # which then forces the explicit timed_out state
        data = _make_data(400, 11)
        latency = ConstantLatency(24, delay=0.02)
        ring = ChordRing.build(24, m=24, seed=11, latency=latency, pns=False)
        src = ring.nodes()[0]
        p = IndexPlatform(ring, faults=FaultConfig(partitions=(frozenset({src.host}),)))
        p.create_index(
            "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3, sample_size=200, seed=3
        )
        engine = p.lifecycle(RetryPolicy(deadline=5.0, max_retries=8, rto=1.0, backoff=2.0))
        proto, stats = _build_proto(p, flavor, engine=engine)
        fut = proto.issue(p.indexes["t"].make_query(data[0], 15.0, qid=0), src)
        assert engine.run_until_complete([fut])
        assert fut.done() and fut.timed_out
        with pytest.raises(QueryTimeout):
            fut.result()
        st = stats.for_query(0)
        assert st.state == "timed_out"
        assert st.completed_at == pytest.approx(5.0)
        assert engine.counters.timed_out == 1
        assert isinstance(fut.entries(), list)  # partials stay inspectable

    def test_duplicate_suppression_under_jitter(self, flavor):
        # rto far below the jittered delivery delay: spurious retransmissions
        # race their originals; idempotent branch ids must keep the processed
        # work — and therefore the results — identical to the clean run
        def run(faults, policy):
            p, data = _make_platform(faults=faults, seed=17)
            engine = p.lifecycle(policy)
            proto, _ = _build_proto(p, flavor, engine=engine)
            index = p.indexes["t"]
            futs = [
                proto.issue(index.make_query(data[i], 15.0, qid=i), p.ring.nodes()[i % 5])
                for i in range(10)
            ]
            assert engine.run_until_complete(futs)
            return engine, futs

        _, clean_futs = run(None, None)
        policy = RetryPolicy(max_retries=2, rto=0.05, backoff=1.0)
        engine, futs = run(FaultConfig(jitter=0.5, seed=4), policy)
        assert engine.counters.retransmissions > 0
        assert engine.counters.duplicates_suppressed > 0
        for cf, f in zip(clean_futs, futs):
            got = [e.object_id for e in f.entries()]
            assert len(set(got)) == len(got)  # unique per object id
            assert got == [e.object_id for e in cf.entries()]


class TestRetransmissionRecall:
    def test_batch_recall_under_loss(self):
        # acceptance: 50-query batch on the tree protocol, loss_rate=0.1 —
        # with retries every query terminates and recall stays >= 0.95 of
        # the fault-free run
        def run(faults, policy):
            p, data = _make_platform(faults=faults, n_nodes=32, n_objects=800, seed=13)
            workload = QueryWorkload.build(
                data[:50], 15.0, n_nodes=len(p.ring), mean_interarrival=5.0, seed=21
            )
            return p.run_workload("t", workload, policy=policy)

        clean = run(None, None)
        policy = RetryPolicy(deadline=300.0, max_retries=3, rto=0.5)
        lossy = run(FaultConfig(loss_rate=0.1, seed=2), policy)

        states = lossy.state_counts()
        assert sum(states.get(s, 0) for s in ("complete", "timed_out")) == 50
        assert lossy.total_retransmissions() > 0
        summary = lossy.summary()
        assert "timed_out" in summary and "retransmissions" in summary

        ratios = []
        for i in range(50):
            want = _top_ids(clean.for_query(i))
            if not want:
                continue
            got = set(_top_ids(lossy.for_query(i)))
            ratios.append(len(got.intersection(want)) / len(want))
        assert np.mean(ratios) >= 0.95


class TestPipelinedVsSerial:
    def _run(self, pipelined, policy, mean_interarrival=3.0):
        p, data = _make_platform(seed=19)
        workload = QueryWorkload.build(
            data[:20], 12.0, n_nodes=len(p.ring),
            mean_interarrival=mean_interarrival, seed=5,
        )
        return p.run_workload("t", workload, pipelined=pipelined, policy=policy)

    @staticmethod
    def _per_query(stats, i):
        qs = stats.for_query(i)
        return (
            qs.query_messages,
            qs.query_bytes,
            qs.result_messages,
            qs.result_bytes,
            qs.max_hops,
            tuple(sorted(qs.index_nodes)),
            qs.response_time,
            qs.max_latency,
            tuple(_top_ids(qs)),
        )

    @pytest.mark.parametrize(
        "policy", [None, RetryPolicy(deadline=500.0, max_retries=2, rto=5.0)]
    )
    def test_identical_per_query_stats(self, policy):
        a = self._run(True, policy)
        b = self._run(False, policy)
        assert len(a) == len(b) == 20
        for i in range(20):
            assert self._per_query(a, i) == self._per_query(b, i)

    def test_pipelined_makespan_beats_serial(self):
        # arrivals ~10 ms apart against multi-hop query latencies: pipelined
        # keeps every query in flight at once, serial drains one at a time
        # (simulated time, so the comparison is exact and repeatable)
        policy = RetryPolicy(deadline=500.0)
        done = {}
        for pipelined in (True, False):
            stats = self._run(pipelined, policy, mean_interarrival=0.01)
            assert stats.state_counts() == {"complete": 20}
            done[pipelined] = max(qs.completed_at for qs in stats.queries.values())
        assert done[True] < done[False]


def figure_path_runs(policy=None):
    """The run behind ``tests/fixtures/quiescence_path_pr17.json``.

    The fixture was written by commit 61195d1 — the last one whose
    ``run_workload(policy=None)`` drained the simulator to quiescence with no
    lifecycle engine, the path every table in EXPERIMENTS.md was produced on
    — by dumping this function's return value.
    """
    n_nodes = 32
    data = _make_data(2000, 41)
    latency = king_latency_model(n_hosts=n_nodes, seed=41)
    ring = ChordRing.build(n_nodes, m=32, seed=41, latency=latency, pns=False)
    p = IndexPlatform(ring)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=4, sample_size=500,
        rotation=True, seed=3,
    )
    p.sim.digest_enabled = True
    runs = []
    for range_factor in (0.03, 0.08):
        workload = QueryWorkload.build(
            data[:40], range_factor * 100.0 * DIM ** 0.5, n_nodes=n_nodes,
            mean_interarrival=0.05, seed=7,
        )
        stats = p.run_workload("t", workload, policy=policy)
        queries = []
        for i in range(len(workload)):
            qs = stats.for_query(i)
            queries.append({
                "state": qs.state,
                "max_hops": qs.max_hops,
                "query_messages": qs.query_messages,
                "query_bytes": qs.query_bytes,
                "result_messages": qs.result_messages,
                "result_bytes": qs.result_bytes,
                "index_nodes": sorted(qs.index_nodes),
                "first_result_at": qs.first_result_at,
                "last_result_at": qs.last_result_at,
                "entries": sorted([e.object_id, e.distance] for e in qs.entries),
            })
        runs.append({
            "range_factor": range_factor,
            "schedule_digest": p.sim.schedule_digest,
            "queries": queries,
        })
    return runs


@pytest.mark.parametrize(
    "policy", [None, RetryPolicy(deadline=500.0, max_retries=2, rto=5.0)],
    ids=["default", "deadline"],
)
def test_figure_path_matches_the_quiescence_era_fixture(policy):
    # the engine-less executor is gone; what it computed is pinned here, for
    # the default policy (no timer: the same schedule, event for event) and
    # for one whose deadline and RTO timers are pure bookkeeping faults-off
    want = json.loads(FIGURE_PATH_FIXTURE.read_text())["runs"]
    got = figure_path_runs(policy)
    assert [r["range_factor"] for r in got] == [r["range_factor"] for r in want]
    for run, ref in zip(got, want):
        if policy is None:
            assert run["schedule_digest"] == ref["schedule_digest"]
        assert len(run["queries"]) == len(ref["queries"]) == 40
        for q, q_ref in zip(run["queries"], ref["queries"]):
            assert q.pop("state") == "complete"
            assert q_ref.pop("state") == "untracked"
            assert q == q_ref


class TestKnnLiveSim:
    def test_knn_preserves_coscheduled_events(self):
        # knn rides lifecycle completion on the live simulator: events queued
        # by others (here a far-future marker) must survive all rounds
        p, data = _make_platform()
        fired = []
        p.sim.schedule_at(1e6, fired.append, 1)
        res = knn_search(p, "t", data[3], k=5)
        assert len(res.object_ids) == 5 and res.exact
        dists = np.sqrt(((data - data[3]) ** 2).sum(axis=1))
        assert np.allclose(np.sort(res.distances), np.sort(dists)[:5])
        assert fired == []
        assert p.sim.pending() >= 1
        assert p.sim.now < 1e6

    def test_consecutive_searches_draw_distinct_qids(self):
        p, data = _make_platform()
        before = p.qids.peek()
        r1 = knn_search(p, "t", data[0], k=3)
        r2 = knn_search(p, "t", data[1], k=3)
        assert r1.exact and r2.exact
        assert p.qids.peek() >= before + r1.rounds + r2.rounds

    def test_knn_under_loss_with_retries(self):
        p, data = _make_platform(faults=FaultConfig(loss_rate=0.1, seed=6))
        res = knn_search(
            p, "t", data[2], k=5,
            policy=RetryPolicy(deadline=60.0, max_retries=3, rto=0.5),
        )
        assert len(res.object_ids) == 5


class TestQidAllocation:
    def test_allocator_sequence(self):
        a = QidAllocator()
        assert [a.next() for _ in range(3)] == [0, 1, 2]
        assert a.peek() == 3
        a.reset()
        assert a.next() == 0

    def test_per_platform_isolation_and_reproducibility(self):
        p1, data = _make_platform(seed=23)
        p2, _ = _make_platform(seed=23)
        i1, i2 = p1.indexes["t"], p2.indexes["t"]
        assert i1.qids is p1.qids and i2.qids is p2.qids
        qa = i1.make_query(data[0], 5.0)
        qb = i1.make_query(data[1], 5.0)
        assert qb.qid == qa.qid + 1
        # a fresh platform restarts the sequence; draws on one platform do
        # not advance another's
        assert i2.make_query(data[0], 5.0).qid == qa.qid
        assert p2.qids.peek() == p1.qids.peek() - 1
