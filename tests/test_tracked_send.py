"""The branch carries its message: retransmission, duplicate suppression and
untracked sends on the ``_tracked_send`` path, where the lifecycle branch is
the message from send to settle, and subqueries that own their bounds."""

import numpy as np
import pytest

from repro.core.lifecycle import LifecycleEngine, RetryPolicy
from repro.core.platform import IndexPlatform
from repro.core.query import RangeQuery, Rect, query_split
from repro.core.routing import QueryProtocol
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.obs import Observability
from repro.sim.network import ConstantLatency
from repro.sim.transport import FaultConfig

DIM = 4


class LoggedEngine(LifecycleEngine):
    """Records every transmission attempt: the branch, its id and attempt
    number at that moment, and the send span the attempt emitted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attempts = []

    def arm(self, br):
        recorder = br.proto.recorder
        sink = recorder.sinks[0] if recorder is not None else None
        before = len(sink.records) if sink is not None else 0
        super().arm(br)
        span = None
        if sink is not None:
            span = next(s for s in sink.records[before:] if s.kind == "send")
        self.attempts.append((br, br.bid, br.attempts, span))


class LoggedProtocol(QueryProtocol):
    """Records every subquery the sibling walk hands to QueryRouting with its
    parent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.refine_children = []
        self._refining = None

    def _surrogate_refine_fixed(self, node, q, hops):
        self._refining, outer = q, self._refining
        try:
            super()._surrogate_refine_fixed(node, q, hops)
        finally:
            self._refining = outer

    def _query_routing(self, node, q, hops):
        if self._refining is not None:
            self.refine_children.append((self._refining, q))
        refining, self._refining = self._refining, None
        try:
            super()._query_routing(node, q, hops)
        finally:
            self._refining = refining


def _platform(faults=None, obs=None):
    rng = np.random.default_rng(5)
    data = rng.uniform(0, 100, size=(500, DIM))
    latency = ConstantLatency(16, delay=0.02)
    ring = ChordRing.build(16, m=20, seed=5, latency=latency, pns=False)
    p = IndexPlatform(ring, faults=faults, obs=obs)
    p.create_index("t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3,
                   sample_size=200, seed=3)
    return p, data


def _run(p, data, policy, n=6, radius=25.0):
    obs = p.obs
    engine = LoggedEngine(
        p.transport, policy=policy,
        metrics=obs.registry if obs is not None else None,
        recorder=obs.recorder if obs is not None else None)
    proto = LoggedProtocol(index=p.indexes["t"], transport=p.transport,
                           engine=engine, obs=p.obs, top_k=10**6)
    nodes = p.ring.nodes()
    queries = p.indexes["t"].make_queries(
        data[:n], np.full(n, radius), qids=range(n))
    futures = [proto.issue(q, nodes[i % len(nodes)]) for i, q in enumerate(queries)]
    assert engine.run_until_complete(futures)
    return proto, engine


def test_a_retransmission_resends_the_same_branch():
    with Observability(tracing=True) as obs:
        p, data = _platform(FaultConfig(loss_rate=0.25, seed=9), obs=obs)
        proto, engine = _run(
            p, data, RetryPolicy(deadline=500.0, max_retries=2, rto=0.5))
    retries = [a for a in engine.attempts if a[2] > 1]
    assert retries and engine.counters.retransmissions == len(retries)
    for br, bid, attempt, span in retries:
        # the attempt before it: the same branch object under the same id
        prev = [a for a in engine.attempts
                if a[0] is br and a[1] == bid and a[2] == attempt - 1]
        assert len(prev) == 1
        first = prev[0][3]
        assert span.attrs["attempt"] == attempt == first.attrs["attempt"] + 1
        assert ({**span.attrs, "attempt": None}
                == {**first.attrs, "attempt": None})
        assert (span.qid, span.parent, span.node, span.kind) == (
            first.qid, first.parent, first.node, first.kind)
    # charged bytes follow attempts, first sends and retries alike
    for qid, qs in proto.stats.queries.items():
        charged = [a for a in engine.attempts if a[0].rec.qid == qid and a[0].charged]
        assert qs.query_messages == len(charged)
        assert qs.query_bytes == sum(a[0].size for a in charged)


def test_a_duplicate_arrival_is_suppressed_once_and_counted_once():
    # an RTO shorter than the link delay: every remote message is sent twice
    # and both copies arrive — the second must change nothing but a counter
    p, data = _platform()
    base, _ = _run(p, data, RetryPolicy(deadline=500.0))
    p2, _ = _platform()
    proto, engine = _run(
        p2, data, RetryPolicy(deadline=500.0, max_retries=2, rto=0.005))
    assert engine.counters.retransmissions > 0
    dup = sum(qs.duplicate_messages for qs in proto.stats.queries.values())
    assert dup == engine.counters.duplicates_suppressed > 0
    for qid, want in base.stats.queries.items():
        got = proto.stats.queries[qid]
        assert got.result_messages == want.result_messages
        assert got.index_nodes == want.index_nodes
        assert sorted((e.object_id, e.distance) for e in got.entries) == sorted(
            (e.object_id, e.distance) for e in want.entries)
        # retries are real traffic: each charged one bills its bytes again
        charged_retries = sum(
            1 for a in engine.attempts
            if a[0].rec.qid == qid and a[2] > 1 and a[0].charged)
        assert got.query_messages == want.query_messages + charged_retries


def test_a_branch_of_a_terminal_query_goes_out_untracked_and_is_billed():
    p, data = _platform()
    proto, engine = _run(p, data, RetryPolicy(deadline=500.0), n=1)
    qs = proto.stats.queries[0]
    assert qs.terminal
    opened, sent = engine.counters.branches_opened, p.transport.stats.sent
    msgs, nbytes = qs.query_messages, qs.query_bytes
    a, b = p.ring.nodes()[:2]
    hits = []
    proto._tracked_send(a, b, hits.append, "late", kind="query:routing", size=49, qid=0)
    assert engine.attempts[-1][1] is None and engine.attempts[-1][2] == 1
    p.sim.run()
    assert hits == ["late"]
    assert engine.counters.branches_opened == opened
    assert p.transport.stats.sent == sent + 1
    assert (qs.query_messages, qs.query_bytes) == (msgs + 1, nbytes + 49)


def _float_bounds(q, k):
    return all(len(b) == k and type(b) is tuple and all(type(x) is float for x in b)
               for b in (q.rect.lows, q.rect.highs, *q.cuboid))


def test_subqueries_carry_immutable_float_bounds():
    p, data = _platform()
    index = p.indexes["t"]
    k = index.bounds.k
    # query_split: one child (region in one half) and two (straddling)
    seen = set()
    for q in index.make_queries(data[:40], np.full(40, 8.0), qids=range(40)):
        while q.prefix_len < index.m and len(seen) < 2:
            subs = query_split(q, q.prefix_len + 1, index.bounds, index.m)
            seen.add(len(subs))
            assert all(_float_bounds(sq, k) for sq in subs)
            if len(subs) == 1:
                assert subs[0].rect is q.rect  # nothing changed: shared
            else:  # the side that did not move is shared
                assert subs[0].rect.highs is q.rect.highs
                assert subs[1].rect.lows is q.rect.lows
            q = subs[-1]
    assert seen == {1, 2}
    # the sibling walk's children, as SurrogateRefine hands them on
    proto, _ = _run(p, data, None)
    assert proto.refine_children
    for parent, child in proto.refine_children:
        assert child is not parent and _float_bounds(child, k)
        assert child.qid == parent.qid and child.source is parent.source


def test_the_public_constructors_still_validate():
    with pytest.raises(ValueError):
        Rect([1, 2], [3])
    with pytest.raises(ValueError):
        Rect([[1.0, 2.0]], [[3.0, 4.0]])
    r = Rect([1, 2], [3, 4])  # and still coerce
    assert r.lows == (1.0, 2.0) and r.highs == (3.0, 4.0)
    assert all(type(x) is float for x in r.lows + r.highs)
    q = RangeQuery(r, 0, 0, qid=7)
    c = q.copy()
    assert c is not q and c == q
