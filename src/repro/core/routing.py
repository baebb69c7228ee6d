"""Distributed range-query resolving and routing (paper §3.3, Algorithms 3 & 5).

``QueryProtocol`` is the event-simulator driver of the algorithms: the
decisions themselves are the sans-IO functions of :mod:`repro.core.query`,
and this module moves the messages they call for through the simulated Chord
overlay and keeps the books (spans, metrics, checker callbacks, lifecycle
branches, local solves and replies):

* **QueryRouting** (Algorithm 3, :func:`repro.core.query.query_routing`) runs
  at every node on the propagation path: split the query one partition level
  deeper (Algorithm 4); if both halves would take the same DHT link, keep the
  query whole — "a query splits into multiple subqueries only when these
  subqueries need to take different ways on the distributed embedded tree".
  Subqueries whose ``next_hop`` is the current node have reached the
  predecessor of their prefix key and are handed to the *surrogate* (the
  successor, i.e. the key's owner) for refinement.  Subqueries that share a
  destination travel in one message.

* **SurrogateRefine** (Algorithm 5, :func:`repro.core.query.surrogate_refine`
  / :func:`~repro.core.query.surrogate_refine_literal`) runs at owner nodes:
  answer the part of the query the node's ownership interval covers from
  local storage, carve out the remainder and re-route it.

All network delivery — latency lookup, liveness checks, drop accounting and
fault injection — goes through the shared
:class:`repro.sim.transport.Transport`; this module only decides *what* to
send *where*.  Every protocol runs under a
:class:`repro.core.lifecycle.LifecycleEngine` (its own, with the default
policy, when none is shared with it): each message is one tracked *branch* —
opened before the send, settled after the receiving side processed it, retried
on drops/timeouts when the policy allows and deduplicated on retransmission
races — which gives each query positive completion detection and a terminal
state even under faults (see :mod:`repro.core.lifecycle`).  The branch carries
its message: ``_tracked_send`` writes source, destination, handler, arguments,
kind, size and parent span into the branch ``engine.open`` returns, and
``engine.arm`` sends it on this protocol's transport, first send and every
retry alike.  The transport is handed the branch's bound ``deliver``
(accept → handler → settle) and ``drop``, so untraced no tuple, closure or
partial is made per message, and no qid is looked up after ``open``.  The
default policy arms no timer, so faults-off it adds no event to the schedule:
draining the simulator to quiescence completes every query.

Two surrogate modes are provided:

``"fixed"`` (default)
    Decomposes the claimed key range above the node's identifier into the
    canonical sibling cuboids — one per zero bit of the (rotation-adjusted)
    identifier, *the same prefixes Algorithm 5's recursion forwards* — but
    intersects each forwarded rectangle with the full sibling cuboid and
    answers the locally-owned key range against the whole remaining
    rectangle.  Identical message pattern and cost; never loses results.

``"literal"``
    Algorithm 5 exactly as printed.  When a query rectangle still straddles
    partition planes between ``prefix_len + 1`` and the node's first zero
    bit, the printed pseudocode re-prefixes the query with the node's 1-bits
    and can drop the straddling slivers (see DESIGN.md); kept for the
    fidelity ablation benchmark.

Rotation (static load balancing, §3.4) is applied at the boundary between
index-key space and ring space: routing targets ``rotate(prefix_key)`` and
prefix comparisons use the node's *effective* identifier
``unrotate(node.id)``; rotation is order-preserving on the ring so ownership
reasoning is unchanged.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.core.lifecycle import RESOLVING, LifecycleEngine, QueryFuture
from repro.core.query import (
    RangeQuery,
    claimed_range,
    query_routing,
    surrogate_refine,
    surrogate_refine_literal,
)
from repro.dht.idspace import unrotate
from repro.sim.messages import ResultEntry, ResultMessage, query_message_size
from repro.sim.stats import StatsCollector
from repro.sim.transport import Transport
from repro.util.bits import first_zero_bit, prefix_of, set_bit_at

__all__ = ["QueryProtocol"]

#: the two message kinds a query bundle travels as
_ROUTING = "query:routing"
_REFINE = "query:refine"


class QueryProtocol:
    """Event-driven executor of the range-query routing algorithms.

    Parameters
    ----------
    transport:
        The :class:`repro.sim.transport.Transport` every message is sent on
        — a platform's (:attr:`repro.core.platform.IndexPlatform.transport`),
        so its faults, latency model and counters apply; the protocol runs
        on its simulator.
    index:
        A distributed landmark index (duck-typed; see
        :class:`repro.core.platform.LandmarkIndex`): must expose ``m``,
        ``k``, ``bounds``, ``rotation``, ``shards`` and ``refine_distances``.
    stats:
        A :class:`repro.sim.stats.StatsCollector` (created when omitted).
    surrogate_mode:
        ``"fixed"`` or ``"literal"`` (see module docstring).
    top_k:
        How many nearest local results an index node returns (paper: 10); a
        non-negative int.
    range_filter:
        Refine candidates by true distance and drop those beyond the query
        radius (the paper's superset refinement).
    engine:
        The :class:`repro.core.lifecycle.LifecycleEngine` to register queries
        with — pass one to share it between protocols or to set a
        :class:`repro.core.lifecycle.RetryPolicy`; by default the protocol
        creates its own on ``transport`` with the default policy.
    obs:
        Optional :class:`repro.obs.Observability`.  Routing counters and hop
        histograms land in its metrics registry; when its span recorder is
        active, every routing step, surrogate refinement, local solve,
        message send/drop and result arrival is emitted as a qid-correlated
        span (see :mod:`repro.obs.spans`).  ``None`` (the default) costs one
        ``is not None`` test per step.
    checker:
        Optional partition-exactness observer (duck-typed; see
        :class:`repro.check.invariants.PartitionChecker`).  Two callbacks:
        ``on_split(q, subs)`` whenever a query is split one level deeper,
        and ``on_refine(q, eff, local_lo, local_hi, siblings)`` whenever a
        surrogate decomposes its claimed key range (``siblings`` is the
        ``(prefix_key, prefix_len)`` list of forwarded sibling cuboids,
        before rect intersection).  ``None`` costs one test per step.
    """

    def __init__(
        self,
        transport: Transport,
        index: Any,
        stats: Any = None,
        surrogate_mode: str = "fixed",
        top_k: int = 10,
        range_filter: bool = True,
        engine: LifecycleEngine | None = None,
        obs: Any = None,
        checker: Any = None,
    ) -> None:
        if surrogate_mode not in ("fixed", "literal"):
            raise ValueError(f"unknown surrogate_mode {surrogate_mode!r}")
        if isinstance(top_k, bool) or not isinstance(top_k, (int, np.integer)) or top_k < 0:
            raise ValueError(f"top_k must be a non-negative int, got {top_k!r}")
        self.transport = transport
        self.sim = transport.sim
        self.stats = stats if stats is not None else StatsCollector()
        self.index = index
        self.surrogate_mode = surrogate_mode
        self.top_k = top_k
        self.range_filter = range_filter
        self.checker = checker
        self.recorder = obs.recorder if obs is not None else None
        registry = obs.registry if obs is not None else None
        if engine is None:
            engine = LifecycleEngine(
                self.transport, metrics=registry, recorder=self.recorder)
        self.engine = engine
        if registry is not None and registry.enabled:
            from repro.obs.registry import DEFAULT_HOP_BUCKETS

            proto = type(self).__name__
            self._m_splits = registry.counter(
                "routing_splits_total", "Queries split one level deeper",
                ("proto",))
            self._m_refines = registry.counter(
                "routing_surrogate_refines_total", "Surrogate refinements",
                ("proto", "mode"))
            self._m_solves = registry.counter(
                "routing_local_solves_total", "Local range-query resolutions",
                ("proto",))
            self._h_hops = registry.histogram(
                "routing_index_node_hops", "Overlay hops to reach index nodes",
                ("proto",), buckets=DEFAULT_HOP_BUCKETS)
            self._proto_label = (proto,)
            self._refine_label = (proto, surrogate_mode)
        else:
            self._m_splits = self._m_refines = None
            self._m_solves = self._h_hops = None
            self._proto_label = ()
            self._refine_label = ()

    # -- lifecycle-tracked message plumbing ------------------------------------
    #
    # Every query protocol (this one, NaiveProtocol and the SCRAP baseline's
    # NaiveProtocol subclass) sends query-carrying messages through
    # _tracked_send, so branch accounting, retransmission and duplicate
    # suppression live in exactly one place: the branch, which is the message.

    def _tracked_send(
        self,
        src: Any,
        dst: Any,
        fn: Callable[..., None],
        *args: Any,
        kind: str,
        size: int,
        qid: int,
        record: bool = True,
    ) -> None:
        """Send ``fn(*args)``-at-``dst`` as one lifecycle branch.

        ``record`` charges the message to the query's byte/message counters
        per transmission attempt (retries are real traffic); result replies
        pass ``record=False`` and account on arrival instead.  A branch of an
        already-terminal query is untracked (``bid`` ``None``) but still sent,
        billed and delivered.

        With a span recorder, each transmission attempt emits a ``send``
        span parented to the span that was current when the send was
        *initiated* (captured here — a retransmission fires from a timer,
        when the context stack is long gone).  The send span's id travels
        with the message so processing at the receiver nests under it.
        """
        engine = self.engine
        br = engine.open(qid)
        br.proto = self
        br.src = src
        br.dst = dst
        br.handler = fn
        br.args = args
        br.kind = kind
        br.size = size
        br.charged = bool(record and size)
        recorder = self.recorder
        br.parent = recorder.context(qid) if recorder is not None else None
        engine.arm(br)

    # -- entry points ----------------------------------------------------------

    def issue(self, query: RangeQuery, node: Any,
              at_time: float | None = None) -> QueryFuture:
        """Inject ``query`` at ``node`` (optionally at a future simulation
        time); returns the query's :class:`repro.core.lifecycle.QueryFuture`.
        """
        query.source = node
        st = self.stats.for_query(query.qid)
        st.issued_at = self.sim.now if at_time is None else at_time
        if self.recorder is not None:
            self.recorder.begin_query(query.qid, node=node.id)
        fut = self.engine.register(query.qid, stats=self.stats, issued_at=st.issued_at)
        # the injection itself is a branch: the query cannot look complete
        # before its first routing step has run
        root = self.engine.open(query.qid)
        if at_time is None:
            self._start_root(node, query, root)
        else:
            self.transport.at(at_time, self._start_root, node, query, root)
        return fut

    def issue_many(
        self,
        queries: list[RangeQuery],
        nodes: list[Any],
        at_times: list[float],
    ) -> list[QueryFuture]:
        """Inject a batch of queries at their arrival times: :meth:`issue`
        per query, in order (registration arms the deadline timers, whose
        sequence numbers interleave with the starts)."""
        return [
            self.issue(q, node, at_time=float(at))
            for q, node, at in zip(queries, nodes, at_times)
        ]

    def _start_root(self, node: Any, query: RangeQuery, root: Any) -> None:
        if not node.alive:
            # the issuing node crashed before its scheduled query fired: the
            # query ends complete with a known gap, like any other lost branch
            self.stats.for_query(query.qid).dropped_messages += 1
            self.engine.settle(root, failed=True)
            return
        try:
            self._start(node, query)
        finally:
            self.engine.settle(root)

    def _start(self, node: Any, query: RangeQuery) -> None:
        """Protocol-specific first step (overridden by the baselines)."""
        self._query_routing(node, query, 0)

    # -- Algorithm 3: QueryRouting ---------------------------------------------

    def _query_routing(self, node: Any, q: RangeQuery, hops: int) -> None:
        index = self.index
        sublist, nexts = query_routing(node, q, index.bounds, index.rotation, index.m)
        if len(sublist) > 1:
            if self._m_splits is not None:
                self._m_splits.inc(self._proto_label)
            if self.checker is not None:
                self.checker.on_split(q, sublist)
        recorder = self.recorder
        sid = None
        if recorder is not None:
            sid = recorder.event(
                q.qid, "route", node=node.id, hops=hops,
                prefix_len=q.prefix_len, subqueries=len(sublist),
            )
            recorder.push(sid)
        try:
            routing_groups: dict[Any, list[RangeQuery]] = {}
            refine_groups: dict[Any, list[RangeQuery]] = {}
            for sq, n in zip(sublist, nexts):
                if n is node:
                    # This node is the predecessor of the prefix key; the
                    # owner is its successor — the surrogate (lines 16-17).
                    refine_groups.setdefault(node.successor_node(), []).append(sq)
                else:
                    routing_groups.setdefault(n, []).append(sq)
            # subqueries sharing a next hop travel as one bundle (§4.1 size
            # model); a local hand-off (single-node ring) is no message: no
            # bytes, no hop
            for kind, groups in ((_ROUTING, routing_groups), (_REFINE, refine_groups)):
                for dest, sqs in groups.items():
                    local = dest is node
                    self._tracked_send(
                        node, dest, self._open_bundle, dest, kind, sqs,
                        hops if local else hops + 1, kind=kind, qid=q.qid,
                        size=0 if local else query_message_size(len(sqs), index.k),
                    )
        finally:
            if recorder is not None:
                recorder.pop()

    # -- message plumbing --------------------------------------------------------

    def _open_bundle(self, dest: Any, kind: str,
                     sqs: list[RangeQuery], hops: int) -> None:
        """Unpack an arrived bundle (liveness already checked by transport)."""
        step = self._query_routing if kind == _ROUTING else self._surrogate_refine
        for sq in sqs:
            step(dest, sq, hops)

    # -- Algorithm 5: SurrogateRefine ----------------------------------------------

    def _surrogate_refine(self, node: Any, q: RangeQuery, hops: int) -> None:
        if self._m_refines is not None:
            self._m_refines.inc(self._refine_label)
        recorder = self.recorder
        sid = None
        if recorder is not None:
            sid = recorder.event(
                q.qid, "refine", node=node.id, hops=hops,
                mode=self.surrogate_mode, prefix_len=q.prefix_len,
            )
            recorder.push(sid)
        try:
            if self.surrogate_mode == "fixed":
                self._surrogate_refine_fixed(node, q, hops)
            else:
                self._surrogate_refine_literal(node, q, hops)
        finally:
            if recorder is not None:
                recorder.pop()

    def _claimed_range(self, q: RangeQuery) -> tuple[int, int]:
        """The key interval of the cuboid a subquery claims."""
        return claimed_range(q, self.index.m)

    def _surrogate_refine_fixed(self, node: Any, q: RangeQuery, hops: int) -> None:
        index = self.index
        m = index.m
        eff = unrotate(node.id, index.rotation, m)
        for sq, keys in surrogate_refine(q, eff, index.bounds, m):
            if keys is None:
                self._query_routing(node, sq, hops)
                continue
            if self.checker is not None:
                # the sibling at each zero bit of eff below the prefix, from
                # bits alone (nothing when the node answers the whole claim)
                siblings: list[tuple[int, int]] = []
                jj = first_zero_bit(eff, q.prefix_len + 1, m) if keys[1] == eff else None
                while jj is not None:
                    siblings.append((set_bit_at(prefix_of(eff, jj - 1, m), jj, m), jj))
                    jj = first_zero_bit(eff, jj + 1, m)
                self.checker.on_refine(q, eff, *keys, siblings)
            self._solve_local(node, sq, hops, *keys)

    def _surrogate_refine_literal(self, node: Any, q: RangeQuery, hops: int) -> None:
        index = self.index
        eff = unrotate(node.id, index.rotation, index.m)
        for sq, keys in surrogate_refine_literal(q, eff, index.bounds, index.m):
            if keys is None:
                self._query_routing(node, sq, hops)
            else:
                self._solve_local(node, sq, hops, *keys)

    # -- local resolution ------------------------------------------------------------

    def _solve_local(self, node: Any, q: RangeQuery, hops: int,
                     key_lo: int, key_hi: int) -> None:
        """Answer the (rect x key-range) slice from local storage and reply.

        Index nodes return their ``top_k`` nearest results after refining the
        candidate superset with true distances (paper §4.1: "each queried
        index node returns the 10-nearest local results").
        """
        st = self.stats.for_query(q.qid)
        st.record_index_node(node.id, hops)
        if self._m_solves is not None:
            self._m_solves.inc(self._proto_label)
            self._h_hops.observe(hops, self._proto_label)
        if st.state != RESOLVING:  # the engine mirrors its state into st
            self.engine.mark_resolving(q.qid)
        entries: list[ResultEntry] = []
        shard = self.index.shards.get(node)
        if shard is not None and len(shard):
            pos = shard.range_search(q.rect.lows, q.rect.highs, key_lo, key_hi)
            if len(pos):
                object_ids = shard.object_ids[pos]
                radius = q.radius if self.range_filter else None
                dists = self.index.refine_distances(q, object_ids, radius=radius)
                if radius is not None:
                    keep = dists <= radius
                    object_ids = object_ids[keep]
                    dists = dists[keep]
                if len(object_ids) > self.top_k:
                    nearest = np.argpartition(dists, self.top_k)[: self.top_k]
                    object_ids = object_ids[nearest]
                    dists = dists[nearest]
                entries = [
                    ResultEntry(oid, d)
                    for oid, d in zip(object_ids.tolist(), dists.tolist())
                ]
        recorder = self.recorder
        if recorder is not None:
            recorder.push(recorder.event(
                q.qid, "solve", node=node.id, hops=hops,
                results=len(entries), key_lo=key_lo, key_hi=key_hi,
            ))
        # a node with no matching entry still sends its (20-byte) reply: the
        # *maximum latency* metric is only observable that way
        try:
            msg = ResultMessage(q.qid, entries, from_node=node.id)
            source = q.source
            if source is node:
                # a local reply costs no bytes but is still one "result" leaf
                # in the span tree — span counts must match
                # QueryStats.result_messages
                self._arrive_result(st, msg, 0)
                return
            # result bytes are charged on arrival (a dropped or duplicated
            # reply must not count), hence record=False here
            size = msg.size
            self._tracked_send(
                node, source, self._arrive_result, st, msg, size,
                kind="result", size=size, qid=q.qid, record=False,
            )
        finally:
            if recorder is not None:
                recorder.pop()

    def _arrive_result(self, st: Any, msg: ResultMessage, size: int) -> None:
        """A reply reached the querying node: bill it to the query's record
        ``st`` and hand over its rows.  Only a local reply has ``size`` 0."""
        st.record_result_message(size, self.sim.now)
        if self.recorder is not None:
            self.recorder.event(
                msg.qid, "result", node=msg.from_node,
                results=len(msg.entries), size=size, local=size == 0,
            )
        self.engine.add_entries(msg.qid, msg.entries)
