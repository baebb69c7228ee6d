"""Per-query lifecycle engine: completion, deadlines, retries, futures.

The paper's query resolving (§3.3, Algorithms 3–5) implicitly assumes every
subquery eventually answers: a simulation "knows" a query is done only when
the whole event queue drains.  That breaks down the moment faults are
injected (messages lost to crashes, loss or partitions silently shrink the
result set) and forbids concurrent queries (nothing separates one query's
quiescence from another's).  This module gives every query an explicit
lifecycle instead — every query of every protocol: a
:class:`repro.core.routing.QueryProtocol` that is not handed an engine creates
its own, so there is no second, untracked executor:

``issued → routing → resolving → complete | timed_out``

* **Positive completion detection** — every unit of in-flight work (the
  initial injection, each routing/refine bundle, each naive/SCRAP lookup
  hop, each result reply) is a *branch*.  Protocols open a branch before
  sending and settle it once the receiving side has processed it; a query is
  complete exactly when its outstanding-branch count returns to zero.
* **Deadlines** — an optional per-query deadline forces the ``timed_out``
  terminal state, so lossy or partitioned runs terminate loudly instead of
  hanging or silently under-reporting.
* **The branch carries its message** — :meth:`open` returns the branch,
  bound to its query record; the sending protocol writes the message into it
  and :meth:`arm` transmits it.  The transport is handed the branch's bound
  :meth:`_Branch.deliver` (accept → handler → settle) and
  :meth:`_Branch.drop`, so no qid is looked up after :meth:`open`.
* **Retransmission** — an RTO timer (exponential backoff,
  :class:`RetryPolicy`) re-sends the same branch until it settles or its
  retries are exhausted.  The simulator's deterministic drop notifications
  double as fast-path NACKs.  Because a jittered original and its
  retransmission can both arrive, a branch is accepted once and later copies
  are suppressed as duplicates, and result entries are deduplicated by
  object id at merge time.
* **Futures** — :meth:`register` returns a :class:`QueryFuture` with the
  terminal state, merged results and completion callbacks, which is what
  lets ``knn_search`` ride completion on a live simulator and the eval
  runner pipeline whole query batches.

The engine is deliberately protocol-agnostic: `QueryProtocol`,
`NaiveProtocol` and its subclasses (the SCRAP baseline in
`benchmarks/baselines/scrap.py`) all send through
:meth:`repro.core.routing.QueryProtocol._tracked_send`, so every message
passes the same four calls — open, arm, accept, settle.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.sim.messages import merge_entries
from repro.sim.stats import QueryStats

__all__ = [
    "ISSUED",
    "ROUTING",
    "RESOLVING",
    "COMPLETE",
    "TIMED_OUT",
    "TERMINAL_STATES",
    "RetryPolicy",
    "QueryTimeout",
    "QueryFuture",
    "LifecycleCounters",
    "LifecycleEngine",
]

#: lifecycle states of a query
ISSUED = "issued"
ROUTING = "routing"
RESOLVING = "resolving"
COMPLETE = "complete"
TIMED_OUT = "timed_out"
TERMINAL_STATES = (COMPLETE, TIMED_OUT)


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline/retransmission knobs of a :class:`LifecycleEngine`.

    Attributes
    ----------
    deadline:
        Seconds (simulation time) a query may run after being issued before
        it is forced into ``timed_out``; ``None`` disables the deadline
        (queries still terminate — the transport's drop notifications settle
        lost branches — but only a deadline bounds pathological cases).
    max_retries:
        Retransmissions allowed per message branch on top of the original
        send; 0 disables retransmission entirely.
    rto:
        Initial retransmission timeout in seconds.  Each further attempt of
        the same branch multiplies it by ``backoff``.
    backoff:
        Exponential backoff factor (>= 1) applied per attempt.
    """

    deadline: float | None = None
    max_retries: int = 0
    rto: float = 1.0
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.rto <= 0:
            raise ValueError(f"rto must be positive, got {self.rto}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")


class QueryTimeout(RuntimeError):
    """Raised by :meth:`QueryFuture.result` when the query timed out."""


@dataclass
class LifecycleCounters:
    """Engine-wide event counters (all queries combined).

    The three branch counters obey the conservation law the invariant
    checker (:mod:`repro.check.invariants`) relies on: at any instant,
    ``branches_opened == branches_settled + branches_discarded +
    branches_in_flight()`` — every branch ever opened is either settled
    (delivered or failed), discarded by a deadline firing, or still
    outstanding.
    """

    registered: int = 0
    completed: int = 0
    timed_out: int = 0
    retransmissions: int = 0
    duplicates_suppressed: int = 0
    branches_failed: int = 0
    branches_opened: int = 0
    branches_settled: int = 0
    branches_discarded: int = 0


class _Branch:
    """One unit of work of a query and, for a message branch, the message.

    :meth:`LifecycleEngine.open` fills the bookkeeping slots and the sending
    protocol the message slots (no ``__init__``: one is made per message,
    and a constructor would be one more call each).  ``bid`` is ``None`` on
    an untracked branch, opened for an already-terminal query: it is sent
    and delivered but counts toward nothing.  A query's root branch carries
    no message.  ``proto`` is the sending protocol: its ``transport`` and
    ``recorder`` serve the message.
    """

    __slots__ = (
        "engine", "rec", "bid", "attempts", "timer", "accepted",
        "proto", "src", "dst", "handler", "args", "kind", "size", "charged",
        "parent",
    )

    engine: LifecycleEngine
    rec: _Record
    bid: int | None
    attempts: int
    #: TimerHandle of the pending RTO, if any
    timer: Any
    #: set by the first accepted delivery; later copies are duplicates
    accepted: bool
    proto: Any
    src: Any
    dst: Any
    handler: Callable[..., None]
    args: tuple[Any, ...]
    kind: str
    size: int
    #: billed to the query's message and byte counters per attempt
    charged: bool
    #: the span current when the send was initiated (sid or None)
    parent: int | None

    def deliver(self, psid: int | None) -> None:
        """One transmission arrived: accept it, run the handler, settle.

        ``psid`` is the send span of the attempt that arrived; it is the
        current span while the handler runs, so everything the receiver does
        nests under the message that triggered it.
        """
        if psid is not None:
            self.proto.recorder.push(psid)
        try:
            engine = self.engine
            if engine.accept(self):
                try:
                    self.handler(*self.args)
                finally:
                    engine.settle(self)
        finally:
            if psid is not None:
                self.proto.recorder.pop()

    def drop(self, status: str, psid: int | None = None) -> None:
        """The transport dropped an attempt: bill the loss to the query and
        let the engine retry or fail the branch.  ``psid`` is the attempt's
        send span, when traced."""
        rec = self.rec
        rec.stats.dropped_messages += 1
        if psid is not None:
            self.proto.recorder.event(rec.qid, "drop", parent=psid, status=status)
        self.engine.notify_drop(self)


class _Record:
    """Per-query lifecycle state."""

    __slots__ = (
        "qid", "state", "outstanding", "branches", "next_bid",
        "stats", "deadline_timer", "callbacks", "future",
    )

    def __init__(self, qid: int, stats: QueryStats) -> None:
        self.qid = qid
        self.state = ISSUED
        self.outstanding = 0
        self.branches: dict[int, _Branch] = {}  # the outstanding ones
        self.next_bid = 0
        #: mirrors the state and holds the result rows: there is no second copy
        self.stats = stats
        self.deadline_timer = None
        self.callbacks: list[Callable[["QueryFuture"], None]] = []
        self.future: QueryFuture | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class QueryFuture:
    """Handle on one in-flight query: state, merged results, callbacks.

    Completion is driven by the simulator — run it (e.g. via
    :meth:`LifecycleEngine.run_until_complete`) until :meth:`done`.
    """

    __slots__ = ("qid", "engine", "_rec")

    def __init__(self, qid: int, engine: LifecycleEngine, rec: _Record) -> None:
        self.qid = qid
        self.engine = engine
        self._rec = rec

    @property
    def state(self) -> str:
        return self._rec.state

    def done(self) -> bool:
        return self._rec.terminal

    @property
    def timed_out(self) -> bool:
        return self._rec.state == TIMED_OUT

    @property
    def outstanding(self) -> int:
        """Branches still in flight (0 once terminal)."""
        return self._rec.outstanding

    def entries(self) -> list[Any]:
        """Merged result entries so far, deduplicated by object id (the best
        distance wins), sorted by (distance, object id).  Available on
        incomplete and timed-out queries — partial results are explicit."""
        return merge_entries(self._rec.stats.entries)

    def result(self, top_k: int | None = None) -> list[Any]:
        """The merged entries of a *completed* query.

        Raises :class:`QueryTimeout` when the query timed out (use
        :meth:`entries` to inspect the partial results) and ``RuntimeError``
        when the query has not reached a terminal state yet.
        """
        if not self._rec.terminal:
            raise RuntimeError(
                f"query {self.qid} not finished (state={self._rec.state!r}); "
                "run the simulator to completion first"
            )
        if self._rec.state == TIMED_OUT:
            raise QueryTimeout(
                f"query {self.qid} timed out with "
                f"{len(self.entries())} partial result(s)"
            )
        out = self.entries()
        return out if top_k is None else out[:top_k]

    def add_done_callback(self, fn: Callable[["QueryFuture"], None]) -> None:
        """Call ``fn(future)`` once the query reaches a terminal state (or
        immediately if it already has)."""
        if self._rec.terminal:
            fn(self)
        else:
            self._rec.callbacks.append(fn)


class LifecycleEngine:
    """Tracks the lifecycle of every registered query on one transport.

    One engine serves any number of queries and protocols concurrently (its
    records are keyed by qid — another reason qids must be unique per
    platform, see :class:`repro.core.query.QidAllocator`).
    """

    def __init__(
        self,
        transport: Any,
        policy: RetryPolicy | None = None,
        metrics: Any = None,
        recorder: Any = None,
    ) -> None:
        self.transport = transport
        self.policy = policy if policy is not None else RetryPolicy()
        self.records: dict[int, _Record] = {}
        self.counters = LifecycleCounters()
        #: optional SpanRecorder — retransmission/deadline events become
        #: spans, and query root spans are finished here (the engine is the
        #: one component that knows when a query reached a terminal state)
        self.recorder = recorder
        # instruments resolved once; open/settle run per message branch
        if metrics is not None and getattr(metrics, "enabled", False):
            self._m_opened = metrics.counter(
                "lifecycle_branches_opened_total", "Branches opened")
            self._m_settled = metrics.counter(
                "lifecycle_branches_settled_total", "Branches settled",
                ("outcome",))
            self._m_retrans = metrics.counter(
                "lifecycle_retransmissions_total", "Branch retransmissions")
            self._m_deadline = metrics.counter(
                "lifecycle_deadline_hits_total", "Per-query deadline firings")
            self._m_queries = metrics.counter(
                "lifecycle_queries_total", "Queries reaching a terminal state",
                ("state",))
            self._m_dups = metrics.counter(
                "lifecycle_duplicates_total", "Duplicate deliveries suppressed")
        else:
            self._m_opened = self._m_settled = self._m_retrans = None
            self._m_deadline = self._m_queries = self._m_dups = None

    def branches_in_flight(self) -> int:
        """Outstanding branches across all live queries (health sampling)."""
        return sum(
            rec.outstanding for rec in self.records.values() if not rec.terminal
        )

    # -- registration -----------------------------------------------------------

    def register(
        self,
        qid: int,
        stats: Any = None,
        issued_at: float | None = None,
    ) -> QueryFuture:
        """Start tracking ``qid``; returns its future.

        ``stats`` is an optional :class:`repro.sim.stats.StatsCollector`
        whose per-query record mirrors the lifecycle state and holds the
        result rows (a query registered without one gets a record of its
        own).  ``issued_at`` anchors the deadline for queries scheduled into
        the future.
        """
        if qid in self.records:
            raise ValueError(f"query id {qid} already registered on this engine")
        rec = _Record(qid, stats.for_query(qid) if stats is not None else QueryStats(qid))
        rec.stats.state = ISSUED
        self.records[qid] = rec
        rec.future = QueryFuture(qid, self, rec)
        self.counters.registered += 1
        if self.policy.deadline is not None:
            start = issued_at if issued_at is not None else self.transport.sim.now
            rec.deadline_timer = self.transport.at_cancelable(
                start + self.policy.deadline, self._deadline, qid
            )
        return rec.future

    # -- branch accounting ------------------------------------------------------

    def open(self, qid: int) -> _Branch:
        """Open a branch of ``qid`` and return it (untracked, with ``bid``
        ``None``, when the query is already terminal)."""
        rec = self.records[qid]
        br = _Branch()
        br.engine = self
        br.rec = rec
        br.attempts = 0
        br.timer = None
        br.accepted = False
        if rec.state in TERMINAL_STATES:
            br.bid = None
            return br
        bid = br.bid = rec.next_bid
        rec.next_bid = bid + 1
        rec.branches[bid] = br
        rec.outstanding += 1
        self.counters.branches_opened += 1
        if self._m_opened is not None:
            self._m_opened.inc()
        if rec.state == ISSUED:
            self._set_state(rec, ROUTING)
        return br

    def arm(self, br: _Branch) -> None:
        """Transmit the message ``br`` carries and arm its RTO.

        Called after :meth:`open` for attempt 1 and by every retry.  A
        billed attempt is charged to the query's counters (retries are real
        traffic); with a span recorder it emits a ``send`` span whose id
        travels with the attempt.
        """
        attempt = br.attempts = br.attempts + 1
        proto = br.proto
        src = br.src
        dst = br.dst
        size = br.size
        if br.charged:
            st = br.rec.stats
            st.query_messages += 1
            st.query_bytes += size
        psid = None
        if proto.recorder is not None:
            psid = proto.recorder.event(
                br.rec.qid, "send", parent=br.parent, node=src.id,
                msg_kind=br.kind, size=size, dst=dst.id,
                attempt=attempt, charged=br.charged,
            )
        # a traced attempt's drop span hangs under that attempt's own send
        # span, so its drop hook carries the span id; untraced, the branch's
        # bound ``drop`` is the hook
        proto.transport.send(
            src, dst, br.deliver, psid, kind=br.kind, size=size,
            on_drop=br.drop if psid is None else partial(br.drop, psid=psid))
        policy = self.policy
        if attempt > policy.max_retries:
            return  # no retry left: no RTO to arm
        # The branch may have settled synchronously (self-delivery at zero
        # delay) or been dropped at send time (loss/partition -> notify_drop
        # already rescheduled or failed it); only arm an RTO when it is
        # still plainly in flight.  An untracked branch is never in flight.
        rec = br.rec
        if (br.bid not in rec.branches or br.timer is not None
                or rec.state in TERMINAL_STATES):
            return
        br.timer = self.transport.timer_cancelable(
            policy.rto * policy.backoff ** (attempt - 1), self._retransmit, br)

    def accept(self, br: _Branch) -> bool:
        """Receiver-side idempotence check: process each branch only once.

        Returns False for duplicates (a retransmission racing its jittered
        original) and for stragglers of already-terminal queries; an
        untracked branch is always processed.
        """
        if br.bid is None:
            return True
        rec = br.rec
        if rec.state in TERMINAL_STATES:
            return False
        if br.accepted:
            self.counters.duplicates_suppressed += 1
            if self._m_dups is not None:
                self._m_dups.inc()
            rec.stats.duplicate_messages += 1
            return False
        br.accepted = True
        return True

    def settle(self, br: _Branch, failed: bool = False) -> None:
        """Close a branch; the query completes when none remain outstanding."""
        rec = br.rec
        if rec.state in TERMINAL_STATES or rec.branches.pop(br.bid, None) is None:
            return  # untracked, or already settled (e.g. duplicate delivery)
        if br.timer is not None:
            br.timer.cancel()
            br.timer = None
        if failed:
            self.counters.branches_failed += 1
            rec.stats.failed_branches += 1
        self.counters.branches_settled += 1
        if self._m_settled is not None:
            self._m_settled.inc(("failed" if failed else "ok",))
        rec.outstanding -= 1
        if rec.outstanding <= 0:
            self._complete(rec)

    def notify_drop(self, br: _Branch) -> None:
        """Transport drop notification: retry after backoff or fail the branch."""
        rec = br.rec
        if rec.terminal or br.bid not in rec.branches:
            return
        if br.timer is not None:
            br.timer.cancel()
            br.timer = None
        if br.attempts > self.policy.max_retries:
            self.settle(br, failed=True)
            return
        delay = self.policy.rto * self.policy.backoff ** (br.attempts - 1)
        br.timer = self.transport.timer_cancelable(delay, self._retransmit, br)

    # -- state reporting --------------------------------------------------------

    def mark_resolving(self, qid: int) -> None:
        """First local solve of a query: ``routing -> resolving``."""
        rec = self.records.get(qid)
        if rec is not None and rec.state in (ISSUED, ROUTING):
            self._set_state(rec, RESOLVING)

    def add_entries(self, qid: int, entries: Iterable[Any]) -> None:
        """Append one reply's result rows to the query's answer (merged when
        read, :meth:`QueryFuture.entries`)."""
        rec = self.records.get(qid)
        if rec is not None:
            rec.stats.entries.extend(entries)

    # -- driving the simulator --------------------------------------------------

    def run_until_complete(self, futures: Iterable[Any]) -> bool:
        """Run the simulator until every future is terminal.

        Unlike running to quiescence this leaves unrelated events (other
        queries, scheduled maintenance) queued, which is what lets batches
        and maintenance traffic share one live simulator.  Returns True when
        all futures finished; False if the event queue drained first (which
        cannot happen for engine-tracked queries — every branch settles on
        delivery, drop or timeout).
        """
        pending = [f for f in futures if not f.done()]
        if not pending:
            return True
        remaining = len(pending)
        sim = self.transport.sim

        def _one_done(_fut: Any) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                sim.stop()

        for f in pending:
            f.add_done_callback(_one_done)
        sim.run()
        finished = remaining == 0
        remaining = -1  # a straggler ending in some later run must not stop it
        return finished

    # -- internals --------------------------------------------------------------

    def _set_state(self, rec: _Record, state: str) -> None:
        rec.state = state
        rec.stats.state = state

    def _retransmit(self, br: _Branch) -> None:
        """An RTO or a drop back-off ran out: send the branch again."""
        rec = br.rec
        if rec.terminal or br.bid not in rec.branches:
            return
        br.timer = None
        self.counters.retransmissions += 1
        if self._m_retrans is not None:
            self._m_retrans.inc()
        if self.recorder is not None:
            self.recorder.event(
                rec.qid, "retransmit", bid=br.bid, attempt=br.attempts + 1)
        rec.stats.retransmissions += 1
        self.arm(br)

    def _deadline(self, qid: int) -> None:
        rec = self.records.get(qid)
        if rec is None or rec.terminal:
            return
        for br in rec.branches.values():
            if br.timer is not None:
                br.timer.cancel()
                br.timer = None
        self.counters.branches_discarded += len(rec.branches)
        rec.branches.clear()
        rec.outstanding = 0
        self._set_state(rec, TIMED_OUT)
        self.counters.timed_out += 1
        if self._m_deadline is not None:
            self._m_deadline.inc()
            self._m_queries.inc((TIMED_OUT,))
        if self.recorder is not None:
            self.recorder.event(rec.qid, "deadline", status=TIMED_OUT)
        self._finalize(rec)

    def _complete(self, rec: _Record) -> None:
        self._set_state(rec, COMPLETE)
        self.counters.completed += 1
        if self._m_queries is not None:
            self._m_queries.inc((COMPLETE,))
        self._finalize(rec)

    def _finalize(self, rec: _Record) -> None:
        if rec.deadline_timer is not None:
            rec.deadline_timer.cancel()
            rec.deadline_timer = None
        rec.stats.completed_at = self.transport.sim.now
        if self.recorder is not None:
            self.recorder.finish_query(rec.qid, status=rec.state)
        callbacks, rec.callbacks = rec.callbacks, []
        for fn in callbacks:
            fn(rec.future)
