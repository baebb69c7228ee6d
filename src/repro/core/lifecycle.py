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
* **Retransmission** — the branch carries its message: :meth:`arm` stores
  the protocol's bound ``send`` and the message tuple it built once, and an
  RTO timer (exponential backoff, :class:`RetryPolicy`) repeats
  ``send(msg, bid, attempt)`` until the branch settles or retries are
  exhausted.  The simulator's deterministic drop notifications double as
  fast-path NACKs.  Because a jittered original and its retransmission can
  both arrive, branch ids are idempotent: the receiver accepts each branch
  once and suppresses duplicates, and result entries are deduplicated by
  object id at merge time.
* **Futures** — :meth:`register` returns a :class:`QueryFuture` with the
  terminal state, merged results and completion callbacks, which is what
  lets ``knn_search`` ride completion on a live simulator and the eval
  runner pipeline whole query batches.

The engine is deliberately protocol-agnostic: `QueryProtocol`,
`NaiveProtocol` and `SfcRangeProtocol` all report the same three events
(open / accept / settle) through the hooks in
:class:`repro.core.routing.QueryProtocol._tracked_send`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
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
    """One outstanding unit of work of a query."""

    __slots__ = ("bid", "attempts", "timer", "send", "msg")

    def __init__(self, bid: int) -> None:
        self.bid = bid
        self.attempts = 0
        self.timer = None  # TimerHandle of the pending RTO, if any
        #: ``send(msg, bid, attempt)``; both ``None`` on a query's root branch
        self.send: Callable[[Any, int, int], None] | None = None
        self.msg: Any = None


class _Record:
    """Per-query lifecycle state."""

    __slots__ = (
        "qid", "state", "outstanding", "branches", "seen", "next_bid",
        "stats", "deadline_timer", "callbacks", "future",
    )

    def __init__(self, qid: int, stats: QueryStats) -> None:
        self.qid = qid
        self.state = ISSUED
        self.outstanding = 0
        self.branches: dict[int, _Branch] = {}
        self.seen: set[int] = set()   # branch ids accepted at a receiver
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

    def open(self, qid: int) -> int | None:
        """Open a branch; returns its id (None for unknown/finished qids)."""
        rec = self.records.get(qid)
        if rec is None or rec.state in TERMINAL_STATES:
            return None
        bid = rec.next_bid
        rec.next_bid += 1
        rec.branches[bid] = _Branch(bid)
        rec.outstanding += 1
        self.counters.branches_opened += 1
        if self._m_opened is not None:
            self._m_opened.inc()
        if rec.state == ISSUED:
            self._set_state(rec, ROUTING)
        return bid

    def arm(self, qid: int, bid: int,
            send: Callable[[Any, int, int], None], msg: Any) -> None:
        """Hand a message branch its message and transmit attempt 1.

        ``send(msg, bid, attempt)`` must perform the actual transport send;
        a retransmission calls it again with the same ``msg`` and ``bid`` and
        the incremented attempt number.
        """
        rec = self.records.get(qid)
        if rec is None or rec.state in TERMINAL_STATES:
            return
        br = rec.branches.get(bid)
        if br is None:
            return
        br.send = send
        br.msg = msg
        self._transmit(rec, br)

    def accept(self, qid: int, bid: int) -> bool:
        """Receiver-side idempotence check: process each branch only once.

        Returns False for duplicates (a retransmission racing its jittered
        original) and for stragglers of already-terminal queries.
        """
        rec = self.records.get(qid)
        if rec is None:
            return True  # not this engine's query: nothing to suppress
        if rec.state in TERMINAL_STATES:
            return False
        if bid in rec.seen:
            self.counters.duplicates_suppressed += 1
            if self._m_dups is not None:
                self._m_dups.inc()
            rec.stats.duplicate_messages += 1
            return False
        rec.seen.add(bid)
        return True

    def settle(self, qid: int, bid: int | None, failed: bool = False) -> None:
        """Close a branch; the query completes when none remain outstanding."""
        if bid is None:
            return
        rec = self.records.get(qid)
        if rec is None or rec.state in TERMINAL_STATES:
            return
        br = rec.branches.pop(bid, None)
        if br is None:
            return  # already settled (e.g. duplicate delivery)
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

    def notify_drop(self, qid: int, bid: int | None) -> None:
        """Transport drop notification: retry after backoff or fail the branch."""
        if bid is None:
            return
        rec = self.records.get(qid)
        if rec is None or rec.terminal:
            return
        br = rec.branches.get(bid)
        if br is None:
            return
        if br.timer is not None:
            br.timer.cancel()
            br.timer = None
        if br.send is None or br.attempts > self.policy.max_retries:
            self.settle(qid, bid, failed=True)
            return
        delay = self.policy.rto * self.policy.backoff ** (br.attempts - 1)
        br.timer = self.transport.timer_cancelable(delay, self._retransmit, qid, bid)

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

    def _transmit(self, rec: _Record, br: _Branch) -> None:
        attempt = br.attempts = br.attempts + 1
        if attempt > 1:
            self.counters.retransmissions += 1
            if self._m_retrans is not None:
                self._m_retrans.inc()
            if self.recorder is not None:
                self.recorder.event(
                    rec.qid, "retransmit", bid=br.bid, attempt=attempt)
            rec.stats.retransmissions += 1
        br.send(br.msg, br.bid, attempt)
        policy = self.policy
        if attempt > policy.max_retries:
            return  # no retry left: no RTO to arm
        # The branch may have settled synchronously (self-delivery at zero
        # delay) or been dropped at send time (loss/partition -> notify_drop
        # already rescheduled or failed it); only arm an RTO when it is
        # still plainly in flight.
        if (rec.branches.get(br.bid) is not br or br.timer is not None
                or rec.state in TERMINAL_STATES):
            return
        br.timer = self.transport.timer_cancelable(
            policy.rto * policy.backoff ** (attempt - 1),
            self._retransmit, rec.qid, br.bid,
        )

    def _retransmit(self, qid: int, bid: int) -> None:
        """An RTO or a drop back-off ran out: send the branch again."""
        rec = self.records.get(qid)
        if rec is None or rec.terminal:
            return
        br = rec.branches.get(bid)
        if br is None:
            return
        br.timer = None
        self._transmit(rec, br)

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
