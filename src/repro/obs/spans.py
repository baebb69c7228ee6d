"""Qid-correlated span tracing: one stream for a query's whole execution.

Spans are the only per-message record of a run — the transport keeps
counters, the lifecycle engine branch totals, and neither says anything about
the routing tree between them.  A :class:`SpanRecorder` does: every
subsystem emits :class:`Span` records carrying the query id, a span id and a
*parent* span id into one fan-out, so the full embedded-tree execution of a
query — issue, message sends, retransmissions, drops, routing splits,
surrogate refinements, local solves, result arrivals, completion — is
reconstructable from a single stream (:class:`SpanTree`).

Parent propagation uses the fact that the simulator is single-threaded: the
recorder keeps a *current-span stack*.  A protocol pushes the span of the
message being processed before invoking the handler; any span emitted inside
(a routing step, a nested send) picks the stack top as its parent; the stack
is popped in a ``finally``.  Across the asynchronous send/deliver boundary
the parent id rides along as an explicit message argument (see
``QueryProtocol._tracked_send``).

Two sinks: :class:`MemorySpanSink` for tests and notebooks,
:class:`JsonlSpanSink` streaming one JSON object per span.
All file-backed sinks are context managers and flush on close, so a crashed
run cannot leave a truncated trace file behind (use ``with`` or
``try/finally``).
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Self

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = [
    "Span",
    "SpanSink",
    "MemorySpanSink",
    "JsonlSpanSink",
    "SpanRecorder",
    "SpanTree",
    "reconcile_with_stats",
]


@dataclass
class Span:
    """One unit of a query's execution.

    ``sid`` is unique per recorder; ``parent`` is the sid of the enclosing
    span (``None`` for the per-query root).  Event-like spans have
    ``end == start``; interval spans (the root ``query`` span, spans still
    open when a run is flushed) may have ``end`` of ``None`` until finished.
    """

    sid: int
    qid: int | None
    kind: str
    parent: int | None = None
    node: int | None = None
    start: float = 0.0
    end: float | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class SpanSink:
    """Receives each :class:`Span` once, when the recorder emits it."""

    def record(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemorySpanSink(SpanSink):
    """Keeps spans in a list, with the filters tests and the CLI want."""

    def __init__(self) -> None:
        self.records: list[Span] = []

    def record(self, span: Span) -> None:
        self.records.append(span)

    def __len__(self) -> int:
        return len(self.records)

    def for_query(self, qid: int) -> list[Span]:
        return [s for s in self.records if s.qid == qid]

    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.records if s.kind == kind]

    def qids(self) -> set[int]:
        return {s.qid for s in self.records if s.qid is not None}


class JsonlSpanSink(SpanSink):
    """Streams spans as JSON lines to a path or file-like object.

    A context manager; :meth:`close` flushes before closing and is safe to
    call twice, so ``with JsonlSpanSink(path) as sink: ...`` guarantees a
    complete file even when the body raises.
    """

    def __init__(self, target: Any) -> None:
        if hasattr(target, "write"):
            self._fh = target
            self._owns = False
        else:
            self._fh = open(target, "w")
            self._owns = True
        self._closed = False

    def record(self, span: Span) -> None:
        self._fh.write(json.dumps(span.to_dict()) + "\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        if self._owns:
            self._fh.close()


class SpanRecorder:
    """Allocates span ids, tracks the current-span stack, fans out to sinks.

    One recorder serves any number of concurrent queries (spans are
    qid-tagged); bind it to a simulator with :meth:`bind` so spans get
    simulation timestamps.  Event spans (:meth:`event`) are emitted
    immediately; interval spans (:meth:`begin`/:meth:`finish`) are emitted at
    finish time, and :meth:`flush_open` emits whatever is still open (with
    ``end=None``) so an aborted run still leaves a readable stream.
    """

    def __init__(self, *sinks: SpanSink) -> None:
        self.sinks: list[SpanSink] = list(sinks)
        self._sim = None
        self._next_sid = 0
        self._stack: list[int] = []
        #: open per-query root spans, finished by the lifecycle engine
        self._query_roots: dict[int, Span] = {}
        #: other open interval spans
        self._open: dict[int, Span] = {}

    # -- wiring ----------------------------------------------------------------

    def bind(self, sim: Simulator) -> None:
        """Timestamp spans from this simulator's clock from now on."""
        self._sim = sim

    def add_sink(self, sink: SpanSink) -> None:
        self.sinks.append(sink)

    def now(self) -> float:
        return self._sim.now if self._sim is not None else 0.0

    # -- current-span stack -----------------------------------------------------

    def push(self, sid: int) -> None:
        self._stack.append(sid)

    def pop(self) -> None:
        self._stack.pop()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def context(self, qid: int | None) -> int | None:
        """The parent for a new span: the stack top, else the query root."""
        if self._stack:
            return self._stack[-1]
        root = self._query_roots.get(qid)
        return root.sid if root is not None else None

    # -- emission ---------------------------------------------------------------

    def _alloc(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def _emit(self, span: Span) -> None:
        for sink in self.sinks:
            sink.record(span)

    def event(
        self,
        qid: int | None,
        kind: str,
        parent: int | None = None,
        node: int | None = None,
        status: str = "ok",
        **attrs: Any,
    ) -> int:
        """Emit an instantaneous span; returns its sid (usable as a parent)."""
        t = self.now()
        span = Span(
            sid=self._alloc(), qid=qid, kind=kind,
            parent=parent if parent is not None else self.context(qid),
            node=node, start=t, end=t, status=status, attrs=attrs,
        )
        self._emit(span)
        return span.sid

    def begin(
        self,
        qid: int | None,
        kind: str,
        parent: int | None = None,
        node: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Open an interval span (emitted when finished or flushed)."""
        span = Span(
            sid=self._alloc(), qid=qid, kind=kind,
            parent=parent if parent is not None else self.context(qid),
            node=node, start=self.now(), attrs=attrs,
        )
        self._open[span.sid] = span
        return span

    def finish(self, span: Span, status: str = "ok") -> None:
        if self._open.pop(span.sid, None) is None:
            return  # already finished or flushed
        span.end = self.now()
        span.status = status
        self._emit(span)

    # -- per-query roots ----------------------------------------------------------

    def begin_query(self, qid: int, **attrs: Any) -> Span:
        """Open the root span of ``qid`` (idempotent; returns the root)."""
        root = self._query_roots.get(qid)
        if root is None:
            root = Span(
                sid=self._alloc(), qid=qid, kind="query",
                parent=None, start=self.now(), attrs=attrs,
            )
            self._query_roots[qid] = root
        return root

    def root_sid(self, qid: int) -> int | None:
        root = self._query_roots.get(qid)
        return root.sid if root is not None else None

    def finish_query(self, qid: int, status: str = "complete") -> None:
        root = self._query_roots.pop(qid, None)
        if root is None:
            return
        root.end = self.now()
        root.status = status
        self._emit(root)

    # -- teardown -----------------------------------------------------------------

    def flush_open(self) -> None:
        """Emit every still-open span with ``end=None`` (aborted runs)."""
        for span in list(self._query_roots.values()):
            self._emit(span)
        self._query_roots.clear()
        for span in list(self._open.values()):
            self._emit(span)
        self._open.clear()

    def close(self) -> None:
        self.flush_open()
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class SpanTree:
    """Parent/child reconstruction of one query's spans, with ASCII render."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = sorted(spans, key=lambda s: (s.start, s.sid))
        self.by_sid = {s.sid: s for s in self.spans}
        self.children: dict[int | None, list[Span]] = {}
        for s in self.spans:
            parent = s.parent if s.parent in self.by_sid else None
            self.children.setdefault(parent, []).append(s)

    @classmethod
    def from_records(
        cls, records: Iterable[Span | dict[str, Any]], qid: int | None = None
    ) -> SpanTree:
        """Build from Span objects or JSONL dicts; later duplicate sids win
        (an interval span flushed open and later finished)."""
        merged: dict[int, Span] = {}
        for r in records:
            span = r if isinstance(r, Span) else Span(**r)
            if qid is not None and span.qid != qid:
                continue
            merged[span.sid] = span
        return cls(list(merged.values()))

    @classmethod
    def from_jsonl(cls, path: str, qid: int | None = None) -> SpanTree:
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        return cls.from_records(records, qid=qid)

    def roots(self) -> list[Span]:
        return self.children.get(None, [])

    def of_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def leaves(self) -> list[Span]:
        return [s for s in self.spans if s.sid not in self.children]

    def __len__(self) -> int:
        return len(self.spans)

    def _label(self, s: Span) -> str:
        bits = [s.kind]
        if s.node is not None:
            bits.append(f"@{s.node}")
        a = s.attrs or {}
        if "msg_kind" in a:
            bits.append(str(a["msg_kind"]))
        if "hops" in a:
            bits.append(f"h={a['hops']}")
        if "attempt" in a and a["attempt"] != 1:
            bits.append(f"try{a['attempt']}")
        if "size" in a and a["size"]:
            bits.append(f"{a['size']}B")
        if "results" in a:
            bits.append(f"{a['results']} results")
        if s.status not in ("ok", "complete"):
            bits.append(f"[{s.status}]")
        dur = s.duration
        if dur:
            bits.append(f"({dur * 1000:.1f}ms)")
        return f"t={s.start:8.3f} " + " ".join(bits)

    def render(self, max_spans: int = 400) -> str:
        """Indented ASCII tree (the ``repro trace <qid>`` output)."""
        lines: list[str] = []

        def walk(span: Span, prefix: str, last: bool) -> None:
            if len(lines) >= max_spans:
                return
            branch = "`-- " if last else "|-- "
            lines.append(prefix + branch + self._label(span))
            kids = self.children.get(span.sid, [])
            ext = "    " if last else "|   "
            for i, kid in enumerate(kids):
                walk(kid, prefix + ext, i == len(kids) - 1)

        roots = self.roots()
        for i, root in enumerate(roots):
            if len(lines) >= max_spans:
                break
            lines.append(self._label(root))
            kids = self.children.get(root.sid, [])
            for j, kid in enumerate(kids):
                walk(kid, "", j == len(kids) - 1)
        total = len(self.spans)
        if total > len(lines):
            lines.append(f"... {total - len(lines)} more span(s)")
        return "\n".join(lines)


def reconcile_with_stats(spans: list[Span], qstats: Any) -> list[str]:
    """Cross-check one query's span stream against its stats counters.

    The span tree and :class:`repro.sim.stats.QueryStats` are filled by
    independent code paths, so agreement between them is evidence neither
    lost an event.  The correspondences checked:

    * ``send`` spans with ``charged=True`` — one per transmission attempt
      that billed the query's message counter — must equal ``query_messages``;
    * ``result`` spans (local and remote arrivals) must equal
      ``result_messages``;
    * ``drop`` spans must equal ``dropped_messages``;
    * ``send`` spans with ``attempt > 1`` must equal ``retransmissions``.

    Returns a list of human-readable discrepancies (empty = reconciled).
    Used by :class:`repro.check.invariants.InvariantChecker`.
    """
    sends = sum(1 for s in spans if s.kind == "send" and s.attrs.get("charged"))
    results = sum(1 for s in spans if s.kind == "result")
    drops = sum(1 for s in spans if s.kind == "drop")
    retries = sum(
        1 for s in spans if s.kind == "send" and s.attrs.get("attempt", 1) > 1
    )
    problems: list[str] = []
    if sends != qstats.query_messages:
        problems.append(
            f"{sends} charged send spans vs query_messages={qstats.query_messages}"
        )
    if results != qstats.result_messages:
        problems.append(
            f"{results} result spans vs result_messages={qstats.result_messages}"
        )
    if drops != qstats.dropped_messages:
        problems.append(
            f"{drops} drop spans vs dropped_messages={qstats.dropped_messages}"
        )
    if retries != qstats.retransmissions:
        problems.append(
            f"{retries} retry send spans vs retransmissions={qstats.retransmissions}"
        )
    return problems
