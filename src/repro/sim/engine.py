"""Discrete event engine — the core of the p2psim substitute.

The event queue is a flat array organised as a binary heap (via the
:mod:`heapq` C sift routines): entries are ``(time, seq, fn, args)`` tuples;
``seq`` is a monotonically increasing tiebreaker so simultaneous events run
in schedule order and runs are exactly reproducible.  Time is a float in
seconds (the paper's latencies are milliseconds; the King matrix is stored
in seconds).

**Cancellation tombstones.**  Heap entries cannot be removed from the
middle, and lifecycle timers (per-query deadlines, retransmission timeouts)
are cancelled far more often than they fire — every settled branch kills
one.  Cancelable events therefore carry a mutable two-slot *cell*
``[fn, args]`` in place of a direct callback; :meth:`EventHandle.cancel`
nulls the cell, turning the queued entry into a tombstone.  The dispatch
loop still pops tombstones, still counts them in :attr:`events_processed`
and still folds their ``(time, seq)`` pair into the schedule digest — the
exact accounting of the previous engine, where a cancelled timer fired as a
no-op — but skips the Python callback dispatch entirely, which is where the
per-event cost lives.

**Tombstone compaction.**  Long-deadline timers cancelled early (the retry
pattern: arm a 30 s deadline, settle in milliseconds) would otherwise sit in
the heap until their distant due time, bloating every sift and getting
popped one by one.  When cancelled entries outnumber live ones the engine
filters them out of the heap in one O(n) pass and re-heapifies — classic
lazy deletion with amortised O(1) cost per cancel.  Compaction is
**disabled while** :attr:`Simulator.digest_enabled` **is on**: replay
fingerprints count tombstone pops, so digesting runs keep the exact
pop-and-count accounting above (and tests asserting counters do too —
compaction also needs the queue to exceed a minimum size).
"""

from __future__ import annotations

import heapq
import itertools
import struct
import zlib
from collections.abc import Callable
from typing import Any

__all__ = ["Simulator", "EventHandle"]

#: sentinel in the ``fn`` slot marking a cancelable entry whose real
#: callback lives in the ``args`` slot as an ``[fn, args]`` cell.
_CANCELABLE = None


def _live_entries(queue: list[Any]) -> list[Any]:
    """The queued entries that will still fire: every direct entry, and each
    cancelable one whose cell :meth:`EventHandle.cancel` has not nulled."""
    return [e for e in queue if e[2] is not None or e[3][0] is not None]


class EventHandle:
    """Handle of a cancelable scheduled event.

    ``active`` is True until the event either fires or is cancelled;
    :meth:`cancel` is idempotent and amortised O(1) — it tombstones the
    queued heap entry in place, and lets the owning simulator compact the
    heap when tombstones pile up.
    """

    __slots__ = ("_cell", "_sim")

    def __init__(self, cell: list[Any], sim: Simulator | None = None) -> None:
        self._cell = cell
        self._sim = sim

    @property
    def active(self) -> bool:
        return self._cell[0] is not None

    def cancel(self) -> None:
        if self._cell[0] is None:
            return
        self._cell[0] = None
        self._cell[1] = ()
        if self._sim is not None:
            self._sim._note_cancel()


class Simulator:
    """A minimal deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule_in(1.5, fired.append, "a")
    >>> sim.schedule_in(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    #: compaction never runs on queues smaller than this, so unit tests
    #: asserting ``pending()`` around a handful of cancels see the plain
    #: tombstone accounting
    COMPACT_MIN_QUEUE = 64

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[..., Any] | None, Any]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self.events_processed: int = 0
        #: tombstoned (cancelled) events popped without dispatch — the work
        #: the cancelable-event path avoids; purely informational.
        self.tombstones_skipped: int = 0
        #: cancelled-but-still-queued entries; drives compaction.
        self._cancelled_pending: int = 0
        #: when True, every executed event folds its ``(time, seq)`` pair
        #: into a CRC32 running digest — a cheap fingerprint of the exact
        #: event schedule, used by deterministic replay to prove two runs
        #: executed bit-identically (see :mod:`repro.check.replay`).
        #: Tombstones fold too: cancellation may not perturb the digest.
        self.digest_enabled: bool = False
        self._digest: int = 0
        #: set by :meth:`stop`; the innermost :meth:`run` returns on seeing it
        self._stopping: bool = False

    @property
    def schedule_digest(self) -> int:
        """CRC32 over every executed ``(time, seq)`` pair (0 until enabled)."""
        return self._digest

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        heapq.heappush(self._queue, (time, next(self._seq), fn, args))

    def schedule_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, *args)

    def every(self, interval: float, fn: Callable[[], bool]) -> None:
        """Periodic hook: call ``fn()`` every ``interval`` seconds for as
        long as it returns truthy.

        This is the sanctioned way for cross-cutting observers (invariant
        checkers, health samplers) to ride the event queue without owning
        it: the re-arm pattern lives here, in the scheduler layer, instead
        of being re-implemented around raw :meth:`schedule_in` calls in
        protocol-adjacent code (which the ARCH202 lint rule rejects).
        Scheduling is plain :meth:`schedule_in` under the hood, so the
        ``(time, seq)`` stream — and with it the replay digest — is
        identical to the hand-rolled loop it replaces.
        """
        def tick() -> None:
            if fn():
                self.schedule_in(interval, tick)

        self.schedule_in(interval, tick)

    def schedule_cancelable_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Like :meth:`schedule_at`, returning a cancelable :class:`EventHandle`."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        cell = [fn, args]
        heapq.heappush(self._queue, (time, next(self._seq), _CANCELABLE, cell))
        return EventHandle(cell, self)

    def schedule_cancelable_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Like :meth:`schedule_in`, returning a cancelable :class:`EventHandle`."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_cancelable_at(self.now + delay, fn, *args)

    def pending(self) -> int:
        """Number of events still queued (tombstones included)."""
        return len(self._queue)

    def pending_live(self, ignore: Callable[..., Any] | None = None) -> int:
        """Number of queued events that will still fire (tombstones
        excluded), leaving out those whose callback equals ``ignore``."""
        live = _live_entries(self._queue)
        if ignore is None:
            return len(live)
        return sum(1 for e in live if (e[2] if e[2] is not None else e[3][0]) != ignore)

    def stop(self) -> None:
        """Make the innermost :meth:`run` return once the event in progress
        has finished (``asyncio``'s ``loop.stop()``); the rest stays queued.
        A call outside any run is forgotten when the next one starts."""
        self._stopping = True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, advancing :attr:`now`.

        ``until`` stops before any event later than the given time (that
        event stays queued); :meth:`stop`, called from an event, ends the run
        after that event.  ``max_events`` caps the number of events popped:
        the tests' runaway-protocol guard, which nothing in ``src/`` passes.
        Tombstones count toward both the cap and :attr:`events_processed` so
        replay under a cap truncates at exactly the same point as the recording.
        """
        queue = self._queue
        pop = heapq.heappop
        crc32 = zlib.crc32
        pack = struct.pack
        executed = 0
        self._stopping = False
        while queue:
            if max_events is not None and executed >= max_events:
                break
            entry = queue[0]
            time = entry[0]
            if until is not None and time > until:
                break
            pop(queue)
            self.now = time
            if self.digest_enabled:
                self._digest = crc32(pack("<dq", time, entry[1]), self._digest)
            fn = entry[2]
            if fn is not None:
                fn(*entry[3])
            else:
                cell = entry[3]
                cfn = cell[0]
                if cfn is not None:
                    # deactivate before dispatch, matching the one-shot
                    # semantics of the old TimerHandle._fire
                    cargs = cell[1]
                    cell[0] = None
                    cell[1] = ()
                    cfn(*cargs)
                else:
                    self.tombstones_skipped += 1
                    if self._cancelled_pending:
                        self._cancelled_pending -= 1
            self.events_processed += 1
            executed += 1
            if self._stopping:
                self._stopping = False
                break
        if until is not None and (not queue or queue[0][0] > until):
            self.now = max(self.now, until)

    def _note_cancel(self) -> None:
        """Bump the tombstone count; compact the heap when they dominate.

        Compaction filters cancelled entries out **in place** (``run`` holds
        a local reference to the queue list, so rebinding would split the
        schedule) and re-heapifies — O(n), amortised O(1) per cancel because
        it only triggers when tombstones outnumber live entries.  Skipped
        entirely while :attr:`digest_enabled` (replay digests count tombstone
        pops) and below :attr:`COMPACT_MIN_QUEUE` (tests assert ``pending()``
        around small schedules).
        """
        self._cancelled_pending += 1
        if (
            not self.digest_enabled
            and len(self._queue) >= self.COMPACT_MIN_QUEUE
            and self._cancelled_pending * 2 > len(self._queue)
        ):
            self._queue[:] = _live_entries(self._queue)
            heapq.heapify(self._queue)
            self._cancelled_pending = 0

    def reset(self) -> None:
        """Clear all pending events and rewind the clock."""
        self._queue.clear()
        self.now = 0.0
        self.events_processed = 0
        self.tombstones_skipped = 0
        self._cancelled_pending = 0
        self._digest = 0
