"""Unified message transport: delivery, faults and per-message accounting.

Every message-passing protocol in the library (query routing, Chord
stabilisation, the naive flooding baseline, SCRAP interval routing) delivers
through one :class:`Transport`.  The transport owns the four concerns the
protocols used to hand-roll separately:

1. **latency-model lookup** — one-way delay between the endpoints' hosts;
2. **destination-liveness checks** — a message arriving at a crashed node is
   dropped, once, in one place;
3. **dropped-message accounting** — global counters per drop reason, plus an
   optional per-message ``on_drop`` callback so protocols can attribute the
   loss to a query;
4. **delivery scheduling** — the only component that touches the simulator's
   event queue for network messages.

On top of that it provides what the per-protocol implementations never had:

* **fault injection** (:class:`FaultConfig`) — probabilistic message loss,
  extra exponential delay jitter, and network partitions by host set.  All
  draws come from one seeded generator, so a run with the same seed drops
  exactly the same messages (the simulator is deterministic, hence so is the
  message order the generator is consumed in);
* **one accounting core** (:class:`MessageAccounting`) — fault table, global
  counters, metrics instruments and the drop bookkeeping, inherited by this
  module's :class:`Transport` and by the live
  :class:`repro.net.transport.TcpTransport`, so "one message" costs and counts
  the same on both backends.

The transport keeps no per-message record: the ``send`` / ``drop`` / ``result``
spans of :mod:`repro.obs.spans` are the per-message trace (a ``drop`` span's
parent ``send`` span carries source, destination, kind, size and attempt).

The transport is also where §3.3 piggybacking looks: while a piggybacking
:class:`repro.dht.stabilize.StabilizationProtocol` runs on it,
:meth:`Transport.send` stamps the directed host link of every query- or
result-class message, so a control message rides on query traffic whichever
protocol sent it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Protocol as StructuralType

from repro.sim.engine import EventHandle, Simulator
from repro.util.rng import spawn_rngs

if TYPE_CHECKING:
    from repro.sim.network import LatencyModel


class Peer(StructuralType):
    """Structural endpoint type: anything with a node id and a host index
    (ring nodes, test doubles).  Liveness is probed via ``getattr(dst,
    "alive", True)`` so pure data endpoints stay valid peers."""

    id: int
    host: int

__all__ = [
    "FaultConfig",
    "TransportStats",
    "traffic_class",
    "TimerHandle",
    "MessageAccounting",
    "Transport",
]

#: the drop statuses ``on_drop`` callbacks and ``drop`` spans carry
DROPPED_DEAD = "dropped:dead"          # destination crashed before arrival
DROPPED_LOSS = "dropped:loss"          # probabilistic fault-injected loss
DROPPED_PARTITION = "dropped:partition"  # endpoints in different partitions


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection knobs of a :class:`Transport`.

    Attributes
    ----------
    loss_rate:
        Probability in ``[0, 1]`` that any remote message is lost in flight.
    jitter:
        Mean of an exponential extra delay (seconds) added to every remote
        delivery; 0 disables the draw entirely (keeps the random stream
        untouched, so enabling jitter does not perturb loss decisions).
    partitions:
        Collection of host-index sets.  Hosts in different sets — or a host
        in a set versus a host in none — cannot exchange messages.  Empty
        means no partition.
    seed:
        Seed of the generator behind loss and jitter draws; the same seed
        (with the same deterministic simulation) reproduces the same drops.
    """

    loss_rate: float = 0.0
    jitter: float = 0.0
    partitions: tuple[frozenset[int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if not self.jitter >= 0:  # NaN fails too
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        # normalise to hashable frozensets (allows lists/sets in user code)
        object.__setattr__(
            self, "partitions", tuple(frozenset(p) for p in self.partitions)
        )

    @property
    def active(self) -> bool:
        return bool(self.loss_rate or self.jitter or self.partitions)


def traffic_class(kind: str) -> str:
    """Classify a message kind into query/result/maintenance traffic.

    The paper's cost comparisons (Fig. 3/5) separate the bandwidth of
    answering queries from the background cost of keeping the overlay alive;
    the transport applies the same split to every byte it moves.
    """
    if kind == "result":
        return "result"
    if kind.startswith("maintenance"):
        return "maintenance"
    return "query"


@dataclass
class TransportStats:
    """Global message counters of one transport (all protocols combined).

    Bytes are broken down by traffic class (see :func:`traffic_class`);
    ``bytes`` remains as the grand total for existing callers.
    """

    sent: int = 0
    delivered: int = 0
    dropped_dead: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    query_bytes: int = 0
    result_bytes: int = 0
    maintenance_bytes: int = 0
    maintenance_messages: int = 0

    @property
    def bytes(self) -> int:
        return self.query_bytes + self.result_bytes + self.maintenance_bytes

    @property
    def dropped(self) -> int:
        return self.dropped_dead + self.dropped_loss + self.dropped_partition


#: Cancelable timers are engine-level events now: cancellation tombstones
#: the heap entry so the dispatch loop skips the callback entirely, instead
#: of firing a no-op.  The old name stays exported for existing callers.
TimerHandle = EventHandle


class MessageAccounting:
    """What "one message" counts as, on either backend.

    Owns the fault table, the global :class:`TransportStats`, the metrics
    instruments and the send-time partition-and-loss gate.  The simulator's
    :class:`Transport` and the live :class:`repro.net.transport.TcpTransport`
    inherit it and add only delivery; a subclass sets ``_loss_rng`` (anything
    with a ``random()`` method) before its first send.
    """

    _loss_rng: Any

    def __init__(self, faults: FaultConfig | None, metrics: Any) -> None:
        self.faults = faults if faults is not None else FaultConfig()
        self.stats = TransportStats()
        #: when set (to a list), every fault-injection draw is appended as a
        #: ``(kind, value)`` pair — ``("loss", u)`` per loss coin flip,
        #: ``("jitter", j)`` per jitter delay.  Deterministic replay compares
        #: the logs of two runs to prove the fault streams were consumed
        #: identically (see :mod:`repro.check.replay`).
        self.draw_log: list[tuple[str, float]] | None = None
        #: :func:`traffic_class` of every message kind sent so far
        self._class_of: dict[str, str] = {}
        self._partition_of: dict[int, int] = {}
        for gi, group in enumerate(self.faults.partitions):
            for host in group:
                self._partition_of[host] = gi
        # Instruments are resolved once and guarded with a single ``is not
        # None`` test per message — the per-message path is the hottest in
        # the simulator and must cost nothing when metrics are off (``None``
        # or a ``NullRegistry`` both count as off).
        if metrics is not None and getattr(metrics, "enabled", False):
            self._m_sent = metrics.counter(
                "transport_sent_total", "Messages sent", ("proto",))
            self._m_delivered = metrics.counter(
                "transport_delivered_total", "Messages delivered", ("proto",))
            self._m_dropped = metrics.counter(
                "transport_dropped_total", "Messages dropped",
                ("proto", "reason"))
            self._m_bytes = metrics.counter(
                "transport_bytes_total", "Payload bytes sent",
                ("proto", "class"))
            self._m_latency = metrics.histogram(
                "transport_delivery_latency_seconds",
                "Send-to-arrival delay of delivered messages")
        else:
            self._m_sent = self._m_delivered = None
            self._m_dropped = self._m_bytes = self._m_latency = None

    def partitioned(self, a_host: int, b_host: int) -> bool:
        """Whether a partition separates the two hosts."""
        if not self._partition_of:
            return False
        return self._partition_of.get(a_host, -1) != self._partition_of.get(b_host, -1)

    def _account_send(self, kind: str, size: int) -> None:
        stats = self.stats
        stats.sent += 1
        cls = self._class_of.get(kind)
        if cls is None:
            cls = self._class_of[kind] = traffic_class(kind)
        if cls == "query":
            stats.query_bytes += size
        elif cls == "result":
            stats.result_bytes += size
        else:
            stats.maintenance_bytes += size
            stats.maintenance_messages += 1
        if self._m_sent is not None:
            proto = kind.split(":", 1)[0]
            self._m_sent.inc((proto,))
            self._m_bytes.add(size, (proto, cls))

    def _account_delivery(self, kind: str, latency: float | None) -> None:
        """Count one delivery and, unless ``latency`` is ``None``, sample it."""
        self.stats.delivered += 1
        if self._m_delivered is not None:
            self._m_delivered.inc((kind.split(":", 1)[0],))
            if latency is not None:
                self._m_latency.observe(latency)

    def _drop(self, kind: str, status: str,
              on_drop: Callable[[str], None] | None) -> None:
        """Count one dropped message and hand ``status`` to ``on_drop``."""
        if status == DROPPED_DEAD:
            self.stats.dropped_dead += 1
        elif status == DROPPED_LOSS:
            self.stats.dropped_loss += 1
        else:
            self.stats.dropped_partition += 1
        if self._m_dropped is not None:
            self._m_dropped.inc((kind.split(":", 1)[0], status))
        if on_drop is not None:
            on_drop(status)

    def _faulted(self, src_host: int, dst_host: int, kind: str,
                 on_drop: Callable[[str], None] | None) -> bool:
        """The send-time gate: partition first, then one loss draw.  True
        when the message died (already counted and reported)."""
        # the table test first: no call on the faults-off hot path
        if self._partition_of and self.partitioned(src_host, dst_host):
            self._drop(kind, DROPPED_PARTITION, on_drop)
            return True
        if self.faults.loss_rate:
            u = float(self._loss_rng.random())
            if self.draw_log is not None:
                self.draw_log.append(("loss", u))
            if u < self.faults.loss_rate:
                self._drop(kind, DROPPED_LOSS, on_drop)
                return True
        return False


class Transport(MessageAccounting):
    """Message delivery between overlay nodes over the discrete-event engine.

    Endpoints are duck-typed node objects exposing ``id``, ``host`` and
    ``alive``.  ``latency`` may be ``None``, which makes all messages
    instantaneous (structural tests).

    The two delivery primitives:

    * :meth:`send` — asynchronous: schedules ``handler(*args)`` at the
      destination after the network delay, applying faults and the liveness
      check at arrival time;
    * :meth:`control` — synchronous RPC-hop accounting for the maintenance
      protocol (stabilisation models request/response pairs as instantaneous
      but countable and fault-droppable).

    ``timer``/``at`` schedule local (non-network) callbacks so protocol code
    never needs the simulator directly.
    """

    def __init__(
        self,
        sim: Simulator | None = None,
        latency: LatencyModel | None = None,
        faults: FaultConfig | None = None,
        metrics: Any = None,
    ) -> None:
        super().__init__(faults, metrics)
        self.sim = sim if sim is not None else Simulator()
        self.latency = latency
        # independent streams: toggling jitter must not re-order loss draws
        self._loss_rng, self._jitter_rng = spawn_rngs(self.faults.seed, 2)
        #: last send time of a query- or result-class message on each
        #: directed host link ``(src_host, dst_host)``; ``None`` (no stamping)
        #: until a piggybacking ``StabilizationProtocol`` runs on this transport
        self.query_links: dict[tuple[int, int], float] | None = None

    # -- scheduling helpers (local, non-network) -------------------------------

    def timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds (maintenance timers,
        workload arrivals — anything that is not a network message)."""
        self.sim.schedule_in(delay, fn, *args)

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulation time ``time``."""
        self.sim.schedule_at(time, fn, *args)

    def timer_cancelable(self, delay: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Like :meth:`timer`, returning a handle that can cancel the firing
        (retransmission timeouts, per-query deadlines).  Cancellation
        tombstones the queued event — the engine skips dispatch entirely."""
        return self.sim.schedule_cancelable_in(delay, fn, *args)

    def at_cancelable(self, time: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Like :meth:`at`, returning a cancelable :class:`TimerHandle`."""
        return self.sim.schedule_cancelable_at(time, fn, *args)

    def pending_timers(self) -> int:
        """Queued events that will still fire and are not messages in flight:
        the timers of started protocols, samplers and query arrivals.  A
        message left in flight by a settled query (a timed-out branch, a
        duplicate retransmission) is not counted."""
        return self.sim.pending_live(ignore=self._deliver)

    # -- delivery --------------------------------------------------------------

    def send(
        self,
        src: Peer,
        dst: Peer,
        handler: Callable[..., None],
        *args: Any,
        kind: str = "message",
        size: int = 0,
        on_drop: Callable[[str], None] | None = None,
    ) -> bool:
        """Deliver ``handler(*args)`` at ``dst`` after the network delay.

        Returns ``False`` when the message is dropped at send time (fault
        loss or partition); in-flight drops (destination crashed before
        arrival) surface through ``on_drop`` — called with the drop status
        string — and the drop counters.  A send to self is a local hand-off:
        immediate, never faulted, but still liveness-checked at delivery.
        """
        # _account_send, inlined: this is the one call every simulated
        # message makes, and a Python call costs about what the body does
        stats = self.stats
        stats.sent += 1
        cls = self._class_of.get(kind)
        if cls is None:
            cls = self._class_of[kind] = traffic_class(kind)
        if cls == "query":
            stats.query_bytes += size
        elif cls == "result":
            stats.result_bytes += size
        else:
            stats.maintenance_bytes += size
            stats.maintenance_messages += 1
        if self._m_sent is not None:
            proto = kind.split(":", 1)[0]
            self._m_sent.inc((proto,))
            self._m_bytes.add(size, (proto, cls))
        sim = self.sim
        now = due = sim.now
        if src is not dst:
            faults = self.faults
            src_host = src.host
            dst_host = dst.host
            # the §3.3 stamp, before the fault gate: a lost message was still sent
            links = self.query_links
            if links is not None and cls != "maintenance":
                links[(src_host, dst_host)] = now
            # gate only when a fault is configured: partition, then one loss draw
            if (self._partition_of or faults.loss_rate) and self._faulted(
                    src_host, dst_host, kind, on_drop):
                return False
            latency = self.latency
            delay = latency.latency(src_host, dst_host) if latency is not None else 0.0
            if faults.jitter:
                j = float(self._jitter_rng.exponential(faults.jitter))
                if self.draw_log is not None:
                    self.draw_log.append(("jitter", j))
                delay += j
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            due = now + delay
        sim.schedule_at(due, self._deliver, dst, handler, args, kind, now, on_drop)
        return True

    def _deliver(self, dst: Peer, handler: Callable[..., None],
                 args: tuple[Any, ...], kind: str, sent_at: float,
                 on_drop: Callable[[str], None] | None) -> None:
        if not getattr(dst, "alive", True):
            self._drop(kind, DROPPED_DEAD, on_drop)
            return
        self.stats.delivered += 1
        if self._m_delivered is not None:
            self._m_delivered.inc((kind.split(":", 1)[0],))
            self._m_latency.observe(self.sim.now - sent_at)
        handler(*args)

    def control(self, src: Peer, dst: Peer, kind: str = "maintenance",
                size: int = 0) -> bool:
        """Account one synchronous control-message hop; True when delivered.

        Stabilisation models its request/response pairs as instantaneous
        (their latencies are negligible against the maintenance intervals);
        the transport still applies partitions and probabilistic loss so the
        maintenance loop degrades under the same faults queries do.
        """
        self._account_send(kind, size)
        if src is not dst:
            if self._faulted(src.host, dst.host, kind, None):
                return False
            if not getattr(dst, "alive", True):
                self._drop(kind, DROPPED_DEAD, None)
                return False
        self._account_delivery(kind, 0.0)
        return True

