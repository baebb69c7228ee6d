"""Periodic system-health time-series sampled on the simulation clock.

The paper's dynamic load balancing (§3.4) reacts to *observed* per-node
load, and honest perf work needs to see the system between query
completions — queue pressure, branches in flight, node churn.  The
:class:`HealthSampler` schedules itself on the simulator like any other
protocol timer and, each ``interval`` of simulated time, captures a
:class:`HealthSample`:

* ``event_queue_depth`` — pending events in the simulator calendar queue,
* ``in_flight_branches`` — open (unsettled) lifecycle branches across all
  tracked queries,
* ``live_nodes`` — ring members with ``alive=True`` (tracks churn),
* ``load_deciles`` — the 0/10/.../100th percentiles of per-node stored-entry
  load, a compact shape of the load distribution over time.

Samples are appended in memory and optionally mirrored into gauges of a
:class:`~repro.obs.registry.MetricsRegistry` (``health_*`` metrics), so the
same exporters serve both one-shot metrics and the time series.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

import numpy as np

__all__ = ["HealthSample", "HealthSampler"]

_DECILES = tuple(range(0, 101, 10))


@dataclass
class HealthSample:
    """One snapshot of system health at simulated ``time``."""

    time: float
    event_queue_depth: int = 0
    in_flight_branches: int = 0
    live_nodes: int = 0
    total_nodes: int = 0
    load_deciles: list[float] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class HealthSampler:
    """Samples system health every ``interval`` simulated seconds.

    ``engine``, ``ring`` and ``load_fn`` are all optional — missing sources
    simply leave their fields at zero/empty, so the sampler works on a bare
    simulator as well as a full platform.  ``probes`` is a mapping of extra
    named callables evaluated into :attr:`HealthSample.extra` each tick.

    The sampler survives churn: dead nodes drop out of ``live_nodes`` while
    ``total_nodes`` keeps counting ring membership, and an empty ring yields
    empty deciles rather than raising.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float = 1.0,
        *,
        engine: Any = None,
        ring: Any = None,
        load_fn: Callable[[], Any] | None = None,
        registry: Any = None,
        probes: dict[str, Callable[[], float]] | None = None,
        jsonl: Any = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval = float(interval)
        self.engine = engine
        self.ring = ring
        self.load_fn = load_fn
        self.registry = registry
        self.probes = dict(probes or {})
        self.samples: list[HealthSample] = []
        self._running = False
        self._until: float | None = None
        # Optional live JSONL stream: every sample is written and flushed as
        # one line, so `repro top`/`repro serve` can tail a running sim.
        self._jsonl_owned = jsonl is not None and not hasattr(jsonl, "write")
        self._jsonl = (
            open(jsonl, "w", encoding="utf-8") if self._jsonl_owned else jsonl
        )
        if registry is not None and registry.enabled:
            self._g_queue = registry.gauge(
                "health_event_queue_depth", "Pending simulator events at last sample")
            self._g_branches = registry.gauge(
                "health_in_flight_branches", "Open lifecycle branches at last sample")
            self._g_live = registry.gauge(
                "health_live_nodes", "Ring nodes with alive=True at last sample")
            self._g_decile = registry.gauge(
                "health_load_decile", "Per-node load decile at last sample", ("pct",))
            self._g_samples = registry.counter(
                "health_samples_total", "Health samples taken")
        else:
            self._g_queue = self._g_branches = self._g_live = None
            self._g_decile = self._g_samples = None

    # -- scheduling -------------------------------------------------------------

    def start(self, duration: float | None = None) -> HealthSampler:
        """Begin sampling; stops after ``duration`` simulated seconds if given.

        On a running sampler this only extends the horizon: to ``duration``
        from now if that is later, or without end if ``duration`` is None.
        """
        until = None if duration is None else self.sim.now + duration
        if self._running:
            if self._until is not None:
                self._until = None if until is None else max(self._until, until)
            return self
        self._running = True
        self._until = until
        self.sim.every(self.interval, self._tick)
        return self

    def stop(self) -> None:
        """Stop sampling; a queued tick becomes a no-op."""
        self._running = False

    def close(self) -> None:
        """Stop sampling and close an owned JSONL stream (idempotent)."""
        self.stop()
        if self._jsonl_owned and self._jsonl is not None:
            self._jsonl.close()
            self._jsonl = None
            self._jsonl_owned = False

    def _tick(self) -> bool:
        """One sampling round; the truthy return re-arms ``sim.every``."""
        if not self._running:
            return False
        if self._until is not None and self.sim.now > self._until:
            self._running = False
            return False
        self.sample()
        # Never keep the simulation alive on our own: if the sampler's own
        # timer was the last queued event, the system is idle — stop instead
        # of ticking forever (``sim.run()`` must still terminate).
        if self.sim.pending() == 0 and self._until is None:
            self._running = False
            return False
        return True

    # -- capture ----------------------------------------------------------------

    def _branches_in_flight(self) -> int:
        eng = self.engine
        if eng is None:
            return 0
        count = getattr(eng, "branches_in_flight", None)
        if callable(count):
            return count()
        return 0

    def sample(self) -> HealthSample:
        """Capture one snapshot immediately (also called by the timer)."""
        s = HealthSample(time=self.sim.now)
        s.event_queue_depth = self.sim.pending()
        s.in_flight_branches = self._branches_in_flight()
        if self.ring is not None:
            nodes = self.ring.nodes()
            s.total_nodes = len(nodes)
            s.live_nodes = sum(1 for n in nodes if getattr(n, "alive", True))
        if self.load_fn is not None:
            loads = np.asarray(self.load_fn(), dtype=float)
            if loads.size:
                s.load_deciles = [
                    float(v) for v in np.percentile(loads, _DECILES)]
        for name, probe in self.probes.items():
            s.extra[name] = float(probe())
        self.samples.append(s)
        self._mirror(s)
        if self._jsonl is not None:
            self._jsonl.write(json.dumps(s.to_dict()) + "\n")
            self._jsonl.flush()
        return s

    def _mirror(self, s: HealthSample) -> None:
        if self._g_queue is None:
            return
        self._g_queue.set(s.event_queue_depth)
        self._g_branches.set(s.in_flight_branches)
        self._g_live.set(s.live_nodes)
        for pct, v in zip(_DECILES, s.load_deciles):
            self._g_decile.set(v, (str(pct),))
        self._g_samples.inc()

    # -- output -----------------------------------------------------------------

    def to_dicts(self) -> list[dict[str, Any]]:
        return [s.to_dict() for s in self.samples]

    def series(self, field_: str) -> tuple[list[float], list[float]]:
        """``(times, values)`` for one scalar sample field (plot-friendly)."""
        times = [s.time for s in self.samples]
        vals = [float(getattr(s, field_)) for s in self.samples]
        return times, vals
