"""Metrics registry: labeled counters, gauges and histograms.

The simulation's telemetry used to be fragmented — :class:`TransportStats`
totals in the transport, :class:`QueryStats` in ``sim/stats.py``, ad-hoc
dataclasses in the lifecycle engine and the maintenance protocol.  This
module provides the one place all of it lands: a :class:`MetricsRegistry`
holding named, labeled instruments that every subsystem (transport,
lifecycle engine, query protocols, stabilisation, load balancer, health
sampler) writes into, and that the exporters in :mod:`repro.obs.export`
read back out.

Three instrument types, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (messages sent, bytes,
  retransmissions);
* :class:`Gauge` — point-in-time values that go up and down (per-node load,
  event-queue depth, live nodes);
* :class:`Histogram` — distributions with p50/p90/p99 estimation, either
  **fixed-bucket** (Prometheus-style cumulative buckets, percentiles by
  linear interpolation inside the bucket) or **reservoir** (bounded uniform
  sample with exact percentiles over the sample; deterministic — the
  reservoir RNG is seeded from the metric name).

Labels are positional: an instrument declares ``labelnames`` once and every
update passes a tuple of label *values* in the same order.  That keeps the
hot path to one dict lookup, no kwargs unpacking.

Disabled observability must cost nothing: :class:`NullRegistry` returns
shared no-op instruments from the same factory methods, so instrumented code
holds an instrument unconditionally and never branches.  Code on the hottest
paths (the transport's per-message counters) instead resolves instruments to
``None`` up front and guards with one ``is not None`` test — see
``Transport.__init__``.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect_left, insort
from collections.abc import Callable, Sequence
from typing import Any, TypeVar, cast

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_HOP_BUCKETS",
]

_I = TypeVar("_I", bound="_Instrument")

#: delivery-latency buckets in seconds (the King matrix RTTs live in the
#: tens-to-hundreds of milliseconds)
DEFAULT_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
#: overlay hop-count buckets (log n routing: single digits at bench scale)
DEFAULT_HOP_BUCKETS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class _Instrument:
    """Shared plumbing: name, help text, label names, per-labelset storage."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: label-value tuple -> instrument state (float or _HistState)
        self.values: dict[tuple[Any, ...], Any] = {}

    def _check(self, labels: tuple[Any, ...]) -> tuple[Any, ...]:
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {labels!r}"
            )
        return labels

    def samples(self) -> list[tuple[tuple[Any, ...], object]]:
        """All (label-values, value) pairs, sorted for stable export order."""
        return sorted(self.values.items(), key=lambda kv: kv[0])


class Counter(_Instrument):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def inc(self, labels: tuple[Any, ...] = (), amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up (got {amount})")
        key = self._check(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def add(self, amount: float, labels: tuple[Any, ...] = ()) -> None:
        """``inc`` with the amount first (reads better for byte totals)."""
        self.inc(labels, amount)

    def value(self, labels: tuple[Any, ...] = ()) -> float:
        return float(self.values.get(labels, 0.0))

    def total(self) -> float:
        """Sum over every labelset."""
        return float(sum(self.values.values()))


class Gauge(_Instrument):
    """A point-in-time value that can go up and down.

    Besides scalar samples a gauge can hold per-position vectors
    (:meth:`set_vector`): one float64 array per value of the leading labels,
    indexed by the last label, the position in decimal.  The labels are
    expanded only when :meth:`samples` is read, so recording a 10,000-node
    load vector costs one assignment, not 10,000 label tuples.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        #: leading label values -> read-only float64 vector (last label = index)
        self.vectors: dict[tuple[Any, ...], np.ndarray] = {}

    def set_vector(self, values: Any, prefix: tuple[Any, ...] = ()) -> None:
        """Replace the vector under the leading label values ``prefix``;
        position ``i`` exports as the labels ``prefix + (str(i),)``."""
        self._check(tuple(prefix) + ("",))
        vec = np.array(values, dtype=np.float64)
        vec.flags.writeable = False
        self.vectors[tuple(prefix)] = vec

    def samples(self) -> list[tuple[tuple[Any, ...], object]]:
        items = list(self.values.items())
        for prefix, vec in self.vectors.items():
            items.extend(zip([prefix + (str(i),) for i in range(len(vec))], vec.tolist()))
        return sorted(items, key=lambda kv: kv[0])

    def set(self, value: float, labels: tuple[Any, ...] = ()) -> None:
        self.values[self._check(labels)] = float(value)

    def inc(self, labels: tuple[Any, ...] = (), amount: float = 1.0) -> None:
        key = self._check(labels)
        self.values[key] = self.values.get(key, 0.0) + amount

    def dec(self, labels: tuple[Any, ...] = (), amount: float = 1.0) -> None:
        self.inc(labels, -amount)

    def value(self, labels: tuple[Any, ...] = ()) -> float:
        return float(self.values.get(labels, 0.0))


class _HistState:
    """Per-labelset histogram state: bucket counts + sum/count (+ reservoir)."""

    __slots__ = ("counts", "sum", "count", "sample", "_rng")

    def __init__(self, n_buckets: int, reservoir: int, seed: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 for the +inf bucket
        self.sum = 0.0
        self.count = 0
        # sorted bounded sample for exact-over-sample percentiles
        self.sample: list[float] | None = [] if reservoir else None
        self._rng = random.Random(seed) if reservoir else None


class Histogram(_Instrument):
    """A distribution with percentile estimation.

    ``buckets`` are the upper bounds of the cumulative fixed buckets (an
    implicit ``+inf`` bucket is appended).  ``reservoir > 0`` additionally
    keeps a uniform sample of that size per labelset; percentiles then come
    from the sample (exact over the sample) instead of bucket interpolation.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        reservoir: int = 0,
    ) -> None:
        super().__init__(name, help, labelnames)
        bs = tuple(sorted(float(b) for b in buckets))
        if not bs:
            raise ValueError(f"{self.name}: need at least one bucket bound")
        self.buckets = bs
        self.reservoir = int(reservoir)
        # the reservoir RNG is seeded from the metric name: deterministic
        # runs stay deterministic and no global random state is touched
        # (crc32, not hash() — string hashing is salted per process)
        self._seed = zlib.crc32(name.encode())

    def _state(self, labels: tuple[Any, ...]) -> _HistState:
        key = self._check(labels)
        st = self.values.get(key)
        if st is None:
            st = _HistState(len(self.buckets), self.reservoir, self._seed)
            self.values[key] = st
        return st

    def observe(self, value: float, labels: tuple[Any, ...] = ()) -> None:
        st = self._state(labels)
        st.counts[bisect_left(self.buckets, value)] += 1
        st.sum += value
        st.count += 1
        if st.sample is not None:
            if len(st.sample) < self.reservoir:
                insort(st.sample, value)
            else:
                # Vitter's algorithm R; evicting a uniformly random index of
                # the sorted sample is evicting a uniformly random element
                assert st._rng is not None  # reservoir implies a seeded rng
                j = st._rng.randrange(st.count)
                if j < self.reservoir:
                    del st.sample[j]
                    insort(st.sample, value)

    def observe_many(self, values: Any, labels: tuple[Any, ...] = ()) -> None:
        """Record a whole vector of observations at once.

        Bit-identical to looping :meth:`observe`: ``numpy.searchsorted``
        with ``side="left"`` lands each value in the same bucket as
        ``bisect_left``, and the bucket counts are order-independent.
        Reservoir histograms *are* order-dependent (algorithm R consumes
        one RNG draw per observation), so they take the loop path.
        """
        import numpy as np

        vals = np.asarray(values, dtype=np.float64)
        if vals.size == 0:
            return
        st = self._state(labels)
        if st.sample is not None:
            for v in vals:
                self.observe(float(v), labels)
            return
        idx = np.searchsorted(np.asarray(self.buckets), vals, side="left")
        hits = np.bincount(idx, minlength=len(self.buckets) + 1)
        for i, c in enumerate(hits):
            if c:
                st.counts[i] += int(c)
        st.sum += float(vals.sum())
        st.count += int(vals.size)

    def count(self, labels: tuple[Any, ...] = ()) -> int:
        st = self.values.get(labels)
        return st.count if st is not None else 0

    def sum(self, labels: tuple[Any, ...] = ()) -> float:
        st = self.values.get(labels)
        return st.sum if st is not None else 0.0

    def mean(self, labels: tuple[Any, ...] = ()) -> float:
        st = self.values.get(labels)
        return st.sum / st.count if st is not None and st.count else math.nan

    def percentile(self, q: float, labels: tuple[Any, ...] = ()) -> float:
        """The ``q``-quantile (``q`` in [0, 1]); NaN with no observations.

        Reservoir histograms interpolate over the kept sample; fixed-bucket
        histograms find the bucket containing the target rank and
        interpolate linearly inside it (the Prometheus ``histogram_quantile``
        estimate).  Values beyond the last finite bound clamp to it.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        st = self.values.get(labels)
        if st is None or st.count == 0:
            return math.nan
        if st.sample is not None and st.sample:
            s = st.sample
            pos = q * (len(s) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(s) - 1)
            return s[lo] + (s[hi] - s[lo]) * (pos - lo)
        target = q * st.count
        cum = 0
        for i, c in enumerate(st.counts):
            if c == 0:
                continue
            prev_cum = cum
            cum += c
            if cum >= target:
                if i >= len(self.buckets):  # +inf bucket: clamp
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                frac = (target - prev_cum) / c if c else 0.0
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.buckets[-1]

    def snapshot(self, labels: tuple[Any, ...] = ()) -> dict[str, float]:
        """count/sum/p50/p90/p99 of one labelset (the exporters' unit)."""
        return {
            "count": float(self.count(labels)),
            "sum": float(self.sum(labels)),
            "p50": self.percentile(0.50, labels),
            "p90": self.percentile(0.90, labels),
            "p99": self.percentile(0.99, labels),
        }


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace per registry.

    Re-requesting an existing name returns the existing instrument (the
    declared label names must match); that is what lets the transport, the
    protocols and the engine resolve their instruments independently while
    sharing one registry.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, _Instrument] = {}

    def _get_or_create(
        self,
        cls: type[_I],
        name: str,
        help: str,
        labelnames: Sequence[str],
        **kwargs: Any,
    ) -> _I:
        inst = self._metrics.get(name)
        if inst is not None:
            if not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
            if inst.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{inst.labelnames}, requested {tuple(labelnames)}"
                )
            return inst
        # Histogram grows the base signature (buckets/reservoir), so the
        # constructor is called through an untyped factory view of ``cls``
        factory = cast("Callable[..., _I]", cls)
        new = factory(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = new
        return new

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        reservoir: int = 0,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets, reservoir=reservoir
        )

    def get(self, name: str) -> _Instrument | None:
        return self._metrics.get(name)

    def collect(self) -> list[_Instrument]:
        """All instruments in registration order."""
        return list(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict[str, Any]]:
        """Flat sample records — the exporters' common input.

        One dict per (metric, labelset): counters and gauges carry
        ``value``; histograms carry ``count``/``sum``/``p50``/``p90``/``p99``.
        """
        out: list[dict[str, Any]] = []
        for inst in self.collect():
            for labels, value in inst.samples():
                rec: dict[str, Any] = {
                    "name": inst.name,
                    "type": inst.kind,
                    "help": inst.help,
                    "labels": dict(zip(inst.labelnames, labels)),
                }
                if isinstance(inst, Histogram):
                    rec.update(inst.snapshot(labels))
                else:
                    rec["value"] = float(cast(float, value))
                out.append(rec)
        return out


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    def inc(self, labels: tuple[Any, ...] = (), amount: float = 1.0) -> None:
        pass

    def add(self, amount: float, labels: tuple[Any, ...] = ()) -> None:
        pass

    def dec(self, labels: tuple[Any, ...] = (), amount: float = 1.0) -> None:
        pass

    def set(self, value: float, labels: tuple[Any, ...] = ()) -> None:
        pass

    def set_vector(self, values: Any, prefix: tuple[Any, ...] = ()) -> None:
        pass

    def observe(self, value: float, labels: tuple[Any, ...] = ()) -> None:
        pass

    def observe_many(self, values: Any, labels: tuple[Any, ...] = ()) -> None:
        pass

    def value(self, labels: tuple[Any, ...] = ()) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def count(self, labels: tuple[Any, ...] = ()) -> int:
        return 0

    def sum(self, labels: tuple[Any, ...] = ()) -> float:
        return 0.0

    def mean(self, labels: tuple[Any, ...] = ()) -> float:
        return math.nan

    def percentile(self, q: float, labels: tuple[Any, ...] = ()) -> float:
        return math.nan

    def snapshot(self, labels: tuple[Any, ...] = ()) -> dict[str, float]:
        return {}

    def samples(self) -> list[tuple[tuple[Any, ...], object]]:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry whose instruments are shared no-ops.

    Code that holds instruments unconditionally short-circuits through the
    null objects; code that checks ``registry.enabled`` (the per-message hot
    paths) skips resolution entirely and guards with ``is not None``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return cast(Counter, _NULL_INSTRUMENT)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return cast(Gauge, _NULL_INSTRUMENT)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        reservoir: int = 0,
    ) -> Histogram:
        return cast(Histogram, _NULL_INSTRUMENT)

    def snapshot(self) -> list[dict[str, Any]]:
        return []


#: shared disabled registry (instruments are stateless no-ops, safe to share)
NULL_REGISTRY = NullRegistry()
