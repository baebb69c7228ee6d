"""Unified observability: metrics registry, span tracing, health time-series.

One :class:`Observability` object bundles the three legs —

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`): labeled counters,
  gauges, histograms with p50/p90/p99;
* :class:`SpanRecorder` (:mod:`repro.obs.spans`): qid-correlated
  parent/child spans fanned out to memory/JSONL sinks;
* :class:`HealthSampler` (:mod:`repro.obs.health`): periodic system-health
  snapshots on the simulation clock —

and is what :class:`repro.core.platform.IndexPlatform` and the eval runner
accept as ``obs=``.  Pass ``obs=None`` (the default everywhere) and no
instrumentation code runs beyond an ``is not None`` test per call site; pass
``Observability()`` for metrics only; pass
``Observability(tracing=True)`` (optionally with ``trace_path=``) for full
span tracing.  See ``docs/observability.md`` for the metrics catalogue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

from .export import (
    export_metrics,
    format_metrics_rows,
    format_metrics_table,
    prometheus_text,
    prometheus_text_from_rows,
    read_metrics_jsonl,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from .flight import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    attached_recorders,
    format_bundle,
    load_bundle,
)
from .health import HealthSample, HealthSampler
from .ops import (
    ObsHTTPServer,
    read_health_jsonl,
    render_top,
    serve_files,
    serve_registry,
    sparkline,
    throughput_series,
)
from .load import (
    QUERY_HITS_GAUGE,
    STORED_ENTRIES_GAUGE,
    format_hotspot_report,
    gauge_vector,
    gini_coefficient,
    hotspot_report,
    load_summary,
    record_load_vector,
)
from .registry import (
    DEFAULT_HOP_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .sampling import TraceSampler, splitmix64, splitmix64_array
from .slo import (
    DEFAULT_SCALE_SLOS,
    SLO,
    SloReport,
    SloResult,
    burn_rate,
    evaluate_slo,
    evaluate_slos,
)
from .spans import (
    JsonlSpanSink,
    MemorySpanSink,
    Span,
    SpanRecorder,
    SpanSink,
    SpanTree,
    reconcile_with_stats,
)

__all__ = [
    "Observability",
    # registry
    "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    "Counter", "Gauge", "Histogram",
    "DEFAULT_LATENCY_BUCKETS", "DEFAULT_HOP_BUCKETS",
    # spans
    "Span", "SpanSink", "MemorySpanSink", "JsonlSpanSink",
    "SpanRecorder", "SpanTree", "reconcile_with_stats",
    # health
    "HealthSample", "HealthSampler",
    # load
    "STORED_ENTRIES_GAUGE", "QUERY_HITS_GAUGE",
    "record_load_vector", "gauge_vector",
    "gini_coefficient", "load_summary",
    "hotspot_report", "format_hotspot_report",
    # export
    "write_jsonl", "write_csv", "read_metrics_jsonl",
    "prometheus_text", "prometheus_text_from_rows", "write_prometheus",
    "export_metrics", "format_metrics_table", "format_metrics_rows",
    # sampling
    "TraceSampler", "splitmix64", "splitmix64_array",
    # flight recorder
    "FLIGHT_SCHEMA", "FlightRecorder", "attached_recorders",
    "load_bundle", "format_bundle",
    # slo
    "SLO", "SloResult", "SloReport", "burn_rate",
    "evaluate_slo", "evaluate_slos", "DEFAULT_SCALE_SLOS",
    # ops surface
    "read_health_jsonl", "throughput_series", "sparkline", "render_top",
    "ObsHTTPServer", "serve_registry", "serve_files",
]


class Observability:
    """The bundle a platform/runner threads through the stack.

    ``metrics=False`` swaps in the shared :data:`NULL_REGISTRY` so
    instrument calls are no-ops; ``tracing=True`` creates a
    :class:`SpanRecorder` with an in-memory sink (plus a JSONL sink when
    ``trace_path`` is given).  The object is a
    context manager; closing flushes open spans and closes file-backed
    sinks, so ``with Observability(...) as obs:`` can never leave a
    truncated trace file.
    """

    def __init__(
        self,
        metrics: bool = True,
        tracing: bool = False,
        trace_path: Any = None,
    ) -> None:
        self.registry: MetricsRegistry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.recorder: SpanRecorder | None = None
        self.span_memory: MemorySpanSink | None = None
        if tracing or trace_path is not None:
            self.recorder = SpanRecorder()
            self.span_memory = MemorySpanSink()
            self.recorder.add_sink(self.span_memory)
            if trace_path is not None:
                self.recorder.add_sink(JsonlSpanSink(trace_path))
        self.samplers: list[HealthSampler] = []
        self._closed = False

    @classmethod
    def disabled(cls) -> Observability:
        """Metrics off, tracing off — every instrument is a shared no-op."""
        return cls(metrics=False, tracing=False)

    @property
    def enabled(self) -> bool:
        return self.registry.enabled or self.recorder is not None

    def bind(self, sim: Simulator) -> Observability:
        """Point the span clock (and future samplers) at this simulator."""
        if self.recorder is not None:
            self.recorder.bind(sim)
        return self

    def health_sampler(
        self, sim: Simulator, interval: float = 1.0, **kwargs: Any
    ) -> HealthSampler:
        """Create (and remember) a sampler wired into this registry."""
        sampler = HealthSampler(
            sim, interval, registry=self.registry, **kwargs)
        self.samplers.append(sampler)
        return sampler

    # -- output ------------------------------------------------------------------

    def metrics_snapshot(self) -> list[dict[str, Any]]:
        return self.registry.snapshot()

    def spans_for(self, qid: int) -> list[Span]:
        return self.span_memory.for_query(qid) if self.span_memory else []

    def span_tree(self, qid: int) -> SpanTree:
        return SpanTree.from_records(
            self.span_memory.records if self.span_memory else [], qid=qid)

    # -- teardown ----------------------------------------------------------------

    def close(self) -> None:
        """Flush open spans, stop samplers, close file-backed sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for sampler in self.samplers:
            sampler.close()
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> Observability:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
