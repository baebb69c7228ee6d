"""Metrics registry: instruments, percentile math, null objects, exporters."""

import io
import math

import numpy as np
import pytest

from repro.obs.export import (
    format_metrics_rows,
    format_metrics_table,
    prometheus_text,
    read_metrics_jsonl,
    write_csv,
    write_jsonl,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.sim.stats import StatsCollector


class TestCounterGauge:
    def test_counter_inc_and_labels(self):
        c = Counter("msgs_total", "messages", ("proto",))
        c.inc(("query",))
        c.inc(("query",), 2.0)
        c.inc(("result",))
        assert c.value(("query",)) == 3.0
        assert c.value(("result",)) == 1.0
        assert c.value(("absent",)) == 0.0
        assert c.total() == 4.0

    def test_counter_rejects_negative_and_bad_labels(self):
        c = Counter("n", "", ("a",))
        with pytest.raises(ValueError):
            c.inc(("x",), -1.0)
        with pytest.raises(ValueError):
            c.inc(("x", "y"))  # wrong arity

    def test_gauge_set_inc_dec(self):
        g = Gauge("depth", "")
        g.set(10.0)
        g.inc((), 5.0)
        g.dec((), 2.0)
        assert g.value() == 13.0


class TestHistogramPercentiles:
    def test_bucket_percentiles_interpolate(self):
        h = Histogram("lat", "", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (0.5, 1.5, 1.5, 3.0, 6.0, 7.0):
            h.observe(v)
        # p50 of 6 samples lands inside a bucket; linear interpolation keeps
        # it within that bucket's bounds
        p50 = h.percentile(0.50)
        assert 1.0 <= p50 <= 2.0
        p99 = h.percentile(0.99)
        assert 4.0 <= p99 <= 8.0

    def test_empty_histogram_is_nan(self):
        h = Histogram("lat", "")
        assert math.isnan(h.percentile(0.5))
        snap = h.snapshot(())
        assert snap["count"] == 0
        assert math.isnan(snap["p50"])

    def test_snapshot_fields(self):
        h = Histogram("lat", "", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        snap = h.snapshot(())
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(5.5)
        assert not math.isnan(snap["p50"])


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "x", ("l",))
        b = reg.counter("x_total", "x", ("l",))
        assert a is b
        assert "x_total" in reg
        assert len(reg) == 1

    def test_type_and_label_conflicts_raise(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "x", ("l",))
        with pytest.raises(TypeError):
            reg.gauge("x_total", "x", ("l",))
        with pytest.raises(ValueError):
            reg.counter("x_total", "x", ("other",))

    def test_snapshot_rows_are_flat(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "help c", ("p",)).inc(("a",), 2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(1.0)
        rows = reg.snapshot()
        by_name = {r["name"]: r for r in rows}
        assert by_name["c_total"]["value"] == 2.0
        assert by_name["c_total"]["labels"] == {"p": "a"}
        assert by_name["g"]["value"] == 7.0
        assert by_name["h"]["count"] == 1


class TestNullRegistry:
    def test_disabled_and_shared_noop_instrument(self):
        null = NullRegistry()
        assert null.enabled is False
        c = null.counter("a_total", "", ("l",))
        g = null.gauge("b")
        assert c is g  # one shared no-op object
        c.inc(("x",), 5)
        g.set(3)
        c.observe(1.0)
        assert null.snapshot() == []

    def test_module_singleton(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.counter("x", "") is NULL_REGISTRY.histogram("y", "")

    def test_transport_resolves_no_instruments_when_disabled(self):
        from repro.sim.engine import Simulator
        from repro.sim.transport import Transport

        t = Transport(sim=Simulator(), metrics=NULL_REGISTRY)
        assert t._m_sent is None and t._m_bytes is None
        t2 = Transport(sim=Simulator(), metrics=MetricsRegistry())
        assert t2._m_sent is not None


class TestEmptyStatsContract:
    """NaN-vs-0.0 contract of an empty StatsCollector: time aggregates are
    undefined (NaN) with no queries; count aggregates are a true zero."""

    def test_empty_aggregates(self):
        stats = StatsCollector()
        assert math.isnan(stats.mean_response_time())
        assert math.isnan(stats.mean_max_latency())
        assert stats.mean_hops() == 0.0
        assert stats.mean_total_bytes() == 0.0
        assert stats.mean_query_messages() == 0.0
        summary = stats.summary()
        assert summary["queries"] == 0.0
        assert math.isnan(summary["response_time"])
        assert math.isnan(summary["max_latency"])
        assert summary["maintenance_bytes"] == 0.0
        assert summary["maintenance_messages"] == 0.0


class TestExporters:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("sent_total", "messages sent", ("proto",)).inc(("query",), 3)
        reg.histogram("lat", "latency").observe(0.25)
        return reg

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._registry()
        path = tmp_path / "m.jsonl"
        write_jsonl(reg.snapshot(), path)
        rows = read_metrics_jsonl(path)
        assert {r["name"] for r in rows} == {"sent_total", "lat"}

    def test_jsonl_nan_round_trip(self, tmp_path):
        # JSON has no NaN: write_jsonl stores null, read restores NaN
        row = {"name": "h", "type": "histogram", "help": "", "labels": {},
               "count": 0.0, "sum": 0.0, "p50": float("nan"),
               "p90": float("nan"), "p99": float("nan")}
        p = tmp_path / "e.jsonl"
        write_jsonl([row], p)
        assert "null" in p.read_text()
        back = read_metrics_jsonl(p)
        assert math.isnan(back[0]["p50"]) and back[0]["count"] == 0.0

    def test_table_renders_same_from_live_and_reloaded(self, tmp_path):
        reg = self._registry()
        live = format_metrics_table(reg)
        path = tmp_path / "m.jsonl"
        write_jsonl(reg.snapshot(), path)
        reloaded = format_metrics_rows(read_metrics_jsonl(path))
        assert live == reloaded
        assert "sent_total{proto=query}" in live
        assert format_metrics_table(reg, prefix="nope_") == "(no metrics recorded)"

    def test_prometheus_text(self):
        text = prometheus_text(self._registry())
        assert '# TYPE sent_total counter' in text
        assert 'sent_total{proto="query"} 3.0' in text
        assert '# TYPE lat summary' in text
        assert 'lat_count' in text

    def test_csv_flattens_labels(self):
        buf = io.StringIO()
        write_csv(self._registry().snapshot(), buf)
        header = buf.getvalue().splitlines()[0]
        assert "label_proto" in header and "name" in header


class TestGaugeVector:
    """A per-position vector is one array on the gauge; every export reads
    exactly as the same values set one scalar sample at a time."""

    LOADS = [3.0, 0.0, 7.5, 1e-3, 2.0, 0.25, 11.0, 4.0, 1.0, 6.0, 9.0, 8.0]

    def _registries(self):
        from repro.obs.load import record_load_vector

        arr, scalar = MetricsRegistry(), MetricsRegistry()
        for reg in (arr, scalar):
            reg.gauge("queue_depth", "scalar beside").set(5.0)
        record_load_vector(arr, np.asarray(self.LOADS), metric="node_load")
        record_load_vector(arr, self.LOADS[:3], metric="by_scheme",
                           extra_labels=("scheme",), extra_values=("lph",))
        g = scalar.gauge("node_load", "Per-node load vector", ("pos",))
        for i, v in enumerate(self.LOADS):
            g.set(v, (str(i),))
        g = scalar.gauge("by_scheme", "Per-node load vector", ("scheme", "pos"))
        for i, v in enumerate(self.LOADS[:3]):
            g.set(v, ("lph", str(i)))
        return arr, scalar

    def test_exports_are_byte_identical(self, tmp_path):
        arr, scalar = self._registries()
        assert arr.get("node_load").values == {}  # no label tuple was built
        assert prometheus_text(arr) == prometheus_text(scalar)
        assert format_metrics_table(arr) == format_metrics_table(scalar)
        for reg, name in ((arr, "a.jsonl"), (scalar, "s.jsonl")):
            write_jsonl(reg.snapshot(), tmp_path / name)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "s.jsonl").read_bytes()
        assert 'node_load{pos="10"} 9' in prometheus_text(arr)

    def test_gauge_vector_returns_the_stored_array(self):
        from repro.obs.load import gauge_vector, record_load_vector

        arr, _ = self._registries()
        vec = gauge_vector(arr, "node_load")
        assert vec is arr.get("node_load").vectors[()]
        assert vec.tolist() == self.LOADS and not vec.flags.writeable
        assert gauge_vector(arr, "by_scheme", match={"scheme": "lph"}).tolist() == self.LOADS[:3]
        assert len(gauge_vector(arr, "by_scheme", match={"scheme": "sfc"})) == 0
        assert len(gauge_vector(arr, "missing")) == 0
        # a later vector replaces the earlier one whole
        record_load_vector(arr, [1.0, 2.0], metric="node_load")
        assert [v for _, v in arr.get("node_load").samples()] == [1.0, 2.0]

    def test_bad_prefix_and_null_gauge(self):
        with pytest.raises(ValueError):
            Gauge("g", "", ("scheme", "pos")).set_vector([1.0], ())
        NULL_REGISTRY.gauge("g").set_vector([1.0, 2.0])
