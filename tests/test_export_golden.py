"""Golden-file tests pinning the exporter output formats byte-for-byte.

``obs/export.py`` feeds CI artifacts and the ``repro metrics`` CLI; external
tooling (Prometheus scrapes, spreadsheet imports, jq pipelines) parses these
bytes, so format drift is a breaking change even when the values are right.
The goldens live in ``tests/golden/``.  To regenerate after an *intentional*
format change::

    PYTHONPATH=src:tests python -c 'import test_export_golden as t; t.regenerate()'

and review the diff before committing.
"""

import io
import math
import os

import pytest

from repro.obs.export import (
    format_metrics_rows,
    prometheus_text,
    read_metrics_jsonl,
    write_csv,
    write_jsonl,
)
from repro.obs.registry import MetricsRegistry

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def build_registry() -> MetricsRegistry:
    """A fixed registry exercising every exporter code path.

    Covers: labeled + unlabeled counters, a gauge holding NaN (JSONL null /
    Prometheus ``NaN``), a labeled and an unlabeled bucket-interpolated
    histogram, and a label name needing Prometheus sanitisation.
    """
    reg = MetricsRegistry()
    c = reg.counter("queries_total", "Queries issued", labelnames=("index",))
    c.inc(("vec",), 3)
    c.inc(("doc",), 2)
    reg.counter("messages_total", "Messages sent").inc((), 41)
    reg.gauge("nodes_alive", "Live node count").set(16)
    reg.gauge("load_skew", "max/mean shard load").set(math.nan)
    h = reg.histogram(
        "query_latency_seconds", "Query latency", labelnames=("index",),
        buckets=(0.05, 0.1, 0.5, 1.0),
    )
    for i in range(1, 11):
        h.observe(i / 10.0, ("vec",))
    r = reg.histogram("hops", "Routing hops", buckets=(1, 2, 4, 8))
    for v in (1, 1, 2, 3, 5, 8):
        r.observe(float(v))
    s = reg.counter(
        "bytes_total", "Bytes by direction", labelnames=("direction-kind",))
    s.inc(("in",), 1024)
    return reg


def _render(fmt: str) -> str:
    reg = build_registry()
    if fmt == "prom":
        return prometheus_text(reg)
    buf = io.StringIO()
    if fmt == "jsonl":
        write_jsonl(reg.snapshot(), buf)
    elif fmt == "csv":
        write_csv(reg.snapshot(), buf)
    elif fmt == "table":
        return format_metrics_rows(reg.snapshot()) + "\n"
    return buf.getvalue()

FORMATS = {
    "prom": "metrics.prom",
    "jsonl": "metrics.jsonl",
    "csv": "metrics.csv",
    "table": "metrics.txt",
}


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for fmt, fname in FORMATS.items():
        with open(os.path.join(GOLDEN_DIR, fname), "w", newline="") as fh:
            fh.write(_render(fmt))


class TestGoldenFormats:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_output_matches_golden(self, fmt):
        path = os.path.join(GOLDEN_DIR, FORMATS[fmt])
        with open(path, newline="") as fh:
            golden = fh.read()
        assert _render(fmt) == golden, (
            f"{FORMATS[fmt]} drifted; if the change is intentional, "
            f"regenerate the goldens (see module docstring) and review the diff"
        )


class TestFormatContracts:
    """Targeted assertions so a golden failure has a readable counterpart."""

    def test_prometheus_structure(self):
        text = prometheus_text(build_registry())
        assert "# TYPE queries_total counter\n" in text
        # histograms render as summaries: quantile series + _sum/_count
        assert "# TYPE query_latency_seconds summary\n" in text
        assert 'query_latency_seconds{index="vec",quantile="0.50"}' in text
        assert "query_latency_seconds_count" in text
        # label names are sanitised to the Prometheus charset
        assert 'bytes_total{direction_kind="in"} 1024.0\n' in text
        # NaN gauges render as literal NaN samples
        assert "load_skew NaN\n" in text

    def test_jsonl_roundtrip_restores_nan(self):
        reg = build_registry()
        buf = io.StringIO()
        write_jsonl(reg.snapshot(), buf)
        assert '"value": null' in buf.getvalue()  # NaN encodes as null
        rows = read_metrics_jsonl(io.StringIO(buf.getvalue()))
        skew = next(r for r in rows if r["name"] == "load_skew")
        assert math.isnan(skew["value"])
        clean = [r for r in rows if r["name"] != "load_skew"]
        assert clean == [r for r in reg.snapshot() if r["name"] != "load_skew"]

    def test_csv_has_union_header_and_crlf(self):
        buf = io.StringIO()
        write_csv(build_registry().snapshot(), buf)
        lines = buf.getvalue().split("\r\n")
        header = lines[0].split(",")
        assert header[:3] == ["name", "type", "help"]
        assert "label_index" in header and "value" in header and "p99" in header
