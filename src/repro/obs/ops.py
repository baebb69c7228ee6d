"""Live ops surface: the ``repro top`` dashboard and an HTTP metrics endpoint.

A long scale run streams two JSONL artifacts as it executes — the health
time-series (:class:`~repro.obs.health.HealthSampler` with ``jsonl=``) and
the metrics snapshot — and this module turns either stream into something
an operator can watch:

* :func:`render_top` — a plain-text dashboard over the health tail:
  queries/sec (from the ``routed_total`` probe deltas on the simulation
  clock), event-queue depth, in-flight branches, live nodes, the load
  deciles as a bar strip, and a sparkline of recent throughput.  The
  ``repro top`` CLI re-renders it on an interval (``--follow``).
* :class:`ObsHTTPServer` — a Prometheus-format scrape endpoint
  (``/metrics``) plus ``/health`` (latest sample as JSON) and
  ``/health/series`` (the whole tail).  It serves from *callables*, so the
  same server fronts a live in-process registry
  (:func:`serve_registry`) or tails recorded JSONL artifacts of a separate
  running process (:func:`serve_files`), reusing the existing exporters.

Everything here is read-only over recorded/observed state; nothing touches
the simulation, so the surface can be attached or dropped without
perturbing a deterministic run.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.export import prometheus_text_from_rows, read_metrics_jsonl

__all__ = [
    "read_health_jsonl",
    "throughput_series",
    "sparkline",
    "render_top",
    "ObsHTTPServer",
    "serve_registry",
    "serve_files",
]

#: ASCII ramp for sparklines / decile bars (terminal-safe, no unicode)
_RAMP = " .:-=+*#%@"


def read_health_jsonl(target: Any) -> list[dict[str, Any]]:
    """Load health samples (one JSON object per line); tolerant of a
    mid-write trailing partial line, so it is safe to tail a live file."""
    if hasattr(target, "read"):
        text = target.read()
    else:
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            return []
    rows: list[dict[str, Any]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            continue  # partial final line of a live writer
    return rows


def throughput_series(samples: list[dict[str, Any]]) -> list[float]:
    """Per-interval routing rate from the cumulative ``routed_total`` probe
    (an ``extra`` of the health samples) on the sim clock.

    ``rate[i] = (routed[i] - routed[i-1]) / (t[i] - t[i-1])`` — one value
    per consecutive sample pair carrying the probe.
    """
    pts = [
        (float(s["time"]), float(s["extra"]["routed_total"]))
        for s in samples
        if "routed_total" in (s.get("extra") or {})
    ]
    rates: list[float] = []
    for (t0, c0), (t1, c1) in zip(pts, pts[1:]):
        dt = t1 - t0
        if dt > 0:
            rates.append(max(0.0, (c1 - c0) / dt))
    return rates


def sparkline(values: list[float], width: int = 32) -> str:
    """Fixed-width ASCII sparkline of the last ``width`` values."""
    if not values:
        return ""
    tail = values[-width:]
    hi = max(tail)
    if hi <= 0:
        return _RAMP[0] * len(tail)
    idx = [min(len(_RAMP) - 1, int(v / hi * (len(_RAMP) - 1) + 0.5)) for v in tail]
    return "".join(_RAMP[i] for i in idx)


def _decile_bar(deciles: list[float]) -> str:
    """The 11 load deciles as a compact ramp strip (p0..p100)."""
    if not deciles:
        return "(no load data)"
    hi = max(deciles)
    if hi <= 0:
        return _RAMP[0] * len(deciles)
    return "".join(
        _RAMP[min(len(_RAMP) - 1, int(v / hi * (len(_RAMP) - 1) + 0.5))]
        for v in deciles
    )


def render_top(
    health_rows: list[dict[str, Any]],
    metrics_rows: list[dict[str, Any]] | None = None,
    width: int = 72,
) -> str:
    """One dashboard frame over the health tail (pure function of its input)."""
    if not health_rows:
        return "(no health samples yet)"
    last = health_rows[-1]
    rates = throughput_series(health_rows)
    qps = rates[-1] if rates else 0.0
    deciles = last.get("load_deciles") or []
    # the scale path reports membership via a probe (no ring object on the
    # sampler), so fall back to the extra series when the field is empty
    live = last.get("live_nodes", 0) or int((last.get("extra") or {}).get("live_nodes", 0))
    total = last.get("total_nodes", 0) or live
    lines = [
        f"repro top — t={last.get('time', 0.0):.1f}s sim  "
        f"({len(health_rows)} samples)",
        "-" * width,
        f"throughput   {qps:>12,.0f} q/s   {sparkline(rates)}",
        f"queue depth  {last.get('event_queue_depth', 0):>12,}   "
        f"in-flight branches {last.get('in_flight_branches', 0):,}",
        f"live nodes   {live:>12,} / {total:,}",
    ]
    if deciles:
        lines.append(
            f"load deciles [{_decile_bar(deciles)}]  "
            f"p50={deciles[len(deciles) // 2]:.0f} p100={deciles[-1]:.0f}"
        )
    extra = last.get("extra") or {}
    if extra:
        bits = "  ".join(f"{k}={v:g}" for k, v in sorted(extra.items()))
        lines.append(f"probes       {bits}")
    if metrics_rows:
        for rec in metrics_rows:
            name = rec.get("name", "")
            if name == "scale_query_latency_seconds":
                lines.append(
                    f"latency      p50={rec.get('p50', 0.0):.3f}s "
                    f"p90={rec.get('p90', 0.0):.3f}s p99={rec.get('p99', 0.0):.3f}s"
                )
            elif name == "scale_query_hops":
                lines.append(
                    f"hops         p50={rec.get('p50', 0.0):.1f} "
                    f"p99={rec.get('p99', 0.0):.1f}"
                )
            elif name and name.startswith("scale_queries_") and name.endswith("_total"):
                short = name[len("scale_queries_"):-len("_total")]
                lines.append(f"{short:<12} {rec.get('value', 0.0):>12,.0f}")
    return "\n".join(lines)


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /health, /health/series, /healthz; silent logs."""

    server: ObsHTTPServer  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path.startswith("/metrics"):
                body = self.server.metrics_text()
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            elif self.path.startswith("/health/series"):
                body = json.dumps(self.server.health_rows())
                ctype = "application/json"
            elif self.path.startswith("/healthz"):
                body = "ok\n"
                ctype = "text/plain"
            elif self.path.startswith("/health"):
                rows = self.server.health_rows()
                body = json.dumps(rows[-1] if rows else {})
                ctype = "application/json"
            else:
                self.send_error(404, "unknown path (try /metrics or /health)")
                return
        except Exception as exc:  # surface source errors as a 500, keep serving
            self.send_error(500, f"{type(exc).__name__}: {exc}")
            return
        payload = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: D102
        pass


class ObsHTTPServer(ThreadingHTTPServer):
    """A daemon-threaded HTTP server over two source callables.

    ``metrics_fn`` returns Prometheus exposition text; ``health_fn``
    returns the health sample rows (list of dicts).  ``port=0`` binds an
    ephemeral port — read it back from :attr:`server_address`.
    """

    daemon_threads = True

    def __init__(
        self,
        metrics_fn: Callable[[], str] | None = None,
        health_fn: Callable[[], list[dict[str, Any]]] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self._metrics_fn = metrics_fn
        self._health_fn = health_fn
        self._thread: threading.Thread | None = None

    def metrics_text(self) -> str:
        return self._metrics_fn() if self._metrics_fn is not None else ""

    def health_rows(self) -> list[dict[str, Any]]:
        return self._health_fn() if self._health_fn is not None else []

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> ObsHTTPServer:
        """Serve in a daemon thread; returns self (use as context manager)."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()

    def __enter__(self) -> ObsHTTPServer:
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def serve_registry(
    registry: Any,
    sampler: Any = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ObsHTTPServer:
    """An endpoint over a live in-process registry (and optional sampler)."""
    from repro.obs.export import prometheus_text

    return ObsHTTPServer(
        metrics_fn=lambda: prometheus_text(registry),
        health_fn=(lambda: sampler.to_dicts()) if sampler is not None else None,
        host=host,
        port=port,
    )


def serve_files(
    metrics_path: Any = None,
    health_path: Any = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ObsHTTPServer:
    """An endpoint tailing a running simulation's JSONL artifacts.

    Each request re-reads the files, so the endpoint tracks a live writer
    (the partial-final-line tolerance in :func:`read_health_jsonl` makes
    concurrent reads safe).
    """
    return ObsHTTPServer(
        metrics_fn=(
            (lambda: prometheus_text_from_rows(read_metrics_jsonl(metrics_path)))
            if metrics_path is not None
            else None
        ),
        health_fn=(
            (lambda: read_health_jsonl(health_path)) if health_path is not None else None
        ),
        host=host,
        port=port,
    )
