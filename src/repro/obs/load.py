"""Per-node load gauges and the Gini / max-mean hotspot report.

The load-distribution figures (Fig. 4, Fig. 6) and the §3.4 balancer both
need the same thing: a per-node vector of stored entries (storage load) and
of query hits (access load).  This module gives those vectors a home in the
metrics registry — ``node_stored_entries`` / ``node_query_hits`` gauges
labeled by node position — and turns any such gauge back into a sorted
vector plus a hotspot summary (max, mean, Gini coefficient, max/mean ratio,
top-k hotspots) reusing :mod:`repro.eval.metrics`.
"""

from __future__ import annotations

import numpy as np

from typing import Any

from repro.obs.registry import Gauge, MetricsRegistry

__all__ = [
    "STORED_ENTRIES_GAUGE",
    "QUERY_HITS_GAUGE",
    "gini_coefficient",
    "load_summary",
    "record_load_vector",
    "gauge_vector",
    "hotspot_report",
    "format_hotspot_report",
]

STORED_ENTRIES_GAUGE = "node_stored_entries"
QUERY_HITS_GAUGE = "node_query_hits"


def gini_coefficient(loads: np.ndarray) -> float:
    """Gini coefficient of the load distribution (0 = even, →1 = concentrated)."""
    x = np.sort(np.asarray(loads, dtype=np.float64))
    n = len(x)
    total = x.sum()
    if n == 0 or total == 0:
        return 0.0
    cum = np.cumsum(x)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def load_summary(loads: np.ndarray) -> dict[str, float]:
    """Summary statistics of a per-node load vector (Figures 4 & 6)."""
    loads = np.asarray(loads, dtype=np.float64)
    if len(loads) == 0:
        return {"max": 0.0, "mean": 0.0, "nonzero": 0.0, "gini": 0.0, "max_over_mean": 0.0}
    mean = float(loads.mean())
    return {
        "max": float(loads.max()),
        "mean": mean,
        "nonzero": float(np.count_nonzero(loads)),
        "gini": gini_coefficient(loads),
        "max_over_mean": float(loads.max() / mean) if mean > 0 else 0.0,
    }


def record_load_vector(registry: MetricsRegistry, loads: Any,
                       metric: str = STORED_ENTRIES_GAUGE,
                       extra_labels: tuple[str, ...] = (),
                       extra_values: tuple[str, ...] = ()) -> None:
    """Store a load vector as the per-position vector of a ``pos`` gauge
    (one array assignment; labels are expanded only at export).

    ``extra_labels``/``extra_values`` let callers partition the gauge (e.g.
    by scheme in the Fig. 4 bench: ``("scheme",)`` / ``("scrap",)``).
    """
    registry.gauge(
        metric, "Per-node load vector", extra_labels + ("pos",),
    ).set_vector(loads, extra_values)


def gauge_vector(registry: MetricsRegistry, metric: str = STORED_ENTRIES_GAUGE,
                 match: dict[str, str] | None = None) -> np.ndarray:
    """The vector :func:`record_load_vector` stored, itself (read-only).

    ``match`` selects by the other label values (e.g. ``{"scheme":
    "scrap"}``); the first vector that matches is returned.  Returns an
    empty array when the metric does not exist or holds no such vector.
    """
    gauge = registry.get(metric)
    if isinstance(gauge, Gauge):
        idx = {name: i for i, name in enumerate(gauge.labelnames)}
        for prefix, vec in gauge.vectors.items():
            if not match or all(
                    prefix[idx[k]] == v for k, v in match.items() if k in idx):
                return vec
    return np.empty(0, dtype=float)


def hotspot_report(loads: Any, top_k: int = 5) -> dict[str, Any]:
    """Hotspot summary of a load vector: Fig. 4/6 statistics + top-k nodes."""
    loads = np.asarray(loads, dtype=float)
    report = load_summary(loads)
    order = np.argsort(loads)[::-1][:top_k]
    report["hotspots"] = [
        {"pos": int(i), "load": float(loads[i])} for i in order if loads.size]
    return report


def format_hotspot_report(report: dict[str, Any], title: str = "load") -> str:
    """Render a hotspot report as the small table ``repro metrics`` prints."""
    lines = [
        f"{title}: max={report['max']:.1f} mean={report['mean']:.2f} "
        f"gini={report['gini']:.3f} max/mean={report['max_over_mean']:.2f} "
        f"nonzero={int(report['nonzero'])}"
    ]
    for h in report.get("hotspots", []):
        lines.append(f"  hotspot node[{h['pos']}] load={h['load']:.1f}")
    return "\n".join(lines)
