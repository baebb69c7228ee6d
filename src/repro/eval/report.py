"""ASCII rendering of experiment results in the shape of the paper's figures.

Every benchmark prints one of these tables; EXPERIMENTS.md records them next
to the paper's reported numbers.
"""

from __future__ import annotations


__all__ = [
    "format_table",
    "format_sweep",
    "format_load_distribution",
    "format_dict",
    "SWEEP_METRICS",
]


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Plain fixed-width table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4f}"
    return str(v)


#: default metric blocks of a sweep table; query bandwidth and maintenance
#: bandwidth are separate columns (the Fig. 3/5 cost comparisons need the
#: background overlay-upkeep cost split from the per-query cost)
SWEEP_METRICS = (
    "recall",
    "hops",
    "response_time",
    "max_latency",
    "total_bytes",
    "maintenance_bytes",
)


def format_sweep(result, metrics: tuple[str, ...] = SWEEP_METRICS) -> str:
    """Render an :class:`repro.eval.runner.ExperimentResult` sweep.

    One block per metric: rows are range factors, columns are schemes —
    the transposition of the paper's figure panels.
    """
    blocks = []
    range_factors = [row["range_factor"] for row in result.schemes[0].rows]
    for metric in metrics:
        headers = ["range%"] + [s.scheme.label for s in result.schemes]
        rows = []
        for i, rf in enumerate(range_factors):
            row = [f"{100 * rf:g}%"]
            for s in result.schemes:
                row.append(s.rows[i].get(metric, float("nan")))
            rows.append(row)
        blocks.append(format_table(headers, rows, title=f"[{metric}]"))
    return "\n\n".join(blocks)


def format_load_distribution(result, top_n: int = 10) -> str:
    """Render sorted per-node loads (Figures 4 / 6): top nodes + summary."""
    headers = ["scheme", "max", "mean", "gini", "nonzero-nodes"] + [
        f"#{i+1}" for i in range(top_n)
    ]
    rows = []
    for s in result.schemes:
        dist = s.load_distribution
        stats = s.load_stats
        top = list(dist[:top_n]) + [0] * max(0, top_n - len(dist))
        rows.append(
            [s.scheme.label, stats["max"], stats["mean"], stats["gini"], stats["nonzero"]]
            + [int(v) for v in top]
        )
    return format_table(headers, rows, title="[load distribution, sorted desc]")


def format_dict(d: dict, title: str = "") -> str:
    """Key/value block."""
    lines = [title] if title else []
    width = max((len(k) for k in d), default=0)
    for k, v in d.items():
        lines.append(f"  {k.ljust(width)} : {_fmt(v)}")
    return "\n".join(lines)
