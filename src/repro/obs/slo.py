"""SLO declarations and burn-rate evaluation over recorded series.

Speed regressions are gated by the ledger (``BENCHMARK.json``); this module
gates *behavior*.  An :class:`SLO` declares a target over one named series —
per-chunk p99 routing latency, per-chunk hop p99, drop rate, final load
Gini, health-sampler cadence, stabilization convergence time — and
:func:`evaluate_slos` scores each against the series a run produced
(:meth:`repro.core.scale.ScaleSimulation.slo_series` builds the standard
mapping for the scale path; any ``{name: [values]}`` dict works).

Scoring follows the error-budget model: an SLO with ``objective`` 0.95
tolerates 5% bad samples; the **burn rate** is the ratio of the observed
bad fraction to the tolerated one, so burn ≤ 1.0 means the run stayed
inside its budget and burn 2.0 means it burned budget twice as fast as
allowed.  An ``objective`` of 1.0 declares a hard floor: a single bad
sample yields an infinite burn rate and fails the SLO.  The CI gate
(``repro slo``) fails the build when any SLO in the catalogue burns hot —
a *behavioral* regression gate alongside the performance one.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SLO",
    "SloResult",
    "SloReport",
    "burn_rate",
    "evaluate_slo",
    "evaluate_slos",
    "DEFAULT_SCALE_SLOS",
]


@dataclass(frozen=True)
class SLO:
    """One service-level objective over a named series.

    A sample ``v`` is *good* when ``v <op> threshold`` holds (``op`` is
    ``"<="`` or ``">="``); the SLO passes when at least ``objective`` of
    the samples are good — equivalently, when the burn rate is ≤ 1.
    """

    name: str
    series: str
    threshold: float
    op: str = "<="
    objective: float = 1.0
    unit: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"{self.name}: op must be '<=' or '>=', got {self.op!r}")
        if not 0.0 < self.objective <= 1.0:
            raise ValueError(f"{self.name}: objective must be in (0, 1], got {self.objective}")

    def is_good(self, value: float) -> bool:
        if math.isnan(value):
            return False
        return value <= self.threshold if self.op == "<=" else value >= self.threshold


def burn_rate(good_fraction: float, objective: float) -> float:
    """Observed bad fraction over the tolerated bad fraction.

    ``objective == 1.0`` has a zero error budget: any badness is an
    infinite burn, perfection is 0.
    """
    bad = max(0.0, 1.0 - good_fraction)
    budget = 1.0 - objective
    if budget <= 0.0:
        return 0.0 if bad == 0.0 else math.inf
    return bad / budget


@dataclass
class SloResult:
    """Outcome of one SLO over one series."""

    slo: SLO
    total: int
    good: int
    worst: float
    burn: float
    passed: bool

    @property
    def good_fraction(self) -> float:
        return self.good / self.total if self.total else 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.slo.name,
            "series": self.slo.series,
            "threshold": self.slo.threshold,
            "op": self.slo.op,
            "objective": self.slo.objective,
            "total": self.total,
            "good": self.good,
            "good_fraction": self.good_fraction,
            "worst": None if math.isnan(self.worst) else self.worst,
            "burn_rate": None if math.isinf(self.burn) else self.burn,
            "passed": self.passed,
        }


def evaluate_slo(slo: SLO, values: Sequence[float]) -> SloResult:
    """Score one SLO; an empty/missing series fails it (no evidence)."""
    vals = [float(v) for v in values]
    if not vals:
        return SloResult(slo, total=0, good=0, worst=math.nan, burn=math.inf, passed=False)
    good = sum(1 for v in vals if slo.is_good(v))
    finite = [v for v in vals if not math.isnan(v)]
    if not finite:
        worst = math.nan
    elif slo.op == "<=":
        worst = max(finite)
    else:
        worst = min(finite)
    burn = burn_rate(good / len(vals), slo.objective)
    return SloResult(slo, total=len(vals), good=good, worst=worst, burn=burn,
                     passed=burn <= 1.0)


@dataclass
class SloReport:
    """Every SLO's result for one run, plus the overall verdict."""

    results: list[SloResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failed(self) -> list[SloResult]:
        return [r for r in self.results if not r.passed]

    def to_dict(self) -> dict[str, Any]:
        return {"ok": self.ok, "slos": [r.to_dict() for r in self.results]}

    def format(self) -> str:
        """Aligned verdict table (the ``repro slo`` output)."""
        rows = []
        for r in self.results:
            s = r.slo
            target = f"{s.op} {s.threshold:g}{s.unit}"
            worst = "n/a" if math.isnan(r.worst) else f"{r.worst:g}{s.unit}"
            burn = "inf" if math.isinf(r.burn) else f"{r.burn:.2f}"
            rows.append((
                r.slo.name, target, f"{r.good}/{r.total}",
                f"{s.objective:.0%}", worst, burn,
                "PASS" if r.passed else "FAIL",
            ))
        headers = ("slo", "target", "good", "objective", "worst", "burn", "verdict")
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
        lines += [fmt.format(*row) for row in rows]
        lines.append(
            f"\n{sum(r.passed for r in self.results)}/{len(self.results)} SLOs met"
            + ("" if self.ok else " — BUDGET BURNED")
        )
        return "\n".join(lines)


def evaluate_slos(
    slos: Sequence[SLO], series: Mapping[str, Sequence[float]]
) -> SloReport:
    """Score a catalogue of SLOs against a ``{series_name: values}`` map."""
    return SloReport([evaluate_slo(s, series.get(s.series, ())) for s in slos])


#: The default catalogue for the scale path, evaluated over the series of
#: :meth:`repro.core.scale.ScaleSimulation.slo_series`.  Thresholds carry
#: headroom above the measured defaults (mean hops ≈ ½·log2(n), chunk p99
#: latency ≈ 1s on the King-calibrated coordinate model at 100k nodes) so
#: they flag behavioral regressions, not noise.  The storage-balance floor
#: sits just above the ~0.95 Gini the clustered Table-1 data measures on
#: locality-preserving hashing — the imbalance the paper's §3.4 dynamic
#: balancing exists to fix — so it catches drift, not the known skew.
DEFAULT_SCALE_SLOS: tuple[SLO, ...] = (
    SLO(
        "query_latency_p99", series="chunk_latency_p99_s", threshold=2.5,
        op="<=", objective=0.95, unit="s",
        description="per-chunk p99 end-to-end routing latency",
    ),
    SLO(
        "query_hops_p99", series="chunk_hops_p99", threshold=24.0,
        op="<=", objective=0.95,
        description="per-chunk p99 forwarding hops (log n routing holds)",
    ),
    SLO(
        "drop_rate", series="chunk_dropped_frac", threshold=0.01,
        op="<=", objective=0.99,
        description="fraction of queries past the hop deadline per chunk",
    ),
    SLO(
        "storage_balance", series="storage_gini", threshold=0.98, op="<=",
        description="Gini of stored entries per node (Fig. 4 analogue)",
    ),
    SLO(
        "forwarding_balance", series="forwarding_gini", threshold=0.9, op="<=",
        description="Gini of forwarding visits per node (Fig. 6 analogue)",
    ),
    SLO(
        "recall_floor", series="local_hit_rate", threshold=0.05, op=">=",
        description="fraction of sampled owner-side range searches with hits",
    ),
    SLO(
        "health_cadence", series="health_cadence_ratio", threshold=0.9, op=">=",
        description="health samples per simulated chunk-second",
    ),
)
