"""The ``repro scale-smoke`` check: a 10k-node run held to its budgets.

Builds a :class:`repro.core.scale.ScaleSimulation`, routes its queries with
structural invariants checked before and after, and fails (non-zero) when
the health sampler never ticked, an SLO of
:data:`~repro.obs.slo.DEFAULT_SCALE_SLOS` burned its budget, real metrics +
sampled tracing cost more than the allowed fraction over a ``NullRegistry``
run, or the whole thing overran its wall-clock budget — an accidental
per-node Python loop blows that last one by orders of magnitude.

This is a check, not a benchmark: its timings gate, they are not recorded
(the ledger's ``scale_lookup`` workload and ``obs.scale_on_ratio`` line
measure the same path).  It is the one module outside :mod:`repro.net` that
reads the host clock (the DET101 exemption), so the simulation core stays
clock-free.
"""

from __future__ import annotations

import os
import time
from statistics import median

from repro.core.scale import ScaleConfig, ScaleSimulation
from repro.obs import (
    DEFAULT_SCALE_SLOS,
    JsonlSpanSink,
    MemorySpanSink,
    SpanRecorder,
    evaluate_slos,
    export_metrics,
    format_hotspot_report,
    write_prometheus,
)
from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.sim.king import king_coordinate_model

__all__ = ["run_scale_smoke"]


def _obs_overhead(n_nodes: int, n_queries: int, pairs: int) -> tuple[float, float, float]:
    """``run()`` seconds, ``NullRegistry`` vs metrics + sampled tracing, in
    alternating pairs: ``(median null s, median instrumented s, median of
    the per-pair ratios)``.

    Both simulations are built once and only ``run()`` is timed —
    construction is identical.  The two runs of a pair are back to back and
    every other pair starts with the instrumented one, so drift in the host's
    speed cancels in each ratio instead of landing on one side.
    """
    lat = king_coordinate_model(n_hosts=n_nodes, seed=3)
    cfg = ScaleConfig(
        n_nodes=n_nodes,
        n_objects=n_nodes,
        n_queries=n_queries,
        chunk=max(1, n_queries // 4),
    )
    null_sim = ScaleSimulation(cfg, latency=lat, registry=NullRegistry())
    rec = SpanRecorder()
    rec.add_sink(MemorySpanSink())
    obs_sim = ScaleSimulation(cfg, latency=lat, recorder=rec)
    # the first run() of each makes the one-off stored-load report (and, with
    # metrics, its 10k-label gauge): set-up, not per-run overhead
    null_sim.run()
    obs_sim.run()
    null_s: list[float] = []
    obs_s: list[float] = []
    for pair in range(pairs):
        order = [(null_sim, null_s), (obs_sim, obs_s)]
        for sim, times in order if pair % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            sim.run()
            times.append(time.perf_counter() - t0)
    ratio = median(o / n for n, o in zip(null_s, obs_s))
    return median(null_s), median(obs_s), ratio


def run_scale_smoke(
    n_nodes: int = 10_000,
    n_queries: int = 10_000,
    budget_s: float = 120.0,
    seed: int = 0,
    out_dir: str | None = None,
    obs_overhead: float | None = None,
    slo: bool = False,
) -> int:
    """Build, route, check, report, enforce the budgets; 0 when all hold.

    Runs a :class:`ScaleSimulation` with invariant checking on and full
    observability, prints the health trace and the Fig. 4-analogue
    Gini/hotspot report, and fails if wall-clock exceeds ``budget_s``.

    Extras (each opt-in, all used by the CI observability-at-scale job):

    * ``out_dir`` — stream ``health.jsonl``/``spans.jsonl`` live during the
      run (the ``repro top``/``repro serve`` inputs) and write
      ``metrics.jsonl`` + ``prom.txt`` at the end;
    * ``obs_overhead`` — also run the same config with ``NullRegistry`` and
      fail if the instrumented run cost more than this fraction extra;
    * ``slo`` — evaluate :data:`~repro.obs.slo.DEFAULT_SCALE_SLOS` over the
      run's series and fail on any burned budget.
    """
    registry = MetricsRegistry()
    cfg = ScaleConfig(
        n_nodes=n_nodes,
        n_objects=n_nodes,
        n_queries=n_queries,
        chunk=max(1, n_queries // 8),
        seed=seed,
    )
    latency = king_coordinate_model(n_hosts=n_nodes, seed=seed)
    recorder: SpanRecorder | None = None
    health_jsonl: str | None = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        recorder = SpanRecorder()
        recorder.add_sink(JsonlSpanSink(os.path.join(out_dir, "spans.jsonl")))
        health_jsonl = os.path.join(out_dir, "health.jsonl")
    t0 = time.perf_counter()
    sim = ScaleSimulation(
        cfg,
        latency=latency,
        registry=registry,
        recorder=recorder,
        health_jsonl=health_jsonl,
    )
    sim.check_invariants()
    report = sim.run()
    sim.check_invariants()
    elapsed = time.perf_counter() - t0
    print(f"[scale-smoke] {n_nodes} nodes, {report.n_queries} queries "
          f"in {elapsed:.1f}s (budget {budget_s:.0f}s)")
    print(f"  mean hops {report.mean_hops:.2f}  "
          f"latency p50 {report.latency_p50_s * 1e3:.1f}ms "
          f"p99 {report.latency_p99_s * 1e3:.1f}ms")
    print(f"  routed {report.counters.get('routed', 0.0):.0f}  "
          f"solved {report.counters.get('solved', 0.0):.0f}  "
          f"dropped {report.counters.get('dropped', 0.0):.0f}  "
          f"sampled spans {report.sampled_spans}")
    print("  " + format_hotspot_report(report.storage_load, title="stored entries"))
    print("  " + format_hotspot_report(report.forwarding_load, title="forwarding visits"))
    print(f"  health samples: {report.health_samples}  "
          f"local solves: {report.local_solves} "
          f"(mean hits {report.local_hits_mean:.2f})")
    for s in sim.sampler.samples:
        deciles = ", ".join(f"{v:.0f}" for v in s.load_deciles[-3:])
        print(f"    t={s.time:>5.1f}s queue={s.event_queue_depth} "
              f"top-deciles=[{deciles}]")
    ok = True
    if report.health_samples == 0:
        print("[scale-smoke] FAIL: health sampler never ticked")
        ok = False
    if out_dir is not None:
        sim.sampler.close()
        if recorder is not None:
            recorder.close()
        export_metrics(registry, os.path.join(out_dir, "metrics.jsonl"))
        write_prometheus(registry, os.path.join(out_dir, "prom.txt"))
        print(f"  [artifacts written under {out_dir}: "
              "health.jsonl spans.jsonl metrics.jsonl prom.txt]")
    if slo:
        slo_report = evaluate_slos(DEFAULT_SCALE_SLOS, sim.slo_series())
        print()
        print(slo_report.format())
        if not slo_report.ok:
            print("[scale-smoke] FAIL: SLO budget burned")
            ok = False
    if obs_overhead is not None:
        # a dedicated paired measurement on fresh sims — the single-shot
        # run above includes artifact streaming and is too noisy to gate on
        pairs = 9
        null_s, obs_s, ratio = _obs_overhead(n_nodes, n_queries, pairs)
        frac = ratio - 1.0
        print(f"  obs overhead: {obs_s:.2f}s instrumented vs "
              f"{null_s:.2f}s NullRegistry; median pair ratio {frac:+.1%} "
              f"(bound {obs_overhead:.0%}, {pairs} alternating pairs)")
        if frac > obs_overhead:
            print(f"[scale-smoke] FAIL: observability overhead {frac:.1%} "
                  f"exceeds {obs_overhead:.0%}")
            ok = False
    if elapsed > budget_s:
        print(f"[scale-smoke] FAIL: exceeded wall-clock budget "
              f"({elapsed:.1f}s > {budget_s:.0f}s)")
        ok = False
    print("[scale-smoke] OK" if ok else "[scale-smoke] FAILED")
    return 0 if ok else 1
