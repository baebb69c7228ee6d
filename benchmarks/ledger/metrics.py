"""The arithmetic that turns measurements into the metrics of ``BENCHMARK.json``.

End-to-end values come from an untraced region only.  Per-layer values come from the
tracer's rollups over the traced region (plus its set-up phase for the
build-time lines); a layer that a workload does not execute reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from benchmarks.ledger.check import Verdict
from benchmarks.ledger.trace import Stat
from benchmarks.ledger.workloads import Region

__all__ = ["END_TO_END", "PER_LAYER", "SPEC", "end_to_end", "per_layer"]

#: ``BENCHMARK.json`` is the one list of metric names, units and bounds; this
#: module only knows how to compute them
SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: layers whose wrapped callables are synchronous, so self time is CPU time
SELF_FRAC_LAYERS = (
    "landmarks", "lph", "query", "routing", "lifecycle", "storage", "platform",
    "dht", "compact", "transport", "obs", "scale", "codec",
)


def end_to_end(setup_s: list[float], regions: list[Region],
               peak_rss_mb: float) -> dict[str, float]:
    """``regions`` are the timed regions of a run, one after each set-up.

    The rate and the samples are at reference speed (see ``Region``), which
    takes out the part of the shared box's wander that the reference kernel
    feels too; the regions lie seconds apart, so the median of their rates is
    not decided by one burst of the rest.  ``setup_s`` has its busy part at
    reference speed and its waiting part as the clock read it.
    """
    return {
        "setup_s": median(setup_s),
        "ops_per_s": median(r.ops_per_s for r in regions),
        "query_us_p50": median(us for r in regions for us in r.query_us),
        "peak_rss_mb": peak_rss_mb,
    }


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _tail(samples: list[float], q: float) -> float:
    """The ``q`` percentile, only where at least ten samples lie beyond it."""
    if len(samples) * (1.0 - q / 100.0) < 10:
        return 0.0
    return float(np.percentile(samples, q))


def _p50_us(stat: Stat) -> float:
    return float(np.median(stat.samples)) / 1e3 if stat.samples else 0.0


def per_layer(workload: Any, setup: dict[str, Stat], timed: dict[str, Stat],
              untraced: Region, traced: Region, extras: dict[str, float],
              verdict: Verdict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric for one traced run (0 where a layer is idle)."""
    zero = Stat()

    def t(name: str) -> Stat:
        return timed.get(name, zero)

    def both(name: str) -> Stat:
        a, b = setup.get(name, zero), timed.get(name, zero)
        out = Stat()
        out.calls, out.busy, out.items = a.calls + b.calls, a.busy + b.busy, a.items + b.items
        return out

    def us_per_call(stat: Stat) -> float:
        return _div(stat.busy, stat.calls) / 1e3

    q = traced.queries
    c = traced.counters
    wall_ns = traced.wall_s * 1e9
    out = dict.fromkeys(PER_LAYER, 0.0)

    layer_self: dict[str, float] = {}
    for name, stat in timed.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + stat.self_ns
    for layer in SELF_FRAC_LAYERS:
        out[f"{layer}.self_frac"] = _div(layer_self.get(layer, 0.0), wall_ns)
    if workload.driver == "live":
        # every live callable below the codec is a coroutine whose wall time is
        # mostly waiting, so the network layer is the residual of the sync ones
        out["net_transport.self_frac"] = 1.0 - sum(
            out[f"{layer}.self_frac"] for layer in SELF_FRAC_LAYERS)
    out["trace.self_frac_sum"] = out["net_transport.self_frac"] + sum(
        out[f"{layer}.self_frac"] for layer in SELF_FRAC_LAYERS)

    project = both("landmarks.project")
    out["landmarks.project_us_per_obj"] = _div(project.busy, project.items) / 1e3
    hash_batch = both("lph.lp_hash_batch")
    out["lph.hash_batch_ns_per_key"] = _div(hash_batch.busy, hash_batch.items)
    out["lph.enclosing_prefix_us"] = us_per_call(t("lph.smallest_enclosing_prefix"))
    out["lph.prefix_to_cuboid_us"] = us_per_call(t("lph.prefix_to_cuboid"))
    out["lph.prefix_to_cuboid_calls_per_query"] = _div(t("lph.prefix_to_cuboid").calls, q)
    out["query.split_us"] = us_per_call(t("query.query_split"))
    out["query.split_calls_per_query"] = _div(t("query.query_split").calls, q)

    out["routing.self_us_per_msg"] = _div(
        layer_self.get("routing", 0.0), c.get("messages", 0.0)) / 1e3
    out["routing.hops_mean"] = workload.paper.get("hops_mean", 0.0)
    out["routing.index_nodes_per_query"] = workload.paper.get("index_nodes_per_query", 0.0)
    branches = t("lifecycle.open").calls
    out["lifecycle.us_per_branch"] = _div(layer_self.get("lifecycle", 0.0), branches) / 1e3
    out["lifecycle.branches_per_query"] = _div(branches, q)
    out["lifecycle.retransmissions"] = c.get("retransmissions", 0.0)

    searches = [t("storage.shard_range_search"), t("storage.store_range_search")]
    n_search = sum(s.calls for s in searches)
    out["storage.range_search_us"] = _div(sum(s.busy for s in searches), n_search) / 1e3
    out["storage.range_search_calls_per_query"] = _div(n_search, q)
    out["storage.candidates_per_result"] = _div(
        sum(s.items for s in searches), c.get("result_rows", 0.0))
    add = both("storage.persistent_add")
    if not add.calls:
        add = both("storage.shard_add")
    out["storage.add_us_per_entry"] = _div(add.busy, add.items) / 1e3
    out["storage.wal_bytes_per_entry"] = _div(
        c.get("wal_bytes_total", 0.0), c.get("entries_total", 0.0))

    out["storage.fsync_us"] = us_per_call(t("storage.os_fsync"))
    out["storage.fsyncs_per_s"] = _div(t("storage.os_fsync").calls, traced.wall_s)

    out["platform.refine_us"] = us_per_call(t("platform.refine_distances"))
    make = t("platform.make_queries")
    out["platform.make_queries_us_per_query"] = _div(make.busy, make.items) / 1e3
    out["dht.next_hop_us"] = us_per_call(t("dht.next_hop"))
    out["dht.next_hop_calls_per_query"] = _div(t("dht.next_hop").calls, q)
    out["compact.build_s"] = setup.get("compact.build", zero).busy / 1e9
    route = t("compact.route_batch")
    out["compact.route_batch_ns_per_query"] = _div(route.busy, route.items)
    out["compact.hops_mean"] = _div(c.get("hops", 0.0), q)
    out["engine.events_per_query"] = _div(c.get("events", 0.0), q)
    out["transport.send_us"] = us_per_call(t("transport.send"))
    out["transport.sends_per_query"] = _div(t("transport.send").calls, q)
    out["transport.dropped"] = c.get("dropped", 0.0)
    observe = t("obs.observe_many")
    out["obs.observe_many_ns_per_value"] = _div(observe.busy, observe.items)
    out["scale.build_s"] = setup.get("scale.init", zero).busy / 1e9

    encode, decode = t("codec.encode"), t("codec.decode")
    out["codec.encode_us_per_frame"] = us_per_call(encode)
    out["codec.decode_us_per_frame"] = _div(decode.busy, decode.items) / 1e3
    out["codec.bytes_per_frame"] = _div(encode.items, encode.calls)
    out["codec.frames_per_query"] = _div(encode.calls, q)
    rpcs = {n: s for n, s in timed.items() if n.startswith("net_transport.rpc.")}
    for kind in ("get_successor", "range_solve", "insert"):
        out[f"net_transport.rpc_us_p50.{kind}"] = _p50_us(t(f"net_transport.rpc.{kind}"))
    out["net_transport.rpcs_per_query"] = _div(sum(s.calls for s in rpcs.values()), q)
    out["net_transport.bytes_per_query"] = _div(encode.items, q)
    out["net_transport.rpc_timeouts"] = float(sum(s.errors for s in rpcs.values()))
    out["node.range_query_us_p50"] = _p50_us(t("node.range_query"))
    out["node.ring_snapshot_us_p50"] = _p50_us(t("node.ring_snapshot"))
    out["node.ring_snapshot_frac"] = _div(
        out["node.ring_snapshot_us_p50"], out["node.range_query_us_p50"])
    out["node.owners_per_query"] = _div(t("net_transport.rpc.range_solve").calls, q)
    out["node.route_insert_us_p50"] = _p50_us(t("node.route_insert"))
    preload = setup.get("cluster.insert", zero)
    out["cluster.boot_s"] = setup.get("cluster.start", zero).busy / 1e9
    out["cluster.converge_s"] = setup.get("cluster.wait_converged", zero).busy / 1e9
    out["cluster.preload_entries_per_s"] = _div(preload.items, preload.busy / 1e9)

    out["driver.query_us_p90"] = _tail(untraced.query_us, 90)
    out["driver.query_us_p99"] = _tail(untraced.query_us, 99)
    out["driver.insert_us_p50"] = median(untraced.insert_us) if untraced.insert_us else 0.0
    out["driver.samples"] = float(len(untraced.query_us))
    out["driver.wait_frac"] = 1.0 - _div(untraced.busy_s, untraced.wall_s)
    # both regions replay one query stream: compare the samples they share
    shared = min(len(traced.query_us), len(untraced.query_us))
    out["trace.overhead_ratio"] = _div(
        median(traced.query_us[:shared]), median(untraced.query_us[:shared]))
    for key in ("msgs_per_query", "bytes_per_query", "sim_latency_s_mean"):
        out[f"paper.{key}"] = workload.paper.get(key, 0.0)
    out["check.recall"] = verdict.recall
    out.update(extras)
    if unknown := set(out) - set(PER_LAYER):
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return out
