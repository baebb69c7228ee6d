"""Tests of the benchmark itself.  Run explicitly: ``pytest benchmarks/ledger -q``.

Not part of tier-1 (``testpaths`` is ``tests``): they boot clusters and run
quick-sized workloads, which takes about a minute.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from benchmarks.ledger import check, compare
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER, SPEC, end_to_end
from benchmarks.ledger.trace import TARGETS, Target, Tracer
from benchmarks.ledger.workloads import WORKLOADS, Lap, Region, make_workload

ROOT = Path(__file__).resolve().parents[2]


# -- BENCHMARK.json keeps to the driver's contract ---------------------------------


def test_benchmark_json_keeps_to_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)


# -- the correctness gate ---------------------------------------------------------


def test_check_self_test_reports_truncated_answer_and_dropped_query():
    check.self_test()


# -- the tracer -------------------------------------------------------------------


def _probe_modules():
    """``repro.*``-named modules: ``user`` holds a from-import of ``lib.inner``."""
    lib = types.ModuleType("repro._ledger_probe_lib")
    user = types.ModuleType("repro._ledger_probe_user")
    exec("def inner(n):\n    return sum(range(n))\n", lib.__dict__)
    user.inner = lib.inner
    exec("def outer(n):\n    return inner(n) + inner(n)\n", user.__dict__)
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    return lib, user


def test_tracer_patches_where_bound_nests_self_time_and_restores():
    lib, user = _probe_modules()
    original_inner, original_outer = lib.inner, user.outer
    tracer = Tracer((
        Target(lib.__name__, "inner", "probe.inner"),
        Target(user.__name__, "outer", "probe.outer"),
    ))
    try:
        with tracer:
            assert user.inner is not original_inner, "from-import binding was not patched"
            assert user.outer(20_000) == 2 * sum(range(20_000))
        inner, outer = tracer.stats["probe.inner"], tracer.stats["probe.outer"]
        assert (inner.calls, outer.calls) == (2, 1)
        assert inner.self_ns == inner.busy
        assert outer.self_ns == outer.busy - inner.busy
        assert 0 <= outer.self_ns < outer.busy
        assert lib.inner is original_inner and user.inner is original_inner
        assert user.outer is original_outer
    finally:
        del sys.modules[lib.__name__], sys.modules[user.__name__]


def test_tracer_restores_every_listed_callable():
    import importlib

    def current(target):
        mod_name, _, cls_name = target.owner.partition(":")
        module = importlib.import_module(mod_name)
        owner = getattr(module, cls_name) if cls_name else module
        return owner.__dict__[target.attr]

    before = [current(t) for t in TARGETS]
    with Tracer():
        assert all(current(t) is not b for t, b in zip(TARGETS, before))
    assert all(current(t) is b for t, b in zip(TARGETS, before))


def test_tracer_keeps_a_stack_per_asyncio_task():
    lib, user = _probe_modules()
    exec("import asyncio\nasync def slow(d):\n    await asyncio.sleep(d)\n    return inner(10)\n",
         user.__dict__)
    tracer = Tracer((
        Target(lib.__name__, "inner", "probe.inner"),
        Target(user.__name__, "slow", "probe.slow", samples=True),
    ))

    async def both():
        return await asyncio.gather(user.slow(0.05), user.slow(0.01))

    try:
        with tracer:
            asyncio.run(both())
        slow, inner = tracer.stats["probe.slow"], tracer.stats["probe.inner"]
        assert slow.calls == 2 and inner.calls == 2
        # interleaved tasks: each inner() was charged to its own slow() frame,
        # so no frame saw more child time than its own duration
        assert slow.self_ns > 0 and slow.self_ns == slow.busy - inner.busy
        assert len(slow.samples) == 2
    finally:
        del sys.modules[lib.__name__], sys.modules[user.__name__]


#: span-name prefix -> the quick workloads that must record >= 1 call; every
#: other workload of ``TRACED`` must record 0
TRACED = ("sim_wide", "scale_lookup", "live_mixed")
EXPECT = {
    "landmarks.project": {"sim_wide", "scale_lookup"},
    "lph.lp_hash_batch": {"sim_wide", "scale_lookup"},
    "lph.smallest_enclosing_prefix": {"sim_wide", "live_mixed"},
    "lph.prefix_to_cuboid": {"sim_wide"},
    "query.query_split": {"sim_wide"},
    "routing.issue_many": {"sim_wide"},
    "routing.simulator_run": {"sim_wide", "scale_lookup"},
    "lifecycle.register": {"sim_wide"},
    "lifecycle.open": {"sim_wide"},
    "lifecycle.arm": {"sim_wide"},
    "lifecycle.accept": {"sim_wide"},
    "lifecycle.settle": {"sim_wide"},
    "lifecycle.add_entries": {"sim_wide"},
    "lifecycle.run_until_complete": {"sim_wide"},
    "storage.shard_range_search": {"sim_wide", "live_mixed"},
    "storage.store_range_search": {"scale_lookup"},
    "storage.shard_add": {"sim_wide", "live_mixed"},
    "storage.persistent_add": {"live_mixed"},
    "storage.wal_append": {"live_mixed"},
    "storage.os_fsync": {"live_mixed"},
    "platform.run_workload": {"sim_wide"},
    "platform.create_index": {"sim_wide"},
    "platform.make_queries": {"sim_wide"},
    "platform.refine_distances": {"sim_wide"},
    "dht.next_hop": {"sim_wide"},
    "compact.build": {"scale_lookup"},
    "compact.route_batch": {"scale_lookup"},
    "transport.send": {"sim_wide"},
    "obs.observe_many": {"scale_lookup"},
    "scale.init": {"scale_lookup"},
    "scale.run": {"scale_lookup"},
    "codec.encode": {"live_mixed"},
    "codec.decode": {"live_mixed"},
    "net_transport.rpc": {"live_mixed"},
    "net_transport.send": set(),   # the live node speaks RPC only: one-way sends stay 0
    "node.range_query": {"live_mixed"},
    "node.ring_snapshot": {"live_mixed"},
    "node.route_insert": {"live_mixed"},
    "cluster.start": {"live_mixed"},
    "cluster.wait_converged": {"live_mixed"},
    "cluster.insert": {"live_mixed"},
}


@pytest.fixture(scope="module")
def traced_calls(tmp_path_factory):
    """Span name -> calls, for a quick traced set-up + short region per workload."""

    async def run(name):
        workload = make_workload(name, quick=True, scratch=tmp_path_factory.mktemp(name) / "c")
        tracer = Tracer()
        try:
            with tracer:
                await workload.setup(0)
                await workload.warmup()
                await workload.timed(0.5, Region(), tracer)
        finally:
            await workload.close()
        calls: dict[str, int] = {}
        for span, stat in tracer.stats.items():
            key = "net_transport.rpc" if span.startswith("net_transport.rpc.") else span
            calls[key] = calls.get(key, 0) + stat.calls
        return calls

    return {name: asyncio.run(run(name)) for name in TRACED}


def test_every_target_has_an_expectation():
    assert {t.name for t in TARGETS} == set(EXPECT)


@pytest.mark.parametrize("span", sorted(EXPECT))
def test_callable_records_on_the_workloads_that_exercise_it_and_only_those(traced_calls, span):
    for name in TRACED:
        calls = traced_calls[name].get(span, 0)
        if name in EXPECT[span]:
            assert calls >= 1, f"{span} recorded nothing on {name}"
        else:
            assert calls == 0, f"{span} recorded {calls} calls on {name}"


# -- arithmetic ---------------------------------------------------------------------


def test_end_to_end_takes_medians_over_the_rounds_at_reference_speed():
    def region(ops, lap, slowdown, samples):
        out = Region(counters={"queries": ops})
        out.step(lap, slowdown, samples)
        return out

    # the middle round ran on a box twice as slow as nominal and waited a
    # second for the disk: same rate, same samples
    rounds = [region(10, Lap(1.0, 1.0), 1.0, [5.0, 6.0]), region(10, Lap(5.0, 4.0), 2.0, [18.0]),
              region(10, Lap(0.5, 0.5), 1.0, [1.0, 7.0])]
    assert (rounds[1].wall_s, rounds[1].busy_s, rounds[1].ref_busy_s) == (5.0, 4.0, 2.0)
    assert end_to_end([3.0, 1.0, 2.0], rounds, 64.0) == {
        "setup_s": 2.0, "ops_per_s": 10.0, "query_us_p50": 6.0, "peak_rss_mb": 64.0}
    mixed = Region(counters={"queries": 8, "inserts": 2})
    mixed.step(Lap(4.5, 4.0), 2.0, [], [30.0])
    assert mixed.ops_per_s == 5.0 and mixed.insert_us == [15.0]


def test_reference_kernel_reads_near_nominal_and_leaves_gc_as_it_was():
    import gc

    from benchmarks.ledger import reference

    readings = sorted(reference.slowdown() for _ in range(9))
    # the scale constant is from the build box; an order of magnitude off means
    # the kernel changed and every time "at reference speed" with it
    assert 0.2 < readings[4] < 5.0
    assert gc.isenabled()


def _ledger(seed, value, recall=1.0):
    entry = {
        "end_to_end": {n: {"value": value, "unit": u} for n, u in END_TO_END.items()},
        "per_layer": {n: {"value": recall if n == "check.recall" else 3.0, "unit": u}
                      for n, u in PER_LAYER.items()},
        "end_to_end_check": {"correct": True}, "per_layer_check": {"correct": True},
    }
    return {"seed": seed, "workloads": {"sim_wide": entry}}


def test_compare_marks_ok_worse_and_unresolved():
    def verdicts(base, *others):
        rows, any_worse = compare.compare(SPEC, base, list(others))
        return {r.split()[1]: r.split()[6] for r in rows[1:]}, any_worse

    same, worse = verdicts(_ledger(1, 100.0), _ledger(1, 101.0))
    assert not worse and set(same.values()) == {"ok"}
    # +40 %: worse for the lower-is-better metrics, better for ops_per_s
    v, worse = verdicts(_ledger(1, 100.0), _ledger(1, 140.0))
    assert worse and v["query_us_p50"] == "worse" and v["ops_per_s"] == "ok"
    v, worse = verdicts(_ledger(1, 100.0), _ledger(1, 140.0), _ledger(1, 100.0))
    assert not worse and v["query_us_p50"] == "unresolved"
    # exact counts are held to bit-identity only between runs of one seed
    v, worse = verdicts(_ledger(1, 100.0), _ledger(1, 100.0, recall=0.99))
    assert worse and v["check.recall"] == "worse"
    v, worse = verdicts(_ledger(1, 100.0), _ledger(2, 100.0, recall=0.99))
    assert not worse and "check.recall" not in v


# -- the command ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_output_shape(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "live_query", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == (PER_LAYER if trace else END_TO_END)
    if trace:
        assert result["metrics"]["codec.frames_per_query"]["value"] > 0
        assert result["metrics"]["lph.prefix_to_cuboid_calls_per_query"]["value"] == 0
        assert any(tmp_path.glob("trace-live_query-seed5.jsonl"))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(tmp_path.glob("cluster-*")), "live scratch files were left behind"


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, exit non-zero."""
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in Path(__file__).parent.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "sim_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
