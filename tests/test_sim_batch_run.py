"""One ``Simulator.run()`` per batch: ``stop()``, the ``max_events`` cap, and
``LifecycleEngine.run_until_complete`` held to what the per-event loop left.

``run_until_complete`` used to re-enter ``Simulator.run(max_events=1)`` once
per event; it now calls ``run()`` once and a done-callback stops it.  What the
caller can observe afterwards — the clock, the event count, the schedule
digest and what is left queued — is pinned by a fixture the *parent* commit
wrote (``fixtures/run_until_complete_pr22.json``, recipe:
:func:`run_until_complete_scenarios`).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.lifecycle import LifecycleEngine, RetryPolicy
from repro.core.platform import IndexPlatform
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.engine import Simulator
from repro.sim.king import king_latency_model
from repro.sim.transport import FaultConfig, Transport

FIXTURE = Path(__file__).parent / "fixtures" / "run_until_complete_pr22.json"
DIM = 5


def _observed(sim, returned):
    return [sim.now.hex(), sim.events_processed, sim.schedule_digest,
            sim.pending(), returned]


def _batch(faults, policy):
    """Twelve pipelined queries beside a maintenance-like ticker and a
    far-future marker; the first six futures are awaited, then all twelve,
    then all twelve again (every one already terminal)."""
    n_nodes = 24
    rng = np.random.default_rng(23)
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(
        centers[rng.integers(0, 3, size=600)] + rng.normal(0, 4, size=(600, DIM)),
        0, 100)
    latency = king_latency_model(n_hosts=n_nodes, seed=23)
    ring = ChordRing.build(n_nodes, m=24, seed=23, latency=latency, pns=False)
    p = IndexPlatform(ring, latency=latency, faults=faults)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3, sample_size=200,
        seed=3)
    sim = p.sim
    sim.digest_enabled = True
    ticks = []

    def tick():
        ticks.append(sim.now)
        return len(ticks) < 400

    sim.every(0.01, tick)
    sim.schedule_at(1e6, ticks.append, "marker")
    workload = QueryWorkload.build(
        data[:12], 0.05 * 100.0 * DIM ** 0.5, n_nodes=n_nodes,
        mean_interarrival=0.25, seed=7)
    engine = p.lifecycle(policy)
    proto, _ = p.protocol("t", engine=engine)
    nodes = ring.nodes()
    queries = p.indexes["t"].make_queries(
        workload.points, workload.radii, qids=range(len(workload)))
    futures = proto.issue_many(
        queries,
        [nodes[int(s) % len(nodes)] for s in workload.source_nodes],
        [float(t) for t in workload.arrival_times],
    )
    out = {}
    out["first_six"] = _observed(sim, engine.run_until_complete(futures[:6]))
    out["all_twelve"] = _observed(sim, engine.run_until_complete(futures))
    out["already_terminal"] = _observed(sim, engine.run_until_complete(futures))
    out["states"] = [f.state for f in futures]
    return out


def _queue_drains_first():
    """A registered query that never opens a branch cannot finish: the run
    ends when the queue is empty and reports False."""
    transport = Transport()
    sim = transport.sim
    sim.digest_enabled = True
    engine = LifecycleEngine(transport)
    fut = engine.register(0)
    fired = []
    for i in range(5):
        sim.schedule_in(0.25 * (i + 1), fired.append, i)
    sim.schedule_cancelable_in(0.6, fired.append, "cancelled").cancel()
    return {"drained": _observed(sim, engine.run_until_complete([fut])),
            "fired": fired}


def run_until_complete_scenarios():
    """The runs behind ``fixtures/run_until_complete_pr22.json``.

    Written at commit ef21743 — the last one whose ``run_until_complete``
    stepped the simulator with ``run(max_events=1)`` — with::

        PYTHONPATH=src python -c "import json, tests.test_sim_batch_run as t; \
            print(json.dumps({'written_by': 'ef21743', \
                              'scenarios': t.run_until_complete_scenarios()}))"
    """
    return {
        "mid_queue": _batch(None, RetryPolicy(deadline=500.0)),
        "mid_queue_lossy": _batch(
            FaultConfig(loss_rate=0.1, seed=5),
            RetryPolicy(deadline=500.0, max_retries=2, rto=2.0)),
        "queue_drains_first": _queue_drains_first(),
    }


def test_run_until_complete_replays_the_per_event_loop_fixture():
    want = json.loads(FIXTURE.read_text())["scenarios"]
    got = run_until_complete_scenarios()
    # the scenarios are what their names say, not vacuous
    mid = got["mid_queue"]
    assert mid["first_six"][1] < mid["all_twelve"][1]
    assert mid["all_twelve"][3] > 0 and mid["all_twelve"][4] is True
    assert mid["already_terminal"] == mid["all_twelve"]
    assert got["queue_drains_first"]["drained"][3:] == [0, False]
    assert got == want


class TestStop:
    def test_stops_after_the_event_in_progress_not_before(self):
        sim = Simulator()
        out = []

        def second():
            sim.stop()
            out.append("b")  # the event that asked still runs to its end

        sim.schedule_in(1.0, out.append, "a")
        sim.schedule_in(2.0, second)
        sim.schedule_in(3.0, out.append, "c")
        sim.run()
        assert out == ["a", "b"]
        assert sim.now == 2.0 and sim.events_processed == 2 and sim.pending() == 1
        sim.run()
        assert out == ["a", "b", "c"]

    def test_stop_outside_a_run_does_not_shorten_the_next(self):
        sim = Simulator()
        out = []
        sim.stop()
        for i in range(3):
            sim.schedule_in(float(i + 1), out.append, i)
        sim.run()
        assert out == [0, 1, 2]

    def test_stop_left_over_from_a_finished_run_is_forgotten(self):
        sim = Simulator()
        out = []
        sim.schedule_in(1.0, sim.stop)  # last event of its run
        sim.run()
        assert sim.pending() == 0
        for i in range(3):
            sim.schedule_in(float(i + 1), out.append, i)
        sim.run()
        assert out == [0, 1, 2]

    def test_stop_ends_the_innermost_run_only(self):
        sim = Simulator()
        out = []

        def nested():
            sim.schedule_in(0.0, sim.stop)
            sim.schedule_in(0.0, out.append, "inner-left")
            sim.run()  # returns after its first event
            out.append("nested-done")

        sim.schedule_in(1.0, nested)
        sim.schedule_in(2.0, out.append, "outer")
        sim.run()
        assert out == ["nested-done", "inner-left", "outer"]

    def test_until_clock_handling_is_unchanged_by_stop(self):
        sim = Simulator()
        sim.schedule_in(1.0, sim.stop)
        sim.schedule_in(5.0, lambda: None)
        sim.run(until=3.0)  # stopped at 1.0; nothing else is due by 3.0
        assert sim.now == 3.0 and sim.pending() == 1
        sim = Simulator()
        sim.schedule_in(1.0, sim.stop)
        sim.schedule_in(2.0, lambda: None)
        sim.run(until=3.0)  # stopped with an event still due before `until`
        assert sim.now == 1.0 and sim.pending() == 1


class TestMaxEvents:
    def test_zero_runs_nothing(self):
        sim = Simulator()
        out = []
        sim.schedule_in(1.0, out.append, "x")
        sim.run(max_events=0)
        assert out == [] and sim.now == 0.0 and sim.pending() == 1

    @pytest.mark.parametrize("cap", [1, 3, 10, 11])
    def test_cap_counts_popped_events(self, cap):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule_in(float(i + 1), out.append, i)
        sim.run(max_events=cap)
        assert len(out) == min(cap, 10) == sim.events_processed
