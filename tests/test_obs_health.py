"""Health sampler: periodic snapshots on the sim clock, churn, gauges."""

import numpy as np

from repro.dht.ring import ChordRing
from repro.obs.health import HealthSampler
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator


def test_sampler_does_not_keep_sim_alive():
    """The sampler's own timer must never be the only thing in the queue:
    ``sim.run()`` has to terminate once real work drains."""
    sim = Simulator()
    sampler = HealthSampler(sim, interval=1.0)
    sampler.start()
    sim.schedule_in(3.5, lambda: None)  # some real work until t=3.5
    sim.run()
    assert sim.now <= 4.5  # the tick after the last event stops itself
    times = [s.time for s in sampler.samples]
    assert times == [1.0, 2.0, 3.0, 4.0]


def test_sampler_with_duration_runs_to_the_end():
    sim = Simulator()
    sampler = HealthSampler(sim, interval=1.0)
    sampler.start(duration=3.0)
    sim.run()
    assert [s.time for s in sampler.samples] == [1.0, 2.0, 3.0]


def test_start_on_a_running_sampler_extends_its_horizon():
    sim = Simulator()
    sampler = HealthSampler(sim, interval=1.0)
    sampler.start(duration=2.0)
    sim.run(until=1.0)
    sampler.start(duration=3.0)  # now 1.0: the horizon moves from 2.0 to 4.0
    sampler.start(duration=1.0)  # an earlier horizon does not shorten it
    sim.run()
    assert [s.time for s in sampler.samples] == [1.0, 2.0, 3.0, 4.0]


def test_sample_fields_and_series():
    sim = Simulator()
    loads = np.array([0, 0, 5, 10, 85], dtype=np.int64)
    sampler = HealthSampler(sim, interval=1.0, load_fn=lambda: loads)
    sim.schedule_in(2.5, lambda: None)
    sampler.start()
    sim.run()
    s = sampler.samples[0]
    assert s.event_queue_depth >= 0
    assert s.load_deciles[0] == 0.0 and s.load_deciles[-1] == 85.0
    times, depths = sampler.series("event_queue_depth")
    assert times == [s.time for s in sampler.samples]
    assert len(depths) == len(times)
    rows = sampler.to_dicts()
    assert rows[0]["load_deciles"][-1] == 85.0


def test_sampler_sees_node_churn():
    """live_nodes tracks ring membership as nodes crash mid-run."""
    ring = ChordRing.build(16, m=32, seed=0)
    sim = Simulator()
    sampler = HealthSampler(sim, interval=1.0, ring=ring)
    total = len(ring.nodes())

    def crash_some():
        for node in ring.nodes()[:4]:
            ring.remove_node(node)

    sim.schedule_in(1.5, crash_some)
    sim.schedule_in(3.5, lambda: None)
    sampler.start()
    sim.run()
    _, live = sampler.series("live_nodes")
    assert live[0] == total
    assert live[-1] == total - 4


def test_sampler_updates_registry_gauges():
    sim = Simulator()
    reg = MetricsRegistry()
    sampler = HealthSampler(
        sim, interval=1.0, registry=reg,
        load_fn=lambda: np.array([1, 2, 3], dtype=np.int64),
    )
    sim.schedule_in(2.2, lambda: None)
    sampler.start()
    sim.run()
    assert reg.get("health_samples_total").total() == len(sampler.samples)
    assert reg.get("health_event_queue_depth") is not None
    # decile gauges labeled by percentile
    decile = reg.get("health_load_decile")
    assert decile.value(("100",)) == 3.0


def test_engine_in_flight_branches_probe():
    sim = Simulator()

    class FakeEngine:
        def branches_in_flight(self):
            return 7

    sampler = HealthSampler(sim, interval=1.0, engine=FakeEngine())
    sim.schedule_in(1.2, lambda: None)
    sampler.start()
    sim.run()
    assert sampler.samples[0].in_flight_branches == 7


def test_stop_prevents_further_samples():
    sim = Simulator()
    sampler = HealthSampler(sim, interval=1.0)
    sim.schedule_in(5.0, lambda: None)
    sampler.start()

    def stop_it():
        sampler.stop()

    sim.schedule_in(2.5, stop_it)
    sim.run()
    assert [s.time for s in sampler.samples] == [1.0, 2.0]
