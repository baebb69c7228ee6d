"""Tests for the Chord stabilisation protocol, churn repair and piggybacking."""

import numpy as np
import pytest

from repro.dht.maintenance import ChordState
from repro.dht.ring import ChordRing
from repro.dht.stabilize import (
    CONTROL_MESSAGE_BYTES,
    MaintenanceConfig,
    StabilizationProtocol,
)
from repro.sim.engine import Simulator
from repro.sim.king import king_latency_model
from repro.sim.network import ConstantLatency
from repro.sim.transport import Transport


def _setup(n=24, m=20, seed=0, config=None):
    latency = ConstantLatency(n, delay=0.01)
    ring = ChordRing.build(n, m=m, seed=seed, latency=latency, pns=False)
    sim = Simulator()
    proto = StabilizationProtocol(ring, Transport(sim), config=config or MaintenanceConfig(),
                                  seed=seed)
    return ring, sim, proto


@pytest.mark.parametrize("kwargs", [
    {"stabilize_interval": 0.0},  # rounds at one instant: the clock stops
    {"stabilize_interval": -1.0},
    {"stabilize_interval": float("nan")},
    {"piggyback_window": -1.0},
    {"piggyback_window": float("nan")},
])
def test_maintenance_config_refuses_bad_timers(kwargs):
    with pytest.raises(ValueError):
        MaintenanceConfig(**kwargs)


class TestSteadyState:
    def test_oracle_ring_already_consistent(self):
        _, _, proto = _setup()
        assert proto.ring_consistent()
        assert proto.finger_accuracy() == 1.0

    def test_pns_oracle_ring_reads_fully_accurate(self):
        """A PNS finger is any live member of its level's interval, not the
        successor of the level's start: the oracle's own tables read 1.0."""
        latency = king_latency_model(n_hosts=28, seed=45)
        ring = ChordRing.build(24, m=24, seed=45, latency=latency, pns=True,
                               successor_list_len=4)
        proto = StabilizationProtocol(ring, Transport(Simulator()))
        two_m = 1 << ring.m
        assert any(f["node"] is not ring.successor_of((n.id + (1 << i)) % two_m)
                   for n in ring.nodes() for i, f in n.fingers.items())
        assert proto.finger_accuracy() == 1.0

    def test_finger_naming_a_crashed_node_is_not_accurate(self):
        ring, _, proto = _setup(n=16)
        victim = ring.nodes()[4]
        proto.leave(victim, graceful=False)
        held = [f["node"] is victim for n in ring.nodes() for f in n.fingers.values()]
        assert any(held)
        assert proto.finger_accuracy() == 1 - sum(held) / len(held)

    def test_stabilize_preserves_consistency(self):
        ring, sim, proto = _setup()
        proto.start(duration=200.0)
        sim.run(until=200.0)
        assert proto.ring_consistent()
        assert proto.stats.messages > 0

    def test_maintenance_cost_accumulates(self):
        ring, sim, proto = _setup()
        proto.start(duration=100.0)
        sim.run(until=100.0)
        assert proto.stats.bytes == proto.stats.messages * CONTROL_MESSAGE_BYTES


class TestJoin:
    def test_join_converges(self):
        ring, sim, proto = _setup(n=16)
        proto.start(duration=2000.0)
        bootstrap = ring.nodes()[0]
        new_id = 12345
        while new_id in ring.nodes_by_id:
            new_id += 1
        node = proto.join(new_id, bootstrap, name="joiner", host=0)
        assert len(ring) == 17
        # before stabilisation the predecessor's successor may be stale...
        sim.run(until=500.0)
        # ...after a few rounds the ring is consistent again
        assert proto.ring_consistent()
        # and the new node has a predecessor
        assert node.predecessor is not None

    def test_many_joins_converge(self):
        ring, sim, proto = _setup(n=12, m=20)
        proto.start(duration=5000.0)
        rng = np.random.default_rng(0)
        t = 10.0
        for i in range(8):
            nid = int(rng.integers(0, 2**20))
            while nid in ring.nodes_by_id:
                nid = int(rng.integers(0, 2**20))
            bootstrap = ring.nodes()[int(rng.integers(0, len(ring)))]
            sim.schedule_at(t, proto.join, nid, bootstrap, f"j{i}", 0)
            t += 50.0
        sim.run(until=3000.0)
        assert len(ring) == 20
        assert proto.ring_consistent()
        assert proto.stats.joins == 8

    def test_fingers_converge_after_join(self):
        ring, sim, proto = _setup(n=12, m=16, config=MaintenanceConfig(stabilize_interval=5.0))
        proto.start(duration=5000.0)
        proto.join(54321 % (1 << 16), ring.nodes()[0], host=0)
        sim.run(until=3000.0)
        assert proto.finger_accuracy() > 0.95


class TestLeaveAndCrash:
    def test_graceful_leave_repairs_immediately(self):
        ring, sim, proto = _setup(n=16)
        victim = ring.nodes()[5]
        proto.leave(victim, graceful=True)
        assert proto.ring_consistent()
        assert proto.stats.leaves == 1

    def test_crash_repaired_by_stabilization(self):
        ring, sim, proto = _setup(n=16)
        proto.start(duration=2000.0)
        victim = ring.nodes()[5]
        sim.schedule_at(10.0, proto.leave, victim, False)
        sim.run(until=500.0)
        assert proto.stats.crashes == 1
        assert proto.ring_consistent()

    def test_multiple_crashes_survive_successor_list(self):
        ring, sim, proto = _setup(n=24)
        proto.start(duration=5000.0)
        victims = ring.nodes()[3:7]  # four consecutive nodes (< list length)
        for i, v in enumerate(victims):
            sim.schedule_at(10.0 + i, proto.leave, v, False)
        sim.run(until=1000.0)
        assert proto.ring_consistent()

    def test_local_lookup_correct_after_churn(self):
        ring, sim, proto = _setup(n=20)
        proto.start(duration=5000.0)
        sim.schedule_at(10.0, proto.leave, ring.nodes()[3], False)
        sim.schedule_at(20.0, proto.join, 999999 % (1 << 20), ring.nodes()[0], "x", 0)
        sim.run(until=2000.0)
        rng = np.random.default_rng(1)
        for _ in range(30):
            key = int(rng.integers(0, 2**20))
            start = ring.nodes()[int(rng.integers(0, len(ring)))]
            owner, _ = proto.local_lookup(start, key)
            assert owner is ring.successor_of(key)


class TestTheNodeIsItsState:
    """A simulated node is a ``ChordState``, as a live node is: the driver
    runs each operation on it and builds no state of its own."""

    def test_maintenance_builds_state_only_for_a_joiner(self, monkeypatch):
        ring, sim, proto = _setup(n=16, config=MaintenanceConfig(stabilize_interval=5.0))
        built = []
        init = ChordState.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChordState, "__init__", counted)
        proto.start(duration=600.0)
        sim.schedule_at(50.0, proto.join, 12345, ring.nodes()[0], "joiner", 0)
        sim.schedule_at(80.0, proto.leave, ring.nodes()[3], False)
        sim.run(until=600.0)
        assert proto.stats.messages > 1000 and proto.ring_consistent()
        assert built == [12345], f"{len(built)} states built"
        assert all(isinstance(node, ChordState) for node in ring.nodes())

    def test_no_translation_layer_and_no_bare_state_in_src(self):
        import ast
        from pathlib import Path

        import repro

        proto = _setup()[2]
        for name in ("_entry", "_state", "_store", "_entries", "_bootstraps", "_finger_cursor"):
            assert not hasattr(proto, name), name
        # only ChordNode and NodeProcess construct a ChordState
        src = Path(repro.__file__).parent
        bare = [path.relative_to(src).as_posix()
                for path in sorted(src.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ChordState"]
        assert bare == []


class TestPiggybacking:
    def test_piggyback_saves_bytes(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=60.0)
        ring, sim, proto = _setup(config=cfg)
        # simulate query traffic on all links used by stabilisation
        links = proto.transport.query_links
        for node in ring.nodes():
            links[(node.host, node.successor_node().host)] = 0.0
            links[(node.successor_node().host, node.host)] = 0.0
        proto.start(duration=50.0)
        sim.run(until=50.0)
        assert proto.stats.piggybacked > 0
        assert proto.stats.bytes_saved > 0

    def test_no_piggyback_without_traffic(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=5.0)
        ring, sim, proto = _setup(config=cfg)
        proto.start(duration=50.0)
        sim.run(until=50.0)
        assert proto.stats.piggybacked == 0

    def test_window_expiry(self):
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=1.0)
        ring, sim, proto = _setup(config=cfg)
        node = ring.nodes()[0]
        proto.transport.query_links[(node.host, node.successor_node().host)] = 0.0
        sim.run(until=10.0)  # advance the clock past the window
        before = proto.stats.piggybacked
        proto.stabilize(node)
        assert proto.stats.piggybacked == before

    def test_piggyback_costs_less_than_standalone(self):
        runs = {}
        for piggyback in (False, True):
            cfg = MaintenanceConfig(piggyback=piggyback, piggyback_window=1e9)
            ring, sim, proto = _setup(config=cfg, seed=3)
            links = proto.transport.query_links
            for node in ring.nodes():
                for other in ring.nodes():
                    if links is not None:
                        links[(node.host, other.host)] = 0.0
            proto.start(duration=100.0)
            sim.run(until=100.0)
            runs[piggyback] = proto.stats.bytes
        assert runs[True] < runs[False]


class TestQueryProtocolIntegration:
    def test_query_traffic_feeds_piggybacking(self):
        import numpy as np

        from repro.core.platform import IndexPlatform
        from repro.metric.vector import EuclideanMetric

        latency = ConstantLatency(16, delay=0.01)
        ring = ChordRing.build(16, m=20, seed=2, latency=latency, pns=False)
        platform = IndexPlatform(ring)
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 100, size=(300, 4))
        platform.create_index(
            "idx", data, EuclideanMetric(box=(0, 100), dim=4), k=3, seed=0
        )
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=1e9)
        maint = StabilizationProtocol(ring, platform.transport, config=cfg, seed=0)
        proto, stats = platform.protocol("idx")
        index = platform.indexes["idx"]
        for qid in range(20):
            proto.issue(index.make_query(data[qid], 60.0, qid=qid), ring.nodes()[qid % 16])
        platform.sim.run()
        assert platform.transport.query_links  # traffic recorded
        maint.start(duration=50.0)
        platform.sim.run(until=platform.sim.now + 50.0)
        assert maint.stats.piggybacked > 0


class TestOnThePlatformTransport:
    """Maintenance runs on the platform's transport, beside the queries: its
    faults, counters and §3.3 link stamps are the ones queries meet."""

    @staticmethod
    def _platform(faults=None, n=32):
        from repro.core.platform import IndexPlatform
        from repro.metric.vector import EuclideanMetric

        latency = ConstantLatency(n, delay=0.01)
        ring = ChordRing.build(n, m=20, seed=2, latency=latency, pns=False)
        platform = IndexPlatform(ring, faults=faults)
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 100, size=(400, 4))
        platform.create_index("idx", data, EuclideanMetric(box=(0, 100), dim=4), k=3, seed=0)
        return platform, data

    def test_faults_drop_control_messages_and_run_workload_counts_them(self):
        from repro.datasets.queries import QueryWorkload
        from repro.sim.transport import FaultConfig

        platform, data = self._platform(FaultConfig(loss_rate=0.2, seed=1))
        maint = StabilizationProtocol(platform.ring, platform.transport, seed=0)
        maint.start(duration=600.0)
        platform.sim.run(until=100.0)               # maintenance alone so far
        ts = platform.transport.stats
        assert ts.sent == ts.maintenance_messages > 0
        assert ts.dropped_loss > 0                  # control messages were lost
        before = ts.maintenance_messages
        workload = QueryWorkload.build(data[:20], 20.0, len(platform.ring),
                                       mean_interarrival=20.0, start_time=100.0)
        stats = platform.run_workload("idx", workload, reset_sim=False)
        assert stats.maintenance_messages == ts.maintenance_messages - before > 0

    def test_a_default_run_workload_refuses_to_drop_started_maintenance(self):
        """``reset_sim=True`` would discard the maintenance timers and the
        run would silently send no control message: it raises instead, and
        ``reset_sim=False`` runs the queries beside the maintenance."""
        from repro.datasets.queries import QueryWorkload

        platform, data = self._platform()
        maint = StabilizationProtocol(platform.ring, platform.transport, seed=0)
        maint.start(duration=3000.0)
        workload = QueryWorkload.build(data[:20], 20.0, len(platform.ring),
                                       mean_interarrival=60.0)
        with pytest.raises(ValueError, match=r"drop \d+ queued timers.*reset_sim=False"):
            platform.run_workload("idx", workload)
        before = maint.stats.messages
        stats = platform.run_workload("idx", workload, reset_sim=False)
        assert stats.maintenance_messages > 0
        assert maint.stats.messages > before

    def test_a_default_run_workload_resets_over_tombstones_alone(self):
        """Deadline timers cancelled by settled queries stay queued as
        tombstones; they do not block the next default run."""
        from repro.core.lifecycle import RetryPolicy
        from repro.datasets.queries import QueryWorkload

        platform, data = self._platform()
        workload = QueryWorkload.build(data[:20], 20.0, len(platform.ring),
                                       mean_interarrival=1.0)
        first = platform.run_workload("idx", workload, policy=RetryPolicy(deadline=500.0))
        assert platform.sim.pending() > platform.sim.pending_live() == 0
        second = platform.run_workload("idx", workload, policy=RetryPolicy(deadline=500.0))
        assert [q.entries for q in second.queries.values()] == [
            q.entries for q in first.queries.values()]

    def test_a_default_run_workload_resets_over_messages_left_in_flight(self):
        """Under loss and jitter a short deadline and RTO leave timed-out
        branches and duplicate retransmissions in flight once every query has
        settled; they are leftovers, not timers, and the next default run
        resets over them."""
        from repro.core.lifecycle import RetryPolicy
        from repro.datasets.queries import QueryWorkload
        from repro.sim.transport import FaultConfig

        platform, data = self._platform(FaultConfig(loss_rate=0.2, jitter=0.05, seed=1))
        workload = QueryWorkload.build(data[:40], 20.0, len(platform.ring),
                                       mean_interarrival=0.01)
        policy = RetryPolicy(deadline=0.05, max_retries=3, rto=0.02)
        platform.run_workload("idx", workload, policy=policy)
        assert platform.sim.pending_live() > platform.transport.pending_timers() == 0
        end = platform.sim.now
        second = platform.run_workload("idx", workload, policy=policy)
        issued = sorted(q.issued_at for q in second.queries.values())
        assert issued == sorted(workload.arrival_times) and issued[0] < end   # rewound
        assert all(q.state in ("complete", "timed_out") for q in second.queries.values())

    def test_a_naive_protocol_on_the_transport_makes_control_messages_piggyback(self):
        from repro.core.naive import NaiveProtocol

        platform, data = self._platform()
        cfg = MaintenanceConfig(piggyback=True, piggyback_window=1e9)
        maint = StabilizationProtocol(platform.ring, platform.transport, config=cfg, seed=0)
        naive = NaiveProtocol(platform.transport, platform.indexes["idx"])
        nodes = platform.ring.nodes()
        for qid in range(20):
            naive.issue(platform.indexes["idx"].make_query(data[qid], 60.0, qid=qid),
                        nodes[qid % len(nodes)])
        platform.sim.run()
        assert platform.transport.query_links
        maint.start(duration=50.0)
        platform.sim.run(until=platform.sim.now + 50.0)
        assert maint.stats.piggybacked > 0
        assert maint.stats.bytes_saved > 0

    def test_no_protocol_builds_or_is_handed_a_transport_of_its_own(self):
        import ast
        import inspect
        from pathlib import Path

        import repro
        import repro.sim
        import repro.sim.transport
        from benchmarks.baselines.scrap import SfcRangeProtocol
        from repro.core.naive import NaiveProtocol
        from repro.core.routing import QueryProtocol

        assert "Protocol" not in repro.sim.__all__ and not hasattr(repro.sim, "Protocol")
        assert not hasattr(repro.sim.transport, "Protocol")
        for cls in (QueryProtocol, NaiveProtocol, SfcRangeProtocol, StabilizationProtocol):
            params = inspect.signature(cls).parameters
            assert not {"sim", "latency", "maintenance"} & set(params), cls
            assert params["transport"].default is inspect.Parameter.empty, cls
        # in the library, only IndexPlatform constructs a simulator transport
        src = Path(repro.__file__).parent
        builders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "Transport":
                        builders.append(path.relative_to(src).as_posix())
        assert builders == ["core/platform.py"]
