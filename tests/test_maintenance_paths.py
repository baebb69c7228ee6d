"""A churned simulator ring's maintenance, pinned to a fixture.

:func:`maintenance_scenario` drives :class:`~repro.dht.stabilize.StabilizationProtocol`
over a 24-node Chord-PNS ring with short successor lists, §3.3 piggybacking
on and a live query workload: two crashes, a graceful leave, a join and a
dynamic-load-migration move between rounds.  The test holds the maintenance
counters (the protocol's and the transport's), the query costs routed over
the churned tables, every live node's successor ids, predecessor id,
``[level, id]`` fingers in table order and next finger level at the end, and
every 3 s the finger accuracy, the fingers and routing table of each node and
its next hop for five keys, to ``fixtures/maintenance_paths.json``.  Its
``written_by`` field names the commit the figures were recorded on; they were
recorded when a simulated node came to hold just the finger levels the
maintenance step holds, as a live node does.
"""

import dataclasses
import json
import zlib
from pathlib import Path

import numpy as np

from repro.core.loadbalance import dynamic_load_migration
from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.dht.stabilize import MaintenanceConfig, StabilizationProtocol
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

FIXTURE = Path(__file__).parent / "fixtures" / "maintenance_paths.json"
N_NODES = 24
M = 24
DURATION = 900.0


def maintenance_scenario(sample):
    """The churned run: returns the platform, the protocol, the query stats
    and the load-migration report; ``sample(ring, protocol)`` is called every
    3 s of it."""
    rng = np.random.default_rng(45)
    centers = rng.uniform(0, 100, size=(3, 4))
    data = np.clip(centers[rng.integers(0, 3, size=600)] + rng.normal(0, 6, size=(600, 4)),
                   0, 100)
    latency = king_latency_model(n_hosts=N_NODES + 4, seed=45)
    ring = ChordRing.build(N_NODES, m=M, seed=45, latency=latency, pns=True,
                           successor_list_len=4)
    platform = IndexPlatform(ring, latency=latency)
    platform.create_index("idx", data, EuclideanMetric(box=(0, 100), dim=4), k=3, seed=45)
    index = platform.indexes["idx"]
    maint = StabilizationProtocol(
        ring, platform.transport,
        config=MaintenanceConfig(stabilize_interval=10.0, piggyback=True,
                                 piggyback_window=15.0),
        seed=45)
    proto, stats = platform.protocol("idx")
    nodes = ring.nodes()
    t, qid = 5.0, 0
    while t < DURATION:
        src = nodes[int(rng.integers(0, len(nodes)))]
        proto.issue(index.make_query(data[int(rng.integers(0, len(data)))], 12.0, qid=qid),
                    src, at_time=t)
        qid += 1
        t += float(rng.exponential(6.0))
    report = {}

    def migrate():
        report["moves"] = dynamic_load_migration(platform, max_rounds=1, seed=45).moves

    maint.start(duration=DURATION)
    sim = platform.sim
    for at in np.arange(1.5, DURATION, 3.0):
        sim.schedule_at(float(at), sample, ring, maint)
    sim.schedule_at(100.0, maint.leave, nodes[5], False)
    sim.schedule_at(160.0, maint.join, 0x5A5A5A, nodes[11], "joiner", N_NODES)
    sim.schedule_at(260.0, migrate)
    sim.schedule_at(330.0, maint.leave, nodes[17], False)
    sim.schedule_at(331.0, maint.leave, nodes[18], True)
    sim.run(until=DURATION)
    return platform, maint, stats, report


def _query_costs(stats):
    return _crc([
        [q.qid, q.max_hops, q.query_messages, q.result_messages, q.dropped_messages,
         sorted(q.index_nodes), len(q.entries)]
        for q in sorted(stats.queries.values(), key=lambda q: q.qid)])


#: ring positions whose next hop every live node reports at each sample
KEYS = (0, 0x123456, 0x7FFFFF, 0xABCDEF, 0xFFFFFF)


def _sample(samples):
    def sample(ring, maint):
        nodes = ring.nodes()
        samples.append([
            maint.finger_accuracy(),
            _crc([[[i, e["node"].id] for i, e in n.fingers.items()] for n in nodes]),
            _crc([[t.id for t in n.routing_table()] for n in nodes]),
            _crc([[n.next_hop(k).id for k in KEYS] for n in nodes]),
        ])
    return sample


def _crc(obj):
    return zlib.crc32(json.dumps(obj).encode())


def _tables(node):
    succ = node.successors
    return {
        "successors": [e["id"] for e in succ],
        "predecessor": None if node.predecessor is None else node.predecessor["id"],
        "fingers": [[i, e["id"]] for i, e in node.fingers.items()],
        "next_finger": node.next_finger,
    }


def maintenance_paths():
    """The figures behind ``fixtures/maintenance_paths.json``, written with::

        PYTHONPATH=src python -c "import json, tests.test_maintenance_paths as t; \\
            print(json.dumps({'written_by': '<sha>', 'run': t.maintenance_paths()}))"
    """
    samples = []
    platform, maint, stats, report = maintenance_scenario(_sample(samples))
    ts = platform.transport.stats
    return {
        "maintenance": dataclasses.asdict(maint.stats),
        "transport": {"maintenance_messages": ts.maintenance_messages,
                      "maintenance_bytes": ts.maintenance_bytes,
                      "dropped_dead": ts.dropped_dead},
        "moves": report["moves"],
        "queries": len(stats.queries),
        "query_costs": _query_costs(stats),
        "ring_consistent": maint.ring_consistent(),
        "finger_accuracy": maint.finger_accuracy(),
        "nodes": {str(node.id): _tables(node) for node in platform.ring.nodes()},
        "samples": samples,
    }


def test_maintenance_paths_replay_the_fixture():
    want = json.loads(FIXTURE.read_text())["run"]
    got = maintenance_paths()
    # the run exercises what it pins: churn, a move, piggybacking, a repaired ring
    m = got["maintenance"]
    assert (m["crashes"], m["leaves"], m["joins"]) == (2, 1, 1)
    assert got["moves"] >= 1 and m["piggybacked"] > 0 and got["ring_consistent"]
    assert got == want
