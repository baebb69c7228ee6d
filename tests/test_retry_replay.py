"""Retransmission, duplicate suppression and drops, pinned to a fixture.

No golden replay bundle and no fuzzer run sets a ``RetryPolicy``, so the
retry paths of the lifecycle engine — RTO timers, drop back-offs, a
retransmission racing its jittered original, a branch failing after its last
retry, a deadline cutting branches off — are pinned here:
:func:`retry_scenarios` runs four seeded ``IndexPlatform.run_workload``
batches under loss and jitter (one with a node crashed mid-run, one traced,
one with a deadline some queries miss) and the test holds every per-query and per-run
figure to ``fixtures/retry_paths.json``, which the commit named in its
``written_by`` field produced before the message path was reworked.
"""

import dataclasses
import json
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

from repro.core.lifecycle import RetryPolicy
from repro.core.platform import IndexPlatform
from repro.datasets.queries import QueryWorkload
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.obs import Observability
from repro.sim.king import king_latency_model
from repro.sim.transport import FaultConfig

FIXTURE = Path(__file__).parent / "fixtures" / "retry_paths.json"
DIM = 5
N_NODES = 32
#: an RTO below the typical link delay plus jitter: retransmissions race
#: their originals, and some of both arrive
POLICY = RetryPolicy(deadline=60.0, max_retries=3, rto=0.05, backoff=2.0)


def _crc(obj):
    return zlib.crc32(json.dumps(obj).encode())


def _hex(x):
    return None if x is None else float(x).hex()


def _run(faults, crash_at=None, obs=None, policy=POLICY):
    rng = np.random.default_rng(31)
    centers = rng.uniform(0, 100, size=(4, DIM))
    data = np.clip(
        centers[rng.integers(0, 4, size=800)] + rng.normal(0, 5, size=(800, DIM)),
        0, 100)
    latency = king_latency_model(n_hosts=N_NODES, seed=31)
    ring = ChordRing.build(N_NODES, m=32, seed=31, latency=latency, pns=True)
    p = IndexPlatform(ring, latency=latency, faults=faults, obs=obs)
    p.create_index(
        "t", data, EuclideanMetric(box=(0, 100), dim=DIM), k=3, sample_size=300,
        seed=3)
    engines = []
    make_engine = p.lifecycle

    def lifecycle(policy=None):
        engines.append(make_engine(policy))
        return engines[-1]

    p.lifecycle = lifecycle
    sim = p.sim
    sim.digest_enabled = True
    if crash_at is not None:
        victim = ring.nodes()[N_NODES // 2]

        def crash():
            victim.alive = False
            p.fail_node(victim)

        sim.schedule_at(crash_at, crash)
    workload = QueryWorkload.build(
        data[:16], 0.08 * 100.0 * DIM ** 0.5, n_nodes=N_NODES,
        mean_interarrival=0.05, seed=11)
    stats = p.run_workload("t", workload, reset_sim=False, policy=policy, top_k=10**6)
    queries = {}
    for qid, qs in sorted(stats.queries.items()):
        queries[str(qid)] = {
            "state": qs.state,
            "query": [qs.query_messages, qs.query_bytes],
            "result": [qs.result_messages, qs.result_bytes],
            "retransmissions": qs.retransmissions,
            "duplicate_messages": qs.duplicate_messages,
            "failed_branches": qs.failed_branches,
            "dropped_messages": qs.dropped_messages,
            "response_time": _hex(qs.response_time),
            "max_latency": _hex(qs.max_latency),
            "entries": _crc(sorted(
                [int(e.object_id), float(e.distance).hex()] for e in qs.entries)),
        }
    (engine,) = engines
    out = {
        "queries": queries,
        "counters": dataclasses.asdict(engine.counters),
        "events": [sim.events_processed, sim.schedule_digest, sim.now.hex()],
    }
    if obs is not None:
        spans = obs.span_memory.records
        out["spans_by_kind"] = dict(sorted(Counter(s.kind for s in spans).items()))
        # the span tree itself: ids, parents and attributes in emission order
        out["span_tree"] = _crc([
            [s.sid, s.qid, s.kind, s.parent, s.node, _hex(s.start), _hex(s.end),
             s.status, repr(sorted(s.attrs.items()))]
            for s in spans])
    return out


def retry_scenarios():
    """The runs behind ``fixtures/retry_paths.json``, written with::

        PYTHONPATH=src python -c "import json, tests.test_retry_replay as t; \\
            print(json.dumps({'written_by': '<sha>', \\
                              'scenarios': t.retry_scenarios()}))"
    """
    lossy = FaultConfig(loss_rate=0.1, jitter=0.03, seed=7)
    with Observability(tracing=True) as obs:
        traced = _run(FaultConfig(loss_rate=0.1, jitter=0.03, seed=8), obs=obs)
    return {
        "lossy": _run(lossy),
        "crash": _run(FaultConfig(loss_rate=0.05, jitter=0.03, seed=9), crash_at=0.3),
        "traced": traced,
        "deadline": _run(lossy, policy=dataclasses.replace(POLICY, deadline=0.8)),
    }


def test_retry_paths_replay_the_fixture():
    want = json.loads(FIXTURE.read_text())["scenarios"]
    got = retry_scenarios()
    # the scenarios exercise what they pin: retries, races, drops, a crash
    for name, run in got.items():
        c = run["counters"]
        assert c["retransmissions"] > 0 and c["duplicates_suppressed"] > 0, name
        assert sum(q["dropped_messages"] for q in run["queries"].values()) > 0, name
    assert got["crash"]["counters"]["branches_failed"] > 0
    assert got["traced"]["spans_by_kind"]["retransmit"] > 0
    assert got["deadline"]["counters"]["timed_out"] > 0
    assert got == want
