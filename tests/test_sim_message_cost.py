"""A deterministic gate on the event simulator's per-message Python cost.

A timing cannot gate on a shared CI runner; a count of Python ``call`` events
(``sys.setprofile``) repeats exactly for a fixed workload and moves whenever a
function call is added to — or taken off — the send → deliver → settle path.

Readings, calls ÷ (query + result messages), on the workload below:

* parent ``ef21743`` (per-message ``transmit`` / ``on_drop`` closures, one
  ``Simulator.run`` per event, subqueries re-validated): 62.56 (67,499 / 1,079)
* PR 23: 42.60 (45,969 / 1,079)
* PR 24 (the decisions of Algorithms 3-5 called in ``core/query.py``: one call
  per routing step, one generator resume per refine step): 44.20
  (47,692 / 1,079)
* ``f7efb2d``: 42.16 (45,492 / 1,079)
* the lifecycle branch carries its message (the transport is handed the
  branch's bound ``deliver`` / ``drop``; no ``_recv``, message tuple,
  ``partial`` or ``stats.for_query`` per send; ``engine.arm`` transmits and
  ``Transport.send`` bills inline): 35.60 (38,414 / 1,079)
* a subquery carries its cuboid and float-tuple bounds (no prefix replay,
  no ``prefix_to_cuboid`` or NumPy wrapper per sibling walk, the index
  node's filter on direct ndarray methods): 32.19 (34,729 / 1,079) as
  recorded; that commit (``5b797fc``) itself reads 32.68 (35,264 / 1,079)
  on CPython 3.11.7, 535 calls (one per routing step) above the record, so
  the record came from a tree other than the one committed
* ``ChordNode.next_hop`` reads ``ChordState.closest_preceding`` (``26a6336``;
  +804 calls, one per next hop; before it the gate read 32.67): 33.42
  (36,056 / 1,079), unchanged through ``2261035``
* one record per query (the future is the stats row: no
  ``StatsCollector.for_query`` per local solve, no ``_set_state``, no
  ``_Record.terminal``, one record built per query instead of two): 32.90
  (35,495 / 1,079)
"""

import sys

import numpy as np

from repro.core.lifecycle import RetryPolicy, _Branch
from repro.core.platform import IndexPlatform
from repro.datasets.queries import QueryWorkload
from repro.datasets.synthetic import generate_clustered, paper_table1_config
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.king import king_latency_model

#: the measured reading + 10 %
CALLS_PER_MESSAGE_BUDGET = 35.4


def _platform():
    rng = np.random.default_rng(17)
    cfg = paper_table1_config(2000)
    data, _ = generate_clustered(cfg, rng)
    latency = king_latency_model(n_hosts=64, seed=rng)
    ring = ChordRing.build(64, m=64, seed=rng, latency=latency, pns=True,
                           successor_list_len=16)
    platform = IndexPlatform(ring, latency=latency)  # obs=None
    platform.create_index(
        "t", data, EuclideanMetric(box=(cfg.low, cfg.high), dim=cfg.dim), k=10,
        selection="greedy", sample_size=500, seed=rng)
    workload = QueryWorkload.build(
        data[:16], 0.05 * cfg.max_distance, n_nodes=64, mean_interarrival=0.01,
        seed=rng)
    return platform, workload


def test_python_calls_per_message_stay_within_budget():
    platform, workload = _platform()
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        stats = platform.run_workload(
            "t", workload, policy=RetryPolicy(deadline=500.0), top_k=10**6)
    finally:
        sys.setprofile(None)
    assert stats.state_counts() == {"complete": 16}
    messages = sum(
        q.query_messages + q.result_messages for q in stats.queries.values())
    assert messages > 500  # a fan-out workload, not a handful of hops
    per_message = calls / messages
    print(f"calls={calls} messages={messages} calls/message={per_message:.2f}")
    assert per_message <= CALLS_PER_MESSAGE_BUDGET


def test_an_open_branch_carries_its_message_not_a_closure():
    platform, workload = _platform()
    engine = platform.lifecycle(RetryPolicy(max_retries=2, rto=50.0))
    proto, _ = platform.protocol("t", engine=engine)
    index = platform.indexes["t"]
    query = index.make_queries(workload.points[:1], workload.radii[:1], qids=[0])[0]
    fut = proto.issue(query, platform.ring.nodes()[0])
    rec = engine.stats.queries[0]
    assert rec is fut  # the future is the query's record
    branches = list(rec.branches.values())
    assert branches and not fut.done()
    for br in branches:
        # the branch is the message, bound to its query record
        assert br.engine is engine and br.rec is rec and br.proto is proto
        assert br.kind.startswith("query:") and br.parent is None
        assert br.attempts == 1 and br.timer is not None
        assert type(br.args) is tuple
    # what the transport queued: the branch's own bound methods, the send
    # span id (None untraced) as the only argument; no partial, no tuple
    queued = [e[3] for e in platform.sim._queue if e[2] is not None]
    assert len(queued) == len(branches)
    for dst, handler, args, kind, _sent_at, on_drop in queued:
        br = handler.__self__
        assert any(br is b for b in branches)
        assert handler.__func__ is _Branch.deliver and args == (None,)
        assert on_drop.__self__ is br and on_drop.__func__ is _Branch.drop
        assert dst is br.dst and kind == br.kind
    # a drop re-sends the very same branch until its retries run out
    first = branches[0]
    first.dst.alive = False
    resent = []
    arm = engine.arm
    engine.arm = lambda br: (resent.append(br), arm(br))
    engine.run_until_complete([fut])
    assert fut.state == "complete"
    assert sum(br is first for br in resent) == 2 and first.attempts == 3
    assert rec.failed_branches >= 1
