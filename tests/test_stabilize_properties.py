"""Property-based test: stabilisation converges under random churn schedules.

For any sequence of joins, graceful leaves and crashes (within the
successor-list tolerance), running the maintenance loop long enough must
return the overlay to a consistent ring whose lookups match the oracle.
"""

import os

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.dht.ring import ChordRing
from repro.dht.stabilize import MaintenanceConfig, StabilizationProtocol
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency
from repro.sim.transport import Transport


#: churn histories per run: 12 in tier-1, 200 under the thorough profile
_EXAMPLES = 200 if os.environ.get("HYPOTHESIS_PROFILE") == "thorough" else 12


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    n_start=st.integers(10, 24),
    events=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "crash"]),
            st.integers(0, 10**6),
        ),
        min_size=1,
        max_size=6,
    ),
)
# Regression: a node joins with successors=[owner] only, and the owner
# crashes before the first successor-list copy tick — the joiner's list
# drained permanently and stabilisation stalled.  A join now runs its first
# round at once, as a live node's start() does: that round merges the
# owner's successor list and splices the joiner in.
@example(seed=221, n_start=10, events=[("join", 0), ("crash", 0)])
def test_churn_converges(seed, n_start, events):
    m = 20
    latency = ConstantLatency(64, delay=0.005)
    ring = ChordRing.build(n_start, m=m, seed=seed, latency=latency)
    sim = Simulator()
    proto = StabilizationProtocol(
        ring, Transport(sim),
        config=MaintenanceConfig(stabilize_interval=10.0),
        seed=seed,
    )
    proto.start(duration=5000.0)
    rng = np.random.default_rng(seed)
    t = 20.0
    crashes_since_quiet = 0
    scheduled_ids = set(ring.nodes_by_id)
    for kind, val in events:
        if kind == "join":
            nid = val % (1 << m)
            while nid in scheduled_ids:
                nid = (nid + 1) % (1 << m)
            scheduled_ids.add(nid)
            # a joiner contacts a node that is alive when it joins: the
            # step's join dials its bootstrap and reads no dead node's tables
            pick = int(rng.integers(0, len(ring)))
            sim.schedule_at(t, lambda nid=nid, pick=pick, name=f"j{val}": proto.join(
                nid, ring.nodes()[pick % len(ring)], name, 0))
        else:
            # keep crash bursts within the successor-list tolerance and the
            # ring large enough to stay connected
            if kind == "crash" and crashes_since_quiet >= 3:
                continue
            if len(ring) <= 4:
                continue
            victim = ring.nodes()[val % len(ring)]
            sim.schedule_at(t, proto.leave, victim, kind == "leave")
            if kind == "crash":
                crashes_since_quiet += 1
        # spread events a couple of stabilisation rounds apart
        t += 40.0
        crashes_since_quiet = max(0, crashes_since_quiet - 1)
    sim.run(until=t + 1500.0)
    assert proto.ring_consistent()
    # lookups from node-local state match the oracle everywhere
    nodes = ring.nodes()
    for _ in range(20):
        key = int(rng.integers(0, 1 << m))
        start = nodes[int(rng.integers(0, len(nodes)))]
        owner, _ = proto.local_lookup(start, key)
        assert owner is ring.successor_of(key)
