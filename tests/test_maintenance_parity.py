"""One Chord maintenance, two drivers: the simulator's and a bare ring's.

:class:`~repro.dht.stabilize.StabilizationProtocol` runs
:mod:`repro.dht.maintenance` on each ``ChordNode`` and carries every request
as a control message.  Here the same operations run a second time on bare
:class:`~repro.dht.maintenance.ChordState` copies of the nodes, each request
answered by the peer's own ``serve`` as soon as it is made (the
``tests/test_dht_maintenance.py`` style, first come, first served).  After
every operation — a node's round, a join, a graceful leave, a crash, a lookup
— each live node must hold the same tables on both sides: successor entries,
predecessor and fingers by level, in table order.  So the simulator adds
nothing of its own to what the step leaves in a node's tables.
``HYPOTHESIS_PROFILE=thorough`` runs 200 histories.
"""

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dht.maintenance import ChordState, Op, ProtocolError, Unreachable, lookup
from repro.dht.ring import ChordRing
from repro.dht.stabilize import StabilizationProtocol
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency
from repro.sim.transport import Transport

M = 16
LIST_LEN = 3

_EXAMPLES = 200 if os.environ.get("HYPOTHESIS_PROFILE") == "thorough" else 30


def _bare(entry):
    return None if entry is None else {"id": entry["id"], "addr": entry["addr"]}


def _tables(state):
    pred = state.predecessor
    return ([(e["id"], e["addr"]) for e in state.successors],
            None if pred is None else (pred["id"], pred["addr"]),
            [(i, e["id"], e["addr"]) for i, e in state.fingers.items()],
            state.next_finger)


class BareRing:
    """The ring's nodes as bare states, tables copied; requests go straight
    to the peer's ``serve``, or fail when it is down."""

    def __init__(self, ring: ChordRing) -> None:
        self.states: dict[str, ChordState] = {}
        for node in ring.nodes():
            state = self.add(node.id, node.addr)
            state.successors = [_bare(e) for e in node.successors]
            state.predecessor = _bare(node.predecessor)
            state.fingers = {i: _bare(e) for i, e in node.fingers.items()}
        self.up = set(self.states)

    def add(self, node_id: int, addr: str, bootstrap: str | None = None) -> ChordState:
        state = self.states[addr] = ChordState(node_id, addr, M, LIST_LEN, bootstrap)
        return state

    def run(self, state: ChordState, op: Op):
        reply, error = None, None
        try:
            while True:
                peer, kind, payload = op.send(reply) if error is None else op.throw(error)
                reply, error = None, Unreachable(peer["addr"])
                if peer["addr"] in self.up:
                    reply, error = self.states[peer["addr"]].serve(kind, payload), None
        except StopIteration as done:
            return done.value
        except (Unreachable, ProtocolError):
            return None


@settings(max_examples=_EXAMPLES, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 1000),
    n_start=st.integers(2, 12),
    ops=st.lists(st.tuples(st.sampled_from(["round", "join", "leave", "crash", "lookup"]),
                           st.integers(0, 1 << 20)), min_size=1, max_size=16),
)
def test_simulated_and_bare_nodes_hold_the_same_tables(seed, n_start, ops):
    ring = ChordRing.build(n_start, m=M, seed=seed, latency=ConstantLatency(64, delay=0.005),
                           successor_list_len=LIST_LEN)
    proto = StabilizationProtocol(ring, Transport(Simulator()), seed=seed)
    bare = BareRing(ring)
    for kind, pick in ops:
        nodes = ring.nodes()
        node = nodes[pick % len(nodes)]
        state = bare.states[node.addr]
        if kind == "round":
            proto._run(node, ChordState.round)
            bare.run(state, state.round())
        elif kind == "join":
            new_id = pick % (1 << M)
            if new_id in ring.nodes_by_id:
                continue
            joiner = proto.join(new_id, node)
            fresh = bare.add(new_id, joiner.addr, bootstrap=node.addr)
            bare.up.add(joiner.addr)
            bare.run(fresh, fresh.join())
            bare.run(fresh, fresh.round())
        elif kind in ("leave", "crash"):
            if len(nodes) <= 2:
                continue
            proto.leave(node, graceful=kind == "leave")
            if kind == "leave":
                bare.run(state, state.leave())
            bare.up.discard(node.addr)
        else:
            key = (pick * 40503) % (1 << M)
            owner, _ = proto.local_lookup(node, key)
            limit = 4 * M + len(ring)
            found = bare.run(state, lookup(M, key, state.lookup_step(key), state.drop, limit))
            assert (owner and owner.addr) == (found and found["addr"])
        for live in ring.nodes():
            assert _tables(live) == _tables(bare.states[live.addr]), (kind, live)
