"""Chord maintenance on bare rings: the sans-IO step with no simulator and no socket.

:mod:`repro.dht.maintenance` holds join, stabilise, check-predecessor,
fix-finger, graceful leave and the iterative lookup as generators of
requests; the live node awaits an RPC for each and the simulator charges a
control message each way.  Here nothing carries them.  A Hypothesis state
machine keeps one :class:`ChordState` per node and the request every running
operation waits on, and delivers those requests in the order it chooses: the
operations of different nodes interleave as concurrent RPCs do, and joins,
graceful leaves and crashes fall between any two deliveries.  Checked
against the oracle ring (the sorted ids of the live nodes):

* no node that knows a peer ever claims the whole ring (an owner that did
  answered every key — the defect the live node's ownership proof fixed);
* after quiet rounds the ring converges: every successor and predecessor is
  the oracle's (:func:`ring_violations`, the rule every ring check calls,
  unit-tested at the bottom), lookups from any node name the oracle's
  owner, no node claims the whole ring while peers live, and the arcs
  ``(pred, id]`` tile the ring, so every key has exactly one owner.

Failures stay within what Chord tolerates: each live node keeps a live entry
in its successor list, nobody fails while a node is still finding the ring,
and a joiner is handed a bootstrap that has found it.  A join through a node
that had not noticed a death may name a dead owner; the joiner then re-joins
from its rounds.  ``HYPOTHESIS_PROFILE=thorough`` runs 200 histories.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.dht.idspace import cw_distance, owner_slot
from repro.dht.maintenance import (
    ChordState,
    Op,
    ProtocolError,
    Unreachable,
    lookup,
    ring_violations,
    status_links,
)

M = 16
#: short successor lists, so that the crash tolerance bites
LIST_LEN = 3
MAX_NODES = 10

ids = st.integers(0, (1 << M) - 1)
picks = st.integers(0, 1 << 20)


class BareChordRing(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: every node ever started, by address
        self.nodes: dict[str, ChordState] = {}
        #: nodes that answer requests: members, which have found the ring,
        #: and joiners, which have not yet
        self.up: set[str] = set()
        self.members: set[str] = set()
        self.joining: set[str] = set()
        self.leaving: set[str] = set()
        #: nodes with an operation running (one at a time, as on a live node)
        self.busy: set[str] = set()
        #: ``(asker, operation, request it waits on)``
        self.pending: list[tuple[str, Op, tuple]] = []
        #: what the operation that finished last returned
        self.returned: object = None

    # -- moving requests ------------------------------------------------------------

    def _node(self, node_id: int, bootstrap: str | None = None) -> ChordState:
        state = ChordState(node_id, f"n{len(self.nodes)}", M, LIST_LEN, bootstrap)
        self.nodes[state.addr] = state
        self.up.add(state.addr)
        return state

    def _start(self, addr: str, op: Op) -> None:
        self.busy.add(addr)
        self._advance(addr, op, None, None)

    def _advance(self, addr: str, op: Op, reply: object, error: Exception | None) -> None:
        try:
            request = op.send(reply) if error is None else op.throw(error)
        except StopIteration as done:
            self._done(addr, done.value)
        except (Unreachable, ProtocolError):  # as the drivers do: the next round retries
            self._done(addr, None)
        else:
            self.pending.append((addr, op, request))

    def _done(self, addr: str, value: object) -> None:
        self.busy.discard(addr)
        self.returned = value
        if addr in self.joining and self.nodes[addr].successors:
            self.joining.discard(addr)
            self.members.add(addr)

    def _deliver(self, i: int) -> None:
        asker, op, (peer, kind, payload) = self.pending.pop(i)
        if asker not in self.up:
            return  # the operation died with its node
        if peer["addr"] in self.up:
            self._advance(asker, op, self.nodes[peer["addr"]].serve(kind, payload), None)
        else:
            self._advance(asker, op, None, Unreachable(peer["addr"]))

    def _run(self, addr: str, op: Op) -> object:
        """``op`` with every pending request delivered first come, first
        served: what it returned."""
        self._start(addr, op)
        while self.pending:
            self._deliver(0)
        return self.returned

    @staticmethod
    def _entering(state: ChordState) -> Op:
        """What a live node's ``start()`` runs: the join, then a first round."""
        yield from state.join()
        yield from state.round()

    def _left(self, state: ChordState) -> Op:
        yield from state.leave()
        for group in (self.leaving, self.members, self.up):
            group.discard(state.addr)

    def _tolerated(self, victim: str) -> bool:
        """Whether every other member keeps a live member among its successors."""
        rest = self.members - {victim}
        return bool(rest) and all(
            any(e["addr"] in rest for e in self.nodes[a].successors)
            for a in rest if len(rest) > 1)

    # -- membership ------------------------------------------------------------------

    @initialize(node_id=ids)
    def first_node(self, node_id: int) -> None:
        self.members.add(self._node(node_id).addr)

    @precondition(lambda self: len(self.up) < MAX_NODES and not self.leaving)
    @rule(node_id=ids, via=picks)
    def join(self, node_id: int, via: int) -> None:
        if any(s.id == node_id for s in self.nodes.values()):
            return  # a new id: the same id on a new address is a restart
        state = self._node(node_id, sorted(self.members)[via % len(self.members)])
        self.joining.add(state.addr)
        self._start(state.addr, self._entering(state))

    @precondition(lambda self: not self.joining and not self.leaving)
    @rule(pick=picks)
    def leave(self, pick: int) -> None:
        idle = sorted(self.members - self.busy)
        victim = idle[pick % len(idle)] if idle else None
        if victim is not None and self._tolerated(victim):
            self.leaving.add(victim)
            self._start(victim, self._left(self.nodes[victim]))

    @precondition(lambda self: not self.joining and not self.leaving)
    @rule(pick=picks)
    def crash(self, pick: int) -> None:
        victim = sorted(self.members)[pick % len(self.members)]
        if self._tolerated(victim):
            for group in (self.members, self.up, self.busy):
                group.discard(victim)

    # -- maintenance -----------------------------------------------------------------

    @rule(pick=picks, what=st.sampled_from(["round", "fix_finger"]))
    def maintain(self, pick: int, what: str) -> None:
        idle = sorted(self.up - self.busy - self.leaving)
        if idle:
            addr = idle[pick % len(idle)]
            self._start(addr, getattr(self.nodes[addr], what)())

    @precondition(lambda self: bool(self.pending))
    @rule(pick=picks)
    def deliver(self, pick: int) -> None:
        self._deliver(pick % len(self.pending))

    # -- the oracle ------------------------------------------------------------------

    @invariant()
    def a_node_that_knows_a_peer_never_claims_the_whole_ring(self) -> None:
        """PR 17's defect: an owner with no predecessor answered every key
        although its successor list named other nodes."""
        for addr in self.up:
            state = self.nodes[addr]
            if state.successors:
                try:
                    lo, hi = state.arc()
                except ProtocolError:
                    continue  # predecessor unknown: it claims nothing
                assert lo != hi, f"{addr} claims the whole ring, knowing {state.successors}"

    def _ring(self) -> list[ChordState]:
        return sorted((self.nodes[a] for a in self.up), key=lambda s: s.id)

    @staticmethod
    def _violations(ring: list[ChordState]) -> list[tuple[str, str]]:
        return ring_violations([(s.entry(), s.successor, s.predecessor) for s in ring])

    def _quiet_rounds(self) -> None:
        while self.pending:
            self._deliver(0)
        ring = self._ring()
        for _ in range(2 * len(ring) + 4):
            if not self._violations(ring):
                return
            for state in ring:
                self._run(state.addr, state.round())
        assert not self._violations(ring), self._violations(ring)

    @rule(keys=st.lists(ids, min_size=1, max_size=4))
    def quiet_rounds_converge(self, keys: list[int]) -> None:
        self._quiet_rounds()
        assert not self.joining
        ring = self._ring()
        node_ids = [s.id for s in ring]
        arcs = [s.arc() for s in ring]
        # while peers live, nobody claims the whole ring; the arcs tile it
        assert len(ring) == 1 or all(lo != hi for lo, hi in arcs)
        assert all(lo == node_ids[i - 1] for i, (lo, _) in enumerate(arcs))
        assert sum(cw_distance(lo, hi, M) or 1 << M for lo, hi in arcs) == 1 << M
        for i, key in enumerate(keys):
            asker = ring[i % len(ring)]
            owner = self._run(asker.addr, lookup(M, key, asker.lookup_step(key), asker.drop))
            assert owner["id"] == node_ids[owner_slot(node_ids, key)]

    def teardown(self) -> None:
        self._quiet_rounds()


TestBareChordRing = BareChordRing.TestCase
TestBareChordRing.settings = settings(
    stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _names(links) -> list[str]:
    return [name for name, _ in ring_violations(links)]


def test_the_ring_rule_matches_entries_by_id_and_address():
    """The one rule every ring check calls, on hand-built links."""
    a, b, c = ({"id": i, "addr": f"n{i}"} for i in (5, 70, 900))
    ring = [(a, b, c), (b, c, a), (c, a, b)]
    assert _names(ring) == _names(ring[::-1]) == []
    # a lone member may name itself or nothing, not another node
    assert _names([(a, None, None)]) == _names([(a, a, a)]) == []
    assert _names([(a, b, None)]) == ["ring.successor"]
    # a neighbour at a restarted node's old address is not the node
    assert _names([(a, {**b, "addr": "old"}, c), *ring[1:]]) == ["ring.successor"]
    # a live member, but not the previous one
    assert _names([ring[0], (b, c, c), ring[2]]) == ["ring.predecessor"]
    assert _names([ring[0], (b, None, None), ring[2]]) == ["ring.successor", "ring.predecessor"]
    assert _names([]) == ["ring.empty"]
    assert _names([ring[0], None, ring[2]]) == ["ring.malformed"]
    assert _names([(a, b, b), ({**a, "addr": "x"}, a, a)]) == ["ring.membership"]
    # a status reply is read into links only when every entry in it is one
    status = {"id": 70, "addr": "n70", "successors": [c, a], "predecessor": a}
    assert status_links(status, M) == (status, c, a)
    alone = {**status, "successors": [], "predecessor": None}
    assert status_links(alone, M) == (alone, None, None)
    for bad in (None, [], {"addr": "a"}, {**status, "predecessor": "x"},
                {**status, "successors": "bb"}, {**status, "successors": [c, {"id": 7}]},
                {**status, "id": 1 << M}):
        assert status_links(bad, M) is None
