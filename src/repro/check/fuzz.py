"""Differential fuzzing: random op sequences, lockstep with the oracle.

A Hypothesis :class:`~hypothesis.stateful.RuleBasedStateMachine` drives a
live :class:`~repro.check.replay.World` through random interleavings of
joins, leaves, crashes, inserts, deletes, range queries, k-NN searches and
rebalances.  After every operation:

* every distributed query answer is diffed against the
  :class:`~repro.check.oracle.LinearScanOracle` (faults-off runs must match
  *exactly* — ids and bit-identical distances; faults-on runs must never
  return a false positive);
* the full invariant suite runs (ring consistency, exactly-one-owner
  placement, branch conservation, span reconciliation, partition tiling —
  see :mod:`repro.check.invariants`).

The machine appends each executed op to a :class:`~repro.check.replay.Scenario`
and publishes it via :func:`~repro.check.replay.attach_scenario`, so when
Hypothesis finds (and shrinks) a failing sequence, the pytest plugin
(:mod:`repro.check.pytest_plugin`) can dump the *minimal* scenario as a
replay bundle — ``repro replay <bundle>`` then reproduces the failure
bit-identically.

:class:`BuggyOwnershipMachine` seeds an intentional placement bug (one
entry stored under a corrupted key, i.e. on the wrong owner) to prove the
fuzzer actually catches ownership violations as differential false
negatives.
"""

from __future__ import annotations

from typing import Any

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.check.replay import Scenario, apply_op, attach_scenario, build_world

__all__ = [
    "DifferentialMachine",
    "FaultyTransportMachine",
    "BuggyOwnershipMachine",
]

_SEEDS = st.integers(0, 2**31 - 1)


class DifferentialMachine(RuleBasedStateMachine):
    """Random-op state machine, faults off: answers must be oracle-exact."""

    #: scenario template; subclasses override to change scale or faults
    SCENARIO = dict(
        seed=7, n_nodes=8, n_objects=48, dim=3, k=3, m=16, replication=2,
    )

    def __init__(self) -> None:
        super().__init__()
        self.scenario = Scenario(**self.SCENARIO)
        self.world = build_world(self.scenario, differential=True)
        self._seed_bug()
        attach_scenario(self.scenario)

    def _seed_bug(self) -> None:
        """Overridden by machines that plant an intentional defect."""

    def _apply(self, op: list[Any]) -> None:
        self.scenario.ops.append(op)
        apply_op(self.world, op)
        if self.world.mismatches:
            raise AssertionError(
                "differential mismatch: " + "; ".join(self.world.mismatches)
            )

    @rule(qseed=_SEEDS, radius=st.floats(5.0, 60.0))
    def range_query(self, qseed: int, radius: float) -> None:
        self._apply(["range", qseed, round(radius, 3)])

    @rule(qseed=_SEEDS, k=st.integers(1, 8))
    def knn_query(self, qseed: int, k: int) -> None:
        self._apply(["knn", qseed, k])

    @rule(oseed=_SEEDS)
    def insert(self, oseed: int) -> None:
        self._apply(["insert", oseed])

    @rule(oseed=_SEEDS)
    def delete(self, oseed: int) -> None:
        self._apply(["delete", oseed])

    @rule(jseed=_SEEDS)
    def join(self, jseed: int) -> None:
        self._apply(["join", jseed])

    @rule(pseed=_SEEDS)
    def leave(self, pseed: int) -> None:
        self._apply(["leave", pseed])

    @rule(pseed=_SEEDS)
    def crash(self, pseed: int) -> None:
        self._apply(["crash", pseed])

    @rule()
    def rebalance(self) -> None:
        self._apply(["rebalance"])


class FaultyTransportMachine(DifferentialMachine):
    """Same op mix under message loss and delay jitter.

    Exactness is no longer guaranteed — lost branches legitimately shrink
    recall — so the differential contract weakens to: queries terminate, no
    false positives, distances of returned ids bit-identical to the oracle,
    and every structural invariant still holds.
    """

    SCENARIO = dict(
        seed=11, n_nodes=8, n_objects=48, dim=3, k=3, m=16, replication=2,
        loss=0.05, jitter=0.005, fault_seed=3,
    )


class BuggyOwnershipMachine(DifferentialMachine):
    """Plants a wrong-owner entry: object 0 is placed again under its key
    with the top bit flipped, so its entry lands on the wrong node's shard
    and range queries covering the object miss it — a differential false
    negative the fuzzer must find (and shrink to a minimal op sequence)."""

    def _seed_bug(self) -> None:
        index = self.world.index
        _, points, object_ids = index.entries()
        key = index.remove_entry(0) ^ (1 << (index.m - 1))
        index.place([key], points[object_ids == 0], [0])
