"""Deterministic record/replay of simulation scenarios.

Every source of nondeterminism in a run is an explicitly seeded generator:
the dataset, the ring ids, landmark selection, the fault-injection coin
flips, query objects and churn choices.  A :class:`Scenario` therefore
captures a whole run in a few integers plus a compact operation list, and
re-executing it reproduces the run *bit-identically* — which
:class:`RunFingerprint` proves by hashing what the run actually did:

* ``events`` / ``final_time`` / ``schedule_digest`` — the simulator's event
  count, closing clock value (stored as ``float.hex()``) and the CRC32 the
  engine folds over every executed ``(time, seq)`` pair
  (:attr:`repro.sim.engine.Simulator.schedule_digest`);
* ``sent`` / ``delivered`` / ``dropped`` — transport totals;
* ``draw_crc`` — CRC32 over every fault-injection random draw, in order
  (:attr:`repro.sim.transport.Transport.draw_log`);
* ``result_digest`` — SHA-256 over every operation's observable outcome
  (result ids and ``float.hex()`` distances, migration counts, ...);
* ``span_count`` — spans emitted by the observability recorder.

``record_run`` writes ``{"scenario": ..., "fingerprint": ...}`` as a JSON
replay log; ``replay_file`` re-executes it and diffs the fingerprints.  The
same file format is the *repro bundle* the pytest plugin drops when a
fuzz test fails (:mod:`repro.check.pytest_plugin`) and what the
``repro replay`` CLI command consumes.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro.check.invariants import InvariantChecker, PartitionChecker
from repro.check.oracle import LinearScanOracle
from repro.core.knn import knn_search
from repro.core.platform import IndexPlatform
from repro.core.updates import UpdateProtocol
from repro.dht.ring import ChordRing
from repro.metric import EuclideanMetric
from repro.sim.network import ConstantLatency
from repro.sim.transport import FaultConfig

__all__ = [
    "Scenario",
    "RunFingerprint",
    "RunReport",
    "World",
    "build_world",
    "apply_op",
    "execute_scenario",
    "random_scenario",
    "record_run",
    "replay_file",
    "write_bundle",
    "attach_scenario",
    "current_scenario",
    "clear_scenario",
]

#: domain of the synthetic dataset (a box keeps the metric bounded, which
#: certifies k-NN exactness and allows ``boundary="metric"``)
BOX = (0.0, 100.0)


@dataclass
class Scenario:
    """Everything needed to re-execute a run bit-identically."""

    seed: int = 0
    n_nodes: int = 12
    n_objects: int = 80
    dim: int = 3
    k: int = 3
    m: int = 18
    replication: int = 2
    loss: float = 0.0
    jitter: float = 0.0
    fault_seed: int = 0
    latency: float = 0.01
    selection: str = "greedy"
    #: operation list; each op is a JSON-able list ``[kind, *int_args]``
    ops: list[list[Any]] = field(default_factory=list)

    @property
    def faults_active(self) -> bool:
        return bool(self.loss or self.jitter)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> Scenario:
        return cls(**d)


@dataclass
class RunFingerprint:
    """What a run observably did; equality means bit-identical execution."""

    events: int
    final_time: str
    schedule_digest: int
    sent: int
    delivered: int
    dropped: int
    draw_crc: int
    result_digest: str
    span_count: int
    ops_applied: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> RunFingerprint:
        return cls(**d)

    def diff(self, other: RunFingerprint) -> list[str]:
        """Human-readable field mismatches (empty = identical runs)."""
        out = []
        for name, mine in asdict(self).items():
            theirs = getattr(other, name)
            if mine != theirs:
                out.append(f"{name}: {mine!r} != {theirs!r}")
        return out


@dataclass
class RunReport:
    """Outcome of one executed scenario."""

    scenario: Scenario
    fingerprint: RunFingerprint
    #: one summary string per applied op (human-readable timeline)
    timeline: list[str]
    #: differential mismatches (empty unless differential=True found any)
    mismatches: list[str]
    #: invariant checks passed, by name
    checks: dict[str, int]

    @property
    def ok(self) -> bool:
        return not self.mismatches


class World:
    """A live platform under test plus its checking apparatus."""

    def __init__(self, scenario: Scenario, differential: bool = False) -> None:
        sc = scenario
        self.scenario = sc
        self.name = "fuzz"
        rng = np.random.default_rng(sc.seed)
        lo, hi = BOX
        self.data = rng.uniform(lo, hi, size=(sc.n_objects, sc.dim))
        self.metric = EuclideanMetric(box=BOX, dim=sc.dim)
        latency = ConstantLatency(sc.n_nodes, delay=sc.latency)
        ring = ChordRing.build(
            sc.n_nodes, m=sc.m, seed=sc.seed, latency=latency,
        )
        from repro.obs import Observability

        obs = Observability(metrics=False, tracing=True)
        faults = (
            FaultConfig(loss_rate=sc.loss, jitter=sc.jitter, seed=sc.fault_seed)
            if sc.faults_active
            else None
        )
        self.platform = IndexPlatform(ring, faults=faults, obs=obs)
        self.platform.sim.digest_enabled = True
        self.platform.transport.draw_log = []
        self.index = self.platform.create_index(
            self.name, self.data, self.metric,
            k=sc.k, selection=sc.selection,
            sample_size=min(sc.n_objects, 64),
            replication=sc.replication, seed=sc.seed,
        )
        self.updates = UpdateProtocol(self.index)
        self.engine = self.platform.lifecycle()
        self.partition = PartitionChecker(self.index)
        self.invariants = InvariantChecker(platform=self.platform)
        self.invariants.track_engine(self.engine)
        self.oracle = (
            LinearScanOracle(self.data, self.metric) if differential else None
        )
        self.hasher = hashlib.sha256()
        self.mismatches: list[str] = []
        self.timeline: list[str] = []

    # -- op helpers -------------------------------------------------------------

    def _digest(self, *parts: Any) -> None:
        for p in parts:
            self.hasher.update(str(p).encode())
            self.hasher.update(b"|")

    def _live_source(self) -> Any:
        return self.platform.ring.nodes()[0]

    def _query_object(self, qseed: int) -> np.ndarray:
        lo, hi = BOX
        return np.random.default_rng(qseed).uniform(lo, hi, size=self.scenario.dim)

    def _indexed_ids(self) -> list[int]:
        return self.index.entries()[2].tolist()

    # -- fingerprinting ---------------------------------------------------------

    def fingerprint(self, ops_applied: int) -> RunFingerprint:
        sim = self.platform.sim
        ts = self.platform.transport.stats
        crc = 0
        for kind, u in self.platform.transport.draw_log:
            crc = zlib.crc32(kind.encode() + struct.pack("<d", u), crc)
        memory = self.platform.obs.span_memory
        return RunFingerprint(
            events=sim.events_processed,
            final_time=float(sim.now).hex(),
            schedule_digest=sim.schedule_digest,
            sent=ts.sent,
            delivered=ts.delivered,
            dropped=ts.dropped_dead + ts.dropped_loss + ts.dropped_partition,
            draw_crc=crc,
            result_digest=self.hasher.hexdigest(),
            span_count=len(memory) if memory is not None else 0,
            ops_applied=ops_applied,
        )


def build_world(scenario: Scenario, differential: bool = False) -> World:
    return World(scenario, differential=differential)


def apply_op(world: World, op: list[Any]) -> str:
    """Execute one scenario operation; returns its timeline summary.

    Invalid operations (deleting an unindexed object, crashing below the
    minimum ring size, ...) are *deterministically skipped* — validity
    depends on runtime state, so scenario generation need not model it.
    """
    sc = world.scenario
    kind = op[0]
    world._digest("op", kind, *op[1:])
    summary = _OPS[kind](world, *op[1:])
    world.timeline.append(f"{kind}: {summary}")
    # global invariants hold at every operation boundary
    world.invariants.check_all(world.engine.stats)
    return summary


def _op_range(world: World, qseed: int, radius: float) -> str:
    obj = world._query_object(int(qseed))
    fut = world.platform.query_async(
        world.name, obj, float(radius),
        source_node=world._live_source(),
        top_k=10**6, range_filter=True,
        engine=world.engine,
        checker=world.partition,
    )
    world.engine.run_until_complete([fut])
    entries = fut.result(10**6)
    for e in sorted(entries, key=lambda e: (e.distance, e.object_id)):
        world._digest(e.object_id, float(e.distance).hex())
    world.invariants.check_spans(world.engine.stats, qid=fut.qid)
    if world.oracle is not None:
        diff = world.oracle.compare_range(obj, float(radius), entries)
        if diff["false_positives"] or diff["distance_errors"]:
            world.mismatches.append(
                f"range(qseed={qseed}, r={radius}): {diff}"
            )
        elif diff["false_negatives"] and not world.scenario.faults_active:
            world.mismatches.append(
                f"range(qseed={qseed}, r={radius}): "
                f"false negative(s) {diff['false_negatives']}"
            )
    return f"{len(entries)} results"


def _op_knn(world: World, qseed: int, k: int) -> str:
    obj = world._query_object(int(qseed))
    res = knn_search(
        world.platform, world.name, obj, k=int(k),
        source_node=world._live_source(), checker=world.partition,
    )
    for oid, d in zip(res.object_ids, res.distances):
        world._digest(int(oid), float(d).hex())
    world._digest("rounds", res.rounds, "exact", res.exact)
    if world.oracle is not None and res.exact and not world.scenario.faults_active:
        expected = world.oracle.knn(obj, int(k))
        got = [(int(o), float(d)) for o, d in zip(res.object_ids, res.distances)]
        if got != expected:
            world.mismatches.append(
                f"knn(qseed={qseed}, k={k}): got {got} expected {expected}"
            )
    return f"{len(res.object_ids)} neighbours in {res.rounds} rounds"


def _op_insert(world: World, oseed: int) -> str:
    candidates = sorted(
        set(range(world.scenario.n_objects)) - set(world._indexed_ids())
    )
    if not candidates:
        world._digest("skip")
        return "skipped (all indexed)"
    oid = candidates[int(oseed) % len(candidates)]
    world.updates.insert(oid, source_node=world._live_source())
    if world.oracle is not None:
        world.oracle.add(oid)
    world._digest("inserted", oid)
    return f"object {oid}"


def _op_delete(world: World, oseed: int) -> str:
    indexed = world._indexed_ids()
    if not indexed:
        world._digest("skip")
        return "skipped (index empty)"
    oid = indexed[int(oseed) % len(indexed)]
    world.updates.delete(oid, source_node=world._live_source())
    if world.oracle is not None:
        world.oracle.remove(oid)
    world._digest("deleted", oid)
    return f"object {oid}"


def _op_join(world: World, jseed: int) -> str:
    ring = world.platform.ring
    nid = int(np.random.default_rng(int(jseed)).integers(0, 1 << world.scenario.m))
    while nid in ring.nodes_by_id:
        nid = (nid + 1) % (1 << world.scenario.m)
    host = nid % world.platform.latency.n_hosts
    ring.add_node(nid, name=f"join-{nid:x}", host=host)
    for index in world.platform.indexes.values():
        index.distribute()
    world._digest("joined", nid)
    return f"node {nid:#x}"


def _op_leave(world: World, pseed: int) -> str:
    ring = world.platform.ring
    nodes = ring.nodes()
    if len(nodes) <= 4:
        world._digest("skip")
        return "skipped (ring too small)"
    node = nodes[int(pseed) % len(nodes)]
    ring.remove_node(node)
    for index in world.platform.indexes.values():
        index.distribute()
    world._digest("left", node.id)
    return f"node {node.id:#x}"


def _op_crash(world: World, pseed: int) -> str:
    nodes = world.platform.ring.nodes()
    if len(nodes) <= 4:
        world._digest("skip")
        return "skipped (ring too small)"
    node = nodes[int(pseed) % len(nodes)]
    before = world.index.total_entries()
    node.alive = False
    world.platform.fail_node(node)
    world.index.distribute()
    lost = before - world.index.total_entries()
    if world.oracle is not None:
        world.oracle.restrict(world._indexed_ids())
    world._digest("crashed", node.id, "lost", lost)
    return f"node {node.id:#x}, {lost} entries lost"


def _op_rebalance(world: World) -> str:
    moved = world.index.distribute()
    world._digest("moved", moved)
    return f"{moved} entries moved"


_OPS = {
    "range": _op_range,
    "knn": _op_knn,
    "insert": _op_insert,
    "delete": _op_delete,
    "join": _op_join,
    "leave": _op_leave,
    "crash": _op_crash,
    "rebalance": _op_rebalance,
}


def execute_scenario(scenario: Scenario, differential: bool = False) -> RunReport:
    """Run a scenario start to finish; returns its report + fingerprint."""
    world = build_world(scenario, differential=differential)
    applied = 0
    for op in scenario.ops:
        apply_op(world, op)
        applied += 1
    checks = world.invariants.summary()
    for name, count in world.partition.checks.items():
        checks[f"partition.{name}"] = count
    checks["violations"] += len(world.partition.violations)
    return RunReport(
        scenario=scenario,
        fingerprint=world.fingerprint(applied),
        timeline=world.timeline,
        mismatches=world.mismatches,
        checks=checks,
    )


def random_scenario(seed: int, n_ops: int = 20, **overrides: Any) -> Scenario:
    """A seed-derived scenario: weighted random operation mix.

    Queries dominate (they are what the system is *for*); churn, updates and
    rebalances are sprinkled in.  All randomness comes from ``seed``, so the
    same call always builds the same scenario.
    """
    rng = np.random.default_rng(seed)
    sc = Scenario(seed=int(seed), **overrides)
    kinds = ["range", "range", "range", "knn", "insert", "delete",
             "join", "leave", "crash", "rebalance"]
    for _ in range(n_ops):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "range":
            sc.ops.append(["range", int(rng.integers(0, 2**31)),
                           round(float(rng.uniform(5.0, 60.0)), 3)])
        elif kind == "knn":
            sc.ops.append(["knn", int(rng.integers(0, 2**31)),
                           int(rng.integers(1, 8))])
        elif kind == "rebalance":
            sc.ops.append(["rebalance"])
        else:
            sc.ops.append([kind, int(rng.integers(0, 2**31))])
    return sc


# -- current-scenario registry (repro bundles on test failure) -------------------
#
# A fuzz machine publishes the scenario it is executing; if the enclosing
# test fails, the pytest plugin reads it back and dumps a replay bundle.
# Process-global is correct here: tests run single-threaded and the value
# only matters between a failure and its report hook.

_current_scenario: Scenario | None = None


def attach_scenario(scenario: Scenario | None) -> None:
    """Publish the scenario now executing (bundle-dumped if the test fails)."""
    global _current_scenario
    _current_scenario = scenario


def current_scenario() -> Scenario | None:
    return _current_scenario


def clear_scenario() -> None:
    attach_scenario(None)


# -- replay logs / repro bundles -------------------------------------------------


def write_bundle(
    path: Any, scenario: Scenario,
    fingerprint: RunFingerprint | None = None,
    error: str | None = None,
) -> None:
    """Write a replay log (= repro bundle) as one JSON document."""
    doc: dict[str, Any] = {"scenario": scenario.to_dict()}
    if fingerprint is not None:
        doc["fingerprint"] = fingerprint.to_dict()
    if error is not None:
        doc["error"] = error
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_run(scenario: Scenario, path: Any, differential: bool = False) -> RunReport:
    """Execute ``scenario`` and write its replay log to ``path``."""
    report = execute_scenario(scenario, differential=differential)
    write_bundle(path, scenario, fingerprint=report.fingerprint)
    return report


def replay_file(path: Any, differential: bool = False) -> tuple[bool, list[str], RunReport]:
    """Re-execute a replay log; returns ``(identical, diffs, report)``.

    ``identical`` is True when the re-run's fingerprint matches the recorded
    one field for field — same event count, same event schedule CRC, same
    fault draws, same results, same span count.
    """
    with open(path) as fh:
        doc = json.load(fh)
    scenario = Scenario.from_dict(doc["scenario"])
    report = execute_scenario(scenario, differential=differential)
    recorded = doc.get("fingerprint")
    if recorded is None:
        return True, [], report
    diffs = RunFingerprint.from_dict(recorded).diff(report.fingerprint)
    return not diffs, diffs, report
