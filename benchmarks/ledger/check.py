"""The correctness gate: every answer the benchmark timed is judged here.

Runs after the timed region, never inside it.  Each driver has one check:

* event sim — lifecycle terminal state of *every* executed query, and
  :meth:`LinearScanOracle.compare_range` on a seeded sample of them;
* scale sim — ``ScaleSimulation.check_invariants()``, no dropped lookups,
  and routed owner == ``CompactChordRing.owners_of_keys`` on a key sample;
* live cluster — brute force over the inserted points for every query, and
  every insert batch fully accepted.

A failed operation is one that raised, timed out, was dropped, ended in a
non-``complete`` lifecycle state, or returned a false positive / negative
(or a distance that is not bit-identical to the oracle's).  ``recall`` is
oracle hits returned ÷ oracle hits over the checked queries.

``python benchmarks/ledger/check.py --self-test`` feeds the gate a truncated
answer and a dropped query and asserts that it reports both.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "LiveAnswer", "SimAnswer", "Verdict",
    "check_live", "check_scale", "check_sim", "self_test",
]

#: the oracle sample per sim set-up; a run sets up three times, and the issue
#: asks for >= 500 checked queries per run where that many ran
MAX_ORACLE_QUERIES = 200
#: lookups re-routed and compared with the ownership table on the scale path
OWNER_SAMPLE = 10_000


@dataclass
class Verdict:
    """Outcome of one check: operation counts plus the recall tally."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    oracle_hits: int = 0
    returned_hits: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def recall(self) -> float:
        return self.returned_hits / self.oracle_hits if self.oracle_hits else 1.0

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.recall == 1.0

    def note(self, text: str) -> None:
        if len(self.notes) < 8:
            self.notes.append(text)

    def merge(self, other: Verdict) -> None:
        """Add the tallies of another check (a run checks after each set-up)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.checked += other.checked
        self.oracle_hits += other.oracle_hits
        self.returned_hits += other.returned_hits
        for text in other.notes:
            self.note(text)


@dataclass
class SimAnswer:
    """One executed event-sim query: its object, final state and entries."""

    point: np.ndarray
    state: str
    entries: list[Any]


@dataclass
class LiveAnswer:
    """One live operation.  ``ids`` is ``None`` when the call raised;
    ``visible`` is how many inserted points the query could have seen;
    inserts carry ``lows is None`` and ``accepted``/``expected`` counts."""

    lows: np.ndarray | None
    highs: np.ndarray | None
    ids: np.ndarray | None
    visible: int = 0
    accepted: int = 0
    expected: int = 0


def _candidates(data: np.ndarray, data_sq: np.ndarray, points: np.ndarray,
                radius: float) -> list[np.ndarray]:
    """Ids within ``radius`` plus a safety margin, by one GEMM per chunk.

    The product form of the squared distance is not bit-identical to the
    metric's kernel, so it only *pre-filters*: the oracle then recomputes the
    exact distances of these candidates with the program's own metric.
    """
    sq = np.einsum("ij,ij->i", points, points)[:, None] + data_sq[None, :] \
        - 2.0 * (points @ data.T)
    limit = (radius * (1.0 + 1e-6) + 1e-6) ** 2
    return [np.flatnonzero(row <= limit) for row in sq]


def check_sim(data: np.ndarray, metric: Any, radius: float, answers: list[SimAnswer],
              rng: np.random.Generator, max_checked: int = MAX_ORACLE_QUERIES) -> Verdict:
    """Lifecycle states of all answers + oracle comparison of a sample."""
    from repro.check.oracle import LinearScanOracle

    v = Verdict(attempted=len(answers))
    bad: set[int] = set()
    for i, a in enumerate(answers):
        if a.state != "complete":
            bad.add(i)
            v.note(f"query {i} ended in state {a.state!r}")
    n = len(answers)
    sample = np.arange(n) if n <= max_checked else np.sort(
        rng.choice(n, size=max_checked, replace=False))
    data_sq = np.einsum("ij,ij->i", data, data)
    for start in range(0, len(sample), 32):
        chunk = sample[start:start + 32]
        points = np.stack([answers[int(i)].point for i in chunk])
        for i, cand in zip(chunk, _candidates(data, data_sq, points, radius)):
            a = answers[int(i)]
            oracle = LinearScanOracle(data, metric, ids=cand.tolist())
            diff = oracle.compare_range(a.point, radius, a.entries)
            expected = len(oracle.range(a.point, radius))
            v.checked += 1
            v.oracle_hits += expected
            v.returned_hits += expected - len(diff["false_negatives"])
            if any(diff.values()):
                bad.add(int(i))
                v.note(f"query {int(i)}: " + ", ".join(
                    f"{len(ids)} {kind}" for kind, ids in diff.items() if ids))
    v.failed = len(bad)
    return v


def check_scale(sim: Any, lookups: int, dropped: int, rng: np.random.Generator) -> Verdict:
    """Invariants, dropped lookups and owner agreement on a fresh key sample."""
    v = Verdict(attempted=lookups + OWNER_SAMPLE, failed=dropped)
    if dropped:
        v.note(f"{dropped} lookups exceeded the hop deadline")
    try:
        sim.check_invariants()
    except AssertionError as exc:
        v.failed += 1
        v.note(f"check_invariants: {exc}")
    ring = sim.ring
    keys = rng.integers(0, 1 << 63, size=OWNER_SAMPLE, dtype=np.uint64) & ring.mask
    src = rng.integers(0, len(ring), size=OWNER_SAMPLE)
    owner = ring.route_batch(src, keys)[0]
    agree = int(np.count_nonzero(owner == ring.owners_of_keys(keys)))
    v.checked = OWNER_SAMPLE
    v.oracle_hits = OWNER_SAMPLE
    v.returned_hits = agree
    if agree != OWNER_SAMPLE:
        v.failed += OWNER_SAMPLE - agree
        v.note(f"{OWNER_SAMPLE - agree} routed owners disagree with owners_of_keys")
    return v


def check_live(points: np.ndarray, answers: list[LiveAnswer]) -> Verdict:
    """Brute force over the points visible to each query; inserts by count."""
    v = Verdict(attempted=len(answers))
    for i, a in enumerate(answers):
        if a.lows is None:
            if a.accepted != a.expected:
                v.failed += 1
                v.note(f"insert {i} accepted {a.accepted}/{a.expected}")
            continue
        seen = points[:a.visible]
        want = np.flatnonzero(np.all((seen >= a.lows) & (seen <= a.highs), axis=1))
        v.checked += 1
        v.oracle_hits += len(want)
        if a.ids is None:
            v.failed += 1
            v.note(f"query {i} raised")
            continue
        got = np.asarray(a.ids, dtype=np.int64)
        hit = len(np.intersect1d(got, want))
        v.returned_hits += hit
        if hit != len(want) or len(got) != len(want):
            v.failed += 1
            v.note(f"query {i}: {len(want) - hit} false negatives, "
                   f"{len(got) - hit} false positives")
    return v


def self_test() -> None:
    """Feed the gate a truncated answer and a dropped query; it must object."""
    from repro.check.oracle import LinearScanOracle
    from repro.metric.vector import EuclideanMetric
    from repro.sim.messages import ResultEntry

    rng = np.random.default_rng(7)
    data = rng.uniform(0.0, 100.0, size=(2_000, 8))
    metric = EuclideanMetric(box=(0, 100), dim=8)
    radius = 40.0
    oracle = LinearScanOracle(data, metric)

    def answers() -> list[SimAnswer]:
        return [
            SimAnswer(data[i], "complete",
                      [ResultEntry(oid, d) for oid, d in oracle.range(data[i], radius)])
            for i in range(6)
        ]

    good = check_sim(data, metric, radius, answers(), rng)
    assert good.correct and good.recall == 1.0 and good.failed == 0, good
    assert good.oracle_hits > good.checked, "self-test queries need several hits each"

    broken = answers()
    broken[1].entries = broken[1].entries[:-1]   # truncated answer
    broken[4].state = "timed_out"                # dropped query
    v = check_sim(data, metric, radius, broken, rng)
    assert v.recall < 1.0, v
    assert v.failed == 2 and v.failed_frac > 0.0, v
    assert not v.correct

    pts = rng.uniform(0.0, 1000.0, size=(500, 4))
    lo, hi = np.full(4, 100.0), np.full(4, 700.0)
    want = np.flatnonzero(np.all((pts >= lo) & (pts <= hi), axis=1))
    live = check_live(pts, [
        LiveAnswer(lo, hi, want, visible=500),
        LiveAnswer(lo, hi, want[:-1], visible=500),      # truncated answer
        LiveAnswer(lo, hi, None, visible=500),           # dropped query
        LiveAnswer(None, None, None, accepted=255, expected=256),
    ])
    assert live.failed == 3 and live.recall < 1.0 and not live.correct, live


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        sys.exit("usage: check.py --self-test")
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    self_test()
    print("check self-test: ok (truncated answer -> recall < 1, dropped query -> failed_frac > 0)")
