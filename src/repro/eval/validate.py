"""Installation self-check: a small battery validating the core invariants.

Adopters can run ``python -c "from repro.eval.validate import self_check;
print(self_check())"`` (or the test suite) to confirm the stack behaves on
their platform: metric axioms, hash/geometry round trips, routed-query
completeness against centralised scans, and load-balancing conservation.
Every check is seeded and takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckResult", "self_check"]


@dataclass
class CheckResult:
    """Outcome of the self-check battery."""

    passed: list[str] = field(default_factory=list)
    failed: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed

    def __str__(self) -> str:
        lines = [f"self-check: {len(self.passed)} passed, {len(self.failed)} failed"]
        for name in self.passed:
            lines.append(f"  [ok]   {name}")
        for name, err in self.failed:
            lines.append(f"  [FAIL] {name}: {err}")
        return "\n".join(lines)


def _check(result: CheckResult, name: str, fn) -> None:
    try:
        fn()
        result.passed.append(name)
    except Exception as exc:  # noqa: BLE001 — report, don't crash the battery
        result.failed.append((name, f"{type(exc).__name__}: {exc}"))


def self_check(seed: int = 0) -> CheckResult:
    """Run the battery; returns a :class:`CheckResult` (``.ok`` for pass/fail)."""
    result = CheckResult()
    rng = np.random.default_rng(seed)

    def metric_axioms() -> None:
        from repro.metric import (
            EuclideanMetric,
            JaccardMetric,
            check_metric_axioms,
        )

        check_metric_axioms(EuclideanMetric(), rng.normal(size=(10, 4)))
        check_metric_axioms(
            JaccardMetric(), [frozenset(s) for s in ({1}, {1, 2}, {3}, set())]
        )

    _check(result, "metric axioms", metric_axioms)

    def hash_roundtrip() -> None:
        from repro.core.index_space import IndexSpaceBounds
        from repro.core.lph import key_to_cuboid, lp_hash, lp_hash_batch

        bounds = IndexSpaceBounds.uniform(3, 0.0, 1.0)
        pts = rng.uniform(0, 1, size=(50, 3))
        keys = lp_hash_batch(pts, bounds, 24)
        for i in range(50):
            assert int(keys[i]) == lp_hash(pts[i], bounds, 24)
            lo, hi = key_to_cuboid(int(keys[i]), bounds, 24)
            assert np.all(pts[i] >= lo - 1e-12) and np.all(pts[i] <= hi + 1e-12)
        # k = 2 at m = 64 halves past the batch hash's edge tables, and points
        # exactly on cell edges miss its guessed cell and are searched
        wide = IndexSpaceBounds.uniform(2, -5.0, 5.0)
        on_edges = -5.0 + 10.0 * np.arange(0, 2**12 + 1, 37) / 2**12
        across = np.linspace(-6.0, 6.0, 40)
        pts = np.vstack([np.column_stack([on_edges, on_edges[::-1]]),
                         np.column_stack([across, across[::-1]])])
        keys = lp_hash_batch(pts, wide, 64)
        assert all(int(keys[i]) == lp_hash(p, wide, 64) for i, p in enumerate(pts))

    _check(result, "locality-preserving hash round trip", hash_roundtrip)

    def routed_completeness() -> None:
        from repro.core.platform import IndexPlatform
        from repro.dht.ring import ChordRing
        from repro.eval.ground_truth import exact_range
        from repro.metric.vector import EuclideanMetric

        metric = EuclideanMetric(box=(0, 100), dim=4)
        data = rng.uniform(0, 100, size=(250, 4))
        ring = ChordRing.build(14, m=24, seed=seed)
        platform = IndexPlatform(ring)
        platform.create_index("check", data, metric, k=3, sample_size=120, seed=seed)
        for radius in (10.0, 60.0):
            proto, _ = platform.protocol("check", top_k=10**6)
            platform.sim.reset()
            q = platform.indexes["check"].make_query(data[0], radius, qid=0)
            fut = proto.issue(q, ring.nodes()[0])
            platform.sim.run()
            got = sorted(e.object_id for e in fut.entries)
            want = sorted(exact_range(data, metric, data[0], radius).tolist())
            assert got == want, f"radius {radius}: {len(got)} vs {len(want)}"

    _check(result, "routed range query == centralised scan", routed_completeness)

    def chord_lookups() -> None:
        from repro.dht.ring import ChordRing

        ring = ChordRing.build(40, m=20, seed=seed)
        nodes = ring.nodes()
        for _ in range(40):
            key = int(rng.integers(0, 2**20))
            start = nodes[int(rng.integers(0, 40))]
            assert ring.lookup_path(start, key)[-1] is ring.successor_of(key)

    _check(result, "Chord lookups reach oracle owners", chord_lookups)

    def load_balance_conserves() -> None:
        from repro.core.loadbalance import dynamic_load_migration
        from repro.core.platform import IndexPlatform
        from repro.dht.ring import ChordRing
        from repro.metric.vector import EuclideanMetric

        metric = EuclideanMetric(box=(0, 100), dim=3)
        center = rng.uniform(40, 60, size=(1, 3))
        data = np.clip(center + rng.normal(0, 2, size=(400, 3)), 0, 100)
        ring = ChordRing.build(12, m=24, seed=seed)
        platform = IndexPlatform(ring)
        platform.create_index("lb", data, metric, k=2, seed=seed)
        before = platform.load_distribution().sum()
        report = dynamic_load_migration(platform, max_rounds=10, seed=seed)
        assert platform.load_distribution().sum() == before
        assert report.final_max_load <= report.initial_max_load

    _check(result, "dynamic load balancing conserves entries", load_balance_conserves)

    return result
