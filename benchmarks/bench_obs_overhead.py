"""The event-sim observability gate: metrics must be free when off, cheap when on.

The ledger's ``obs.sim_on_ratio`` line measures *tracing* on against off;
this file gates the two configurations it does not cover — disabled obs
against no ``obs`` at all, and metrics-only against no ``obs`` — on the
query-routing hot loop.  The CI ``observability`` job runs it.
"""

import numpy as np

from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency


class TestObservabilityOverhead:
    """Observability must be free when off: the platform accepts ``obs=``
    everywhere, so the disabled path (``Observability.disabled()``, a
    NullRegistry and no recorder) has to cost the same as no ``obs`` at all
    on the query-routing hot loop."""

    N_QUERIES = 50

    def _platform(self, obs=None):
        rng = np.random.default_rng(7)
        centers = rng.uniform(0, 100, size=(4, 6))
        data = np.clip(
            centers[rng.integers(0, 4, size=3_000)] + rng.normal(0, 4, size=(3_000, 6)),
            0,
            100,
        )
        latency = ConstantLatency(48, delay=0.02)
        ring = ChordRing.build(48, m=32, seed=5, latency=latency, pns=False)
        platform = IndexPlatform(ring, latency=latency, obs=obs)
        platform.create_index(
            "bench", data, EuclideanMetric(box=(0, 100), dim=6),
            k=4, sample_size=800, seed=6,
        )
        queries = [
            platform.indexes["bench"].make_query(data[i], 10.0, qid=i)
            for i in range(self.N_QUERIES)
        ]
        return platform, queries

    @staticmethod
    def _route_batch(platform, queries):
        platform.sim.reset()
        proto, stats = platform.protocol("bench")
        nodes = platform.ring.nodes()
        for i, q in enumerate(queries):
            proto.issue(q, nodes[i % len(nodes)])
        platform.sim.run()
        assert len(stats) == len(queries)

    def test_disabled_observability_is_free(self):
        """min-of-N batch time with ``Observability.disabled()`` within 5%
        of the no-obs baseline (plus a small absolute epsilon so an idle-CI
        hiccup on a ~100ms batch can't flake the build)."""
        import timeit

        from repro.obs import Observability

        base_platform, base_queries = self._platform(obs=None)
        off_platform, off_queries = self._platform(obs=Observability.disabled())
        # warm both paths (bytecode caches, shard layouts) before timing
        self._route_batch(base_platform, base_queries)
        self._route_batch(off_platform, off_queries)
        base_times, off_times = [], []
        for _ in range(7):  # interleaved so machine drift hits both equally
            base_times.append(timeit.timeit(
                lambda: self._route_batch(base_platform, base_queries), number=1))
            off_times.append(timeit.timeit(
                lambda: self._route_batch(off_platform, off_queries), number=1))
        base, off = min(base_times), min(off_times)
        print(f"\nrouting batch: no-obs {base * 1000:.1f}ms, "
              f"disabled-obs {off * 1000:.1f}ms ({off / base:.3f}x)")
        assert off <= base * 1.05 + 1e-3, (
            f"disabled observability slowed routing: {off:.4f}s vs {base:.4f}s"
        )

    def test_enabled_metrics_overhead_bounded(self):
        """Live metrics are not free but must stay cheap: the fully
        instrumented batch may cost at most 2x the baseline (it measures
        counter bumps per message, not tracing)."""
        import timeit

        from repro.obs import Observability

        base_platform, base_queries = self._platform(obs=None)
        on_platform, on_queries = self._platform(obs=Observability(metrics=True))
        self._route_batch(base_platform, base_queries)
        self._route_batch(on_platform, on_queries)
        base_times, on_times = [], []
        for _ in range(5):
            base_times.append(timeit.timeit(
                lambda: self._route_batch(base_platform, base_queries), number=1))
            on_times.append(timeit.timeit(
                lambda: self._route_batch(on_platform, on_queries), number=1))
        base, on = min(base_times), min(on_times)
        print(f"\nrouting batch: no-obs {base * 1000:.1f}ms, "
              f"metrics-on {on * 1000:.1f}ms ({on / base:.3f}x)")
        assert on <= base * 2.0 + 1e-3
