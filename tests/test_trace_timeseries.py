"""Tests for the time-series generator and the traced routing tree."""

import numpy as np

from repro.core.platform import IndexPlatform
from repro.core.routing import QueryProtocol
from repro.datasets.timeseries import TimeSeriesFamilyConfig, generate_timeseries
from repro.dht.ring import ChordRing
from repro.metric.vector import ManhattanMetric
from repro.obs import Observability
from repro.sim.stats import StatsCollector


class TestTimeSeries:
    CFG = TimeSeriesFamilyConfig(n_series=200, n_templates=4, length=32, noise=0.1)

    def test_shapes(self):
        series, fam = generate_timeseries(self.CFG, 0)
        assert series.shape == (200, 32)
        assert fam.shape == (200,)
        assert fam.max() < 4

    def test_deterministic(self):
        a, _ = generate_timeseries(self.CFG, 5)
        b, _ = generate_timeseries(self.CFG, 5)
        np.testing.assert_array_equal(a, b)

    def test_clipped_to_domain(self):
        series, _ = generate_timeseries(self.CFG, 0)
        assert series.min() >= self.CFG.low
        assert series.max() <= self.CFG.high

    def test_family_structure(self):
        """Same-family series are closer under L1 than cross-family."""
        series, fam = generate_timeseries(self.CFG, 0)
        m = ManhattanMetric()
        same, cross = [], []
        for i in range(40):
            for j in range(i + 1, 40):
                d = m.distance(series[i], series[j])
                (same if fam[i] == fam[j] else cross).append(d)
        assert np.mean(same) < np.mean(cross)


class TestTracer:
    """The embedded tree of one query (§3.3) as ``route`` / ``refine`` /
    ``solve`` spans, in execution order."""

    def _traced_query(self, radius=20.0):
        series, _ = generate_timeseries(
            TimeSeriesFamilyConfig(n_series=300, n_templates=4, length=16), 0
        )
        metric = ManhattanMetric(box=(-50, 50), dim=16)
        ring = ChordRing.build(16, m=20, seed=0)
        platform = IndexPlatform(ring)
        platform.create_index("s", series, metric, k=3, sample_size=150, seed=1)
        stats = StatsCollector()
        obs = Observability(tracing=True).bind(platform.sim)
        proto = QueryProtocol(platform.transport, platform.indexes["s"], stats, obs=obs)
        q = platform.indexes["s"].make_query(series[0], radius, qid=0)
        proto.issue(q, ring.nodes()[0])
        platform.sim.run()
        obs.close()  # flushes the per-query root span
        return obs, stats

    def test_trace_structure(self):
        obs, _ = self._traced_query()
        spans = obs.span_memory
        assert spans.by_kind("route")  # at least the initial routing step
        assert spans.by_kind("solve")  # something got answered
        # the first event is the issuing node's QueryRouting at hop 0
        assert spans.records[0].kind == "route"
        assert spans.records[0].attrs["hops"] == 0

    def test_prefix_never_shrinks_along_hops(self):
        """Span times are non-decreasing in emission order (emission order
        == execution order); the root ``query`` span is flushed last."""
        obs, _ = self._traced_query()
        spans = obs.span_memory
        times = [s.start for s in spans.records if s.kind != "query"]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))

    def test_solve_key_ranges_disjoint(self):
        """Every local solve claims a key interval; intervals never overlap
        (this is what prevents duplicate results)."""
        obs, _ = self._traced_query(radius=60.0)
        spans = obs.span_memory
        ranges = sorted(
            (s.attrs["key_lo"], s.attrs["key_hi"]) for s in spans.by_kind("solve")
        )
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 < a2, f"overlapping solve ranges {(a1, b1)} and {(a2, b2)}"

    def test_solved_nodes_match_stats(self):
        obs, stats = self._traced_query()
        spans, st = obs.span_memory, stats.for_query(0)
        assert {s.node for s in spans.by_kind("solve")} == st.index_nodes

    def test_render(self):
        obs, _ = self._traced_query()
        text = obs.span_tree(0).render(max_spans=5)
        assert "query" in text
        assert "route" in text

    def test_nodes_visited_superset_of_solvers(self):
        obs, _ = self._traced_query()
        spans = obs.span_memory
        visited = {s.node for s in spans.for_query(0) if s.node is not None}
        assert {s.node for s in spans.by_kind("solve")} <= visited
