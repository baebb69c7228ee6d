"""Tests for the SCRAP-style SFC baseline: placement, intervals, protocol."""

import numpy as np
import pytest

from benchmarks.baselines.scrap import SfcIndex, SfcRangeProtocol
from repro.core.platform import IndexPlatform
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency
from repro.sim.stats import StatsCollector

DIM = 3
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    centers = rng.uniform(0, 100, size=(3, DIM))
    data = np.clip(centers[rng.integers(0, 3, 400)] + rng.normal(0, 6, (400, DIM)), 0, 100)
    ring = ChordRing.build(16, m=32, seed=0, latency=ConstantLatency(16, 0.01))
    platform = IndexPlatform(ring)
    platform.create_index("idx", data, METRIC, k=2, sample_size=150, seed=1)
    return platform, data


def _run_sfc(platform, index, data, qi, radius, top_k=10**6):
    stats = StatsCollector()
    proto = SfcRangeProtocol(platform.transport, index, stats, top_k=top_k)
    base = platform.indexes["idx"]
    platform.sim.reset()
    proto.issue(base.make_query(data[qi], radius, qid=0), platform.ring.nodes()[0])
    platform.sim.run()
    return stats.for_query(0)


class TestSfcIndex:
    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    def test_entries_conserved(self, setup, curve):
        platform, data = setup
        sfc = SfcIndex(platform.indexes["idx"], curve=curve)
        assert sfc.load_distribution().sum() == 400

    def test_query_ids_from_platform_allocator(self, setup):
        platform, data = setup
        base = platform.indexes["idx"]
        sfc = SfcIndex(base)
        qids = {base.make_query(data[0], 5.0).qid, sfc.make_query(data[0], 5.0).qid}
        assert len(qids) == 2

    def test_unknown_curve_rejected(self, setup):
        platform, _ = setup
        with pytest.raises(ValueError):
            SfcIndex(platform.indexes["idx"], curve="peano")

    def test_p_capped_by_ring_bits(self, setup):
        platform, _ = setup
        sfc = SfcIndex(platform.indexes["idx"], p=100)
        assert sfc.k * sfc.p <= sfc.m

    def test_entries_at_curve_owners(self, setup):
        platform, _ = setup
        sfc = SfcIndex(platform.indexes["idx"], curve="hilbert")
        for node, shard in sfc.shards.items():
            for key in shard.keys:
                assert platform.ring.successor_of(int(key)) is node

    def test_interval_keys_cover_entries(self, setup):
        platform, data = setup
        base = platform.indexes["idx"]
        sfc = SfcIndex(base, curve="hilbert")
        q = base.make_query(data[0], 25.0)
        intervals = sfc.query_intervals(q.rect)
        # every stored in-rect entry key lies in some interval
        for shard in sfc.shards.values():
            pos = shard.range_search(q.rect.lows, q.rect.highs)
            for key in shard.keys[pos]:
                assert any(a <= int(key) <= b for a, b in intervals)


class TestSfcProtocol:
    @pytest.mark.parametrize("curve", ["morton", "hilbert"])
    @pytest.mark.parametrize("radius", [5.0, 25.0, 80.0])
    def test_matches_exact_range(self, setup, curve, radius):
        platform, data = setup
        sfc = SfcIndex(platform.indexes["idx"], curve=curve)
        st = _run_sfc(platform, sfc, data, 0, radius)
        got = sorted(e.object_id for e in st.entries)
        want = sorted(exact_range(data, METRIC, data[0], radius).tolist())
        assert got == want

    def test_no_duplicates(self, setup):
        platform, data = setup
        sfc = SfcIndex(platform.indexes["idx"], curve="hilbert")
        st = _run_sfc(platform, sfc, data, 3, 60.0)
        ids = [e.object_id for e in st.entries]
        assert len(ids) == len(set(ids))

    def test_cost_accounting(self, setup):
        platform, data = setup
        sfc = SfcIndex(platform.indexes["idx"], curve="hilbert")
        st = _run_sfc(platform, sfc, data, 0, 25.0)
        assert st.query_messages >= 1
        assert st.result_messages >= 1
        assert st.max_latency is not None

    def test_hilbert_touches_fewer_or_equal_intervals(self, setup):
        platform, data = setup
        base = platform.indexes["idx"]
        q = base.make_query(data[0], 20.0)
        n_m = len(SfcIndex(base, curve="morton", p=6).query_intervals(q.rect))
        n_h = len(SfcIndex(base, curve="hilbert", p=6).query_intervals(q.rect))
        assert n_h <= n_m

    def test_owner_with_no_known_predecessor(self):
        """Maintenance clears a predecessor that stops answering
        (``ChordState.check_predecessor``); the interval walk must not read
        it, and on an otherwise consistent ring the answer stays exact."""
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 100, size=(300, DIM))
        ring = ChordRing.build(16, m=24, seed=0, latency=ConstantLatency(16, 0.01))
        platform = IndexPlatform(ring)
        platform.create_index("idx", data, METRIC, k=2, sample_size=150, seed=1)
        sfc = SfcIndex(platform.indexes["idx"], curve="hilbert")
        for node in ring.nodes():
            node.predecessor = None
        st = _run_sfc(platform, sfc, data, 0, 40.0)
        got = sorted(e.object_id for e in st.entries)
        assert got == sorted(exact_range(data, METRIC, data[0], 40.0).tolist())

    def test_interval_covering_the_whole_ring(self, setup):
        """A rectangle over the whole index space is the one interval
        ``[0, 2^m - 1]``: its first owner also owns ``2^m - 1``, and the walk
        still visits every node, stopping before it wraps back to it."""
        platform, data = setup
        sfc = SfcIndex(platform.indexes["idx"], curve="hilbert")
        q = platform.indexes["idx"].make_query(data[0], 1e6)
        assert sfc.query_intervals(q.rect) == [(0, (1 << sfc.m) - 1)]
        st = _run_sfc(platform, sfc, data, 0, 1e6)
        assert sorted(e.object_id for e in st.entries) == list(range(len(data)))
        assert st.query_messages == len(platform.ring) - 1 + len(
            platform.ring.lookup_path(platform.ring.nodes()[0], 0)) - 1
