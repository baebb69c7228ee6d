"""Integration tests for Algorithms 3 & 5: completeness, cost accounting,
rotation-equivariance, and the fixed-vs-literal surrogate ablation."""

import numpy as np
import pytest

import repro.core.lph as lph
import repro.core.query as query_mod
from repro.check.invariants import PartitionChecker
from repro.core.platform import IndexPlatform
from repro.core.routing import QueryProtocol
from repro.dht.ring import ChordRing
from repro.eval.ground_truth import exact_range, exact_top_k
from repro.eval.metrics import merge_top_k
from repro.metric.vector import EuclideanMetric
from repro.sim.network import ConstantLatency
from repro.util.bits import first_zero_bit, prefix_of, same_prefix, set_bit_at

DIM = 5
METRIC = EuclideanMetric(box=(0, 100), dim=DIM)


def _make_platform(n_nodes=24, n_obj=600, seed=0, m=24, rotation=False, selection="kmeans", k=3):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 100, size=(4, DIM))
    data = np.clip(
        centers[rng.integers(0, 4, n_obj)] + rng.normal(0, 6, size=(n_obj, DIM)), 0, 100
    )
    latency = ConstantLatency(n_nodes, delay=0.03)
    ring = ChordRing.build(n_nodes, m=m, seed=seed, latency=latency, pns=False)
    platform = IndexPlatform(ring)
    platform.create_index(
        "idx", data, METRIC, k=k, selection=selection, sample_size=300,
        rotation=rotation, seed=seed,
    )
    return platform, data


def _run_query(platform, obj, radius, top_k=10**6, surrogate_mode="fixed", node_idx=0):
    proto, stats = platform.protocol("idx", top_k=top_k, surrogate_mode=surrogate_mode)
    index = platform.indexes["idx"]
    platform.sim.reset()
    proto.issue(index.make_query(obj, radius, qid=0), platform.ring.nodes()[node_idx])
    platform.sim.run()
    return stats.for_query(0)


class TestCompleteness:
    """The range query must find exactly the objects within the radius —
    no false negatives (contractive mapping + correct routing) and, with the
    true-distance refinement, no false positives."""

    @pytest.mark.parametrize("radius", [5.0, 15.0, 40.0, 120.0])
    def test_matches_exact_range_scan(self, radius):
        platform, data = _make_platform()
        for qi in (0, 17, 300):
            st = _run_query(platform, data[qi], radius)
            got = sorted(e.object_id for e in st.entries)
            want = sorted(exact_range(data, METRIC, data[qi], radius).tolist())
            assert got == want, f"radius={radius} query={qi}"

    def test_no_duplicate_reports(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[3], 60.0)
        ids = [e.object_id for e in st.entries]
        assert len(ids) == len(set(ids))

    def test_distances_are_true_metric_distances(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[5], 30.0)
        for e in st.entries:
            assert e.distance == pytest.approx(METRIC.distance(data[5], data[e.object_id]))

    def test_query_from_every_source_node(self):
        platform, data = _make_platform(n_nodes=12)
        want = sorted(exact_range(data, METRIC, data[0], 25.0).tolist())
        for src in range(12):
            st = _run_query(platform, data[0], 25.0, node_idx=src)
            assert sorted(e.object_id for e in st.entries) == want

    def test_zero_radius_finds_self(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[9], 0.0)
        assert 9 in {e.object_id for e in st.entries}

    def test_full_domain_radius_finds_everything(self):
        platform, data = _make_platform(n_obj=150)
        st = _run_query(platform, data[0], METRIC.upper_bound)
        assert len(st.entries) == 150


class TestTopKBehaviour:
    def test_per_node_top_k_caps_entries(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[0], 120.0, top_k=10)
        # each index node returns at most 10
        assert len(st.entries) <= 10 * len(st.index_nodes)

    def test_merged_top_k_matches_exact_when_radius_large(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[2], 50.0, top_k=10)
        got = merge_top_k(st.entries, 10)
        want = exact_top_k(data, METRIC, data[2], 10)
        assert set(got.tolist()) == set(want.tolist())


class TestCostAccounting:
    def test_hops_messages_latency_sane(self):
        platform, data = _make_platform()
        st = _run_query(platform, data[0], 30.0)
        assert st.max_hops >= 1
        assert st.query_messages >= 1
        assert st.query_bytes > 0
        assert st.result_bytes > 0
        assert st.response_time is not None
        assert st.response_time <= st.max_latency
        assert len(st.index_nodes) >= 1

    def test_larger_radius_touches_more_nodes(self):
        platform, data = _make_platform(n_obj=1200)
        small = _run_query(platform, data[0], 3.0)
        large = _run_query(platform, data[0], 140.0)
        assert len(large.index_nodes) >= len(small.index_nodes)
        assert large.query_messages >= small.query_messages

    def test_latency_scales_with_constant_delay(self):
        """With constant per-hop delay d, response time is a multiple of d."""
        platform, data = _make_platform()
        st = _run_query(platform, data[0], 10.0)
        d = 0.03
        assert st.response_time >= d - 1e-12
        assert (st.response_time / d) == pytest.approx(round(st.response_time / d), abs=1e-6)


class TestRotation:
    def test_rotation_preserves_results(self):
        plain, data = _make_platform(rotation=False, seed=3)
        rot, data2 = _make_platform(rotation=True, seed=3)
        np.testing.assert_array_equal(data, data2)
        assert rot.indexes["idx"].rotation != 0
        for qi in (0, 44, 99):
            a = _run_query(plain, data[qi], 35.0)
            b = _run_query(rot, data[qi], 35.0)
            assert sorted(e.object_id for e in a.entries) == sorted(
                e.object_id for e in b.entries
            )

    def test_rotation_shifts_placement(self):
        plain, _ = _make_platform(rotation=False, seed=3)
        rot, _ = _make_platform(rotation=True, seed=3)
        lp = plain.indexes["idx"].load_distribution()
        lr = rot.indexes["idx"].load_distribution()
        assert not np.array_equal(lp, lr)


class TestSurrogateModes:
    def test_fixed_superset_of_literal(self):
        """The literal Algorithm 5 can drop straddling slivers; the fixed
        variant must never return less."""
        platform, data = _make_platform(n_obj=900, seed=5)
        worse = 0
        for qi in range(0, 60, 5):
            fixed = _run_query(platform, data[qi], 45.0, surrogate_mode="fixed")
            literal = _run_query(platform, data[qi], 45.0, surrogate_mode="literal")
            f = {e.object_id for e in fixed.entries}
            l = {e.object_id for e in literal.entries}
            assert l <= f
            worse += len(f - l)
        # fixed must equal exact; literal usually close (sliver loss is rare)

    def test_fixed_mode_exact(self):
        platform, data = _make_platform(n_obj=900, seed=5)
        for qi in (1, 13):
            st = _run_query(platform, data[qi], 45.0, surrogate_mode="fixed")
            got = sorted(e.object_id for e in st.entries)
            want = sorted(exact_range(data, METRIC, data[qi], 45.0).tolist())
            assert got == want

    def test_unknown_mode_rejected(self):
        platform, _ = _make_platform()
        with pytest.raises(ValueError):
            platform.protocol("idx", surrogate_mode="bogus")


class _RecordingChecker(PartitionChecker):
    """A collecting PartitionChecker that also keeps what on_refine was given."""

    def __init__(self, index):
        super().__init__(index, strict=False)
        self.refines = []

    def on_refine(self, q, eff, local_lo, local_hi, siblings):
        self.refines.append((q.prefix_key, q.prefix_len, eff, local_lo, local_hi, list(siblings)))
        super().on_refine(q, eff, local_lo, local_hi, siblings)


class TestRefineWorkBound:
    """SurrogateRefine ("fixed") on the paper's identifier size: one descent
    per refine, and the partition checker is told what it always was."""

    QUERIES = (0, 17, 300, 411)

    @pytest.fixture(scope="class")
    def wide(self):
        return _make_platform(n_nodes=64, m=64, k=10, selection="greedy", seed=2)

    def _run(self, platform, data, **kwargs):
        proto, stats = platform.protocol("idx", top_k=10**6, **kwargs)
        index = platform.indexes["idx"]
        platform.sim.reset()
        for qid, qi in enumerate(self.QUERIES):
            proto.issue(index.make_query(data[qi], 60.0, qid=qid), platform.ring.nodes()[qid])
        platform.sim.run()
        return stats

    def test_at_most_one_cuboid_replay_per_refine(self, wide, monkeypatch):
        """A regression to one prefix_to_cuboid replay per sibling (O(m^2)
        halvings per refine) fails here without a timer.  The cuboid is
        built once per query, by ``from_point``, and carried from there: a
        refine replays none."""
        platform, data = wide
        replays, per_refine = [], []
        real_replay, real_refine = lph.prefix_to_cuboid, QueryProtocol._surrogate_refine_fixed

        def counting_replay(*args):
            replays.append(args[1])
            return real_replay(*args)

        def counting_refine(self, node, q, hops):
            before = len(replays)
            real_refine(self, node, q, hops)
            per_refine.append(len(replays) - before)

        monkeypatch.setattr(lph, "prefix_to_cuboid", counting_replay)
        monkeypatch.setattr(query_mod, "prefix_to_cuboid", counting_replay)
        monkeypatch.setattr(QueryProtocol, "_surrogate_refine_fixed", counting_refine)
        stats = self._run(platform, data)
        assert len(per_refine) > 20
        assert len(replays) == len(self.QUERIES)  # the patch is seen, once a query
        assert max(per_refine) == 0
        for qid, qi in enumerate(self.QUERIES):
            got = sorted(e.object_id for e in stats.for_query(qid).entries)
            assert got == sorted(exact_range(data, METRIC, data[qi], 60.0).tolist())

    def test_checker_sees_every_zero_bit_sibling(self, wide):
        platform, data = wide
        index = platform.indexes["idx"]
        m = index.m
        checker = _RecordingChecker(index)
        self._run(platform, data, checker=checker)
        assert checker.violations == []
        assert checker.checks["refine"] == len(checker.refines) > 20
        forwarding = 0
        for prefix_key, prefix_len, eff, local_lo, local_hi, siblings in checker.refines:
            key_hi = prefix_key + (1 << (m - prefix_len)) - 1
            assert local_lo == prefix_key
            if not same_prefix(prefix_key, eff, prefix_len, m):
                assert (local_hi, siblings) == (key_hi, [])
                continue
            want = []
            j = first_zero_bit(eff, prefix_len + 1, m)
            while j is not None:
                want.append((set_bit_at(prefix_of(eff, j - 1, m), j, m), j))
                j = first_zero_bit(eff, j + 1, m)
            assert (local_hi, siblings) == (eff, want)
            forwarding += bool(want)
        assert forwarding > 0


class TestSmallRings:
    @pytest.mark.parametrize("n_nodes", [1, 2, 3])
    def test_tiny_rings_still_complete(self, n_nodes):
        platform, data = _make_platform(n_nodes=n_nodes, n_obj=200, seed=7)
        st = _run_query(platform, data[0], 50.0)
        want = sorted(exact_range(data, METRIC, data[0], 50.0).tolist())
        assert sorted(e.object_id for e in st.entries) == want


class TestWorkloadRun:
    def test_run_workload_end_to_end(self):
        from repro.datasets.queries import QueryWorkload

        platform, data = _make_platform(n_obj=500, seed=8)
        w = QueryWorkload.build(data[:20], radius=30.0, n_nodes=24, seed=1)
        stats = platform.run_workload("idx", w, top_k=10)
        assert len(stats) == 20
        for qid in range(20):
            st = stats.for_query(qid)
            assert st.max_latency is not None
            # arrival times respected
            assert st.issued_at == pytest.approx(w.arrival_times[qid])
