"""Tests for ground truth, recall metrics, reporting, expansion and a
miniature end-to-end experiment run."""

import numpy as np
import pytest
from scipy import sparse

from repro.eval.expansion import expand_query
from repro.eval.ground_truth import batch_exact_top_k, exact_range, exact_top_k
from repro.eval.metrics import (
    gini_coefficient,
    load_summary,
    merge_top_k,
    recall_at_k,
    workload_recall,
)
from repro.eval.report import format_dict, format_load_distribution, format_sweep, format_table
from repro.eval.runner import ExperimentConfig, Scheme, build_bundle, run_experiment
from repro.metric.vector import EuclideanMetric
from repro.sim.messages import ResultEntry


class TestGroundTruth:
    def test_exact_top_k_orders_by_distance(self):
        data = np.array([[0.0], [1.0], [5.0], [2.0]])
        m = EuclideanMetric()
        np.testing.assert_array_equal(exact_top_k(data, m, np.array([0.0]), 3), [0, 1, 3])

    def test_exact_range(self):
        data = np.array([[0.0], [1.0], [5.0]])
        got = exact_range(data, EuclideanMetric(), np.array([0.0]), 1.5)
        np.testing.assert_array_equal(got, [0, 1])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(size=(80, 3))
        queries = rng.uniform(size=(7, 3))
        m = EuclideanMetric()
        batch = batch_exact_top_k(data, m, queries, k=5, chunk=3)
        for i in range(7):
            np.testing.assert_array_equal(batch[i], exact_top_k(data, m, queries[i], 5))

    def test_batch_with_radius_filter(self):
        data = np.array([[0.0], [1.0], [10.0]])
        m = EuclideanMetric()
        out = batch_exact_top_k(data, m, np.array([[0.0]]), k=5, radius=2.0)
        np.testing.assert_array_equal(out[0], [0, 1])

    def test_batch_radius_empty(self):
        data = np.array([[10.0]])
        out = batch_exact_top_k(data, EuclideanMetric(), np.array([[0.0]]), k=5, radius=1.0)
        assert out[0].size == 0


class TestMergeAndRecall:
    def test_merge_dedup_keeps_best(self):
        entries = [ResultEntry(1, 0.5), ResultEntry(1, 0.2), ResultEntry(2, 0.3)]
        np.testing.assert_array_equal(merge_top_k(entries, 10), [1, 2])

    def test_merge_truncates(self):
        entries = [ResultEntry(i, float(i)) for i in range(20)]
        assert len(merge_top_k(entries, 5)) == 5

    def test_recall_values(self):
        assert recall_at_k(np.array([1, 2, 3, 4]), np.array([1, 2])) == 0.5
        assert recall_at_k(np.array([1]), np.array([2])) == 0.0
        assert recall_at_k(np.array([]), np.array([1])) == 1.0

    def test_workload_recall(self):
        from repro.sim.stats import QueryStats, StatsCollector

        c = StatsCollector()
        c.queries[0] = QueryStats(0, entries=[ResultEntry(0, 0.1), ResultEntry(1, 0.2)])
        c.queries[1] = QueryStats(1)
        truth = [np.array([0, 1]), np.array([5])]
        mean, per = workload_recall(c, truth)
        assert per.tolist() == [1.0, 0.0]
        assert mean == 0.5


class TestLoadMetrics:
    def test_gini_even(self):
        assert gini_coefficient(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated(self):
        loads = np.zeros(100)
        loads[0] = 1000
        assert gini_coefficient(loads) > 0.95

    def test_gini_empty_or_zero(self):
        assert gini_coefficient(np.array([])) == 0.0
        assert gini_coefficient(np.zeros(5)) == 0.0

    def test_load_summary(self):
        s = load_summary(np.array([0, 5, 10, 5]))
        assert s["max"] == 10
        assert s["mean"] == 5.0
        assert s["nonzero"] == 3
        assert s["max_over_mean"] == 2.0


class TestReports:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], [3, 0.001]], title="T")
        assert "T" in out and "bb" in out and "0.0010" in out

    def test_format_dict(self):
        out = format_dict({"alpha": 1.0, "b": 2}, title="X")
        assert "alpha" in out and "X" in out


class TestExpansion:
    def test_expansion_adds_terms(self):
        q = sparse.csr_matrix(np.array([[1.0, 0, 0, 0, 0]]))
        fb = sparse.csr_matrix(np.array([[1.0, 2.0, 0, 0, 0], [1.0, 1.5, 0.5, 0, 0]]))
        out = expand_query(q, fb, n_terms=1)
        dense = np.asarray(out.todense()).ravel()
        assert dense[0] > 0  # original kept
        assert dense[1] > 0  # strongest feedback term added
        assert dense[2] == 0  # weaker term cut by n_terms=1

    def test_no_feedback_is_identity(self):
        q = sparse.csr_matrix(np.array([[1.0, 0.5]]))
        out = expand_query(q, sparse.csr_matrix((0, 2)))
        assert (out != q).nnz == 0


class TestMiniExperiment:
    """A tiny end-to-end run through the full harness (both workloads)."""

    def test_synthetic_mini(self):
        cfg = ExperimentConfig(
            kind="synthetic",
            n_nodes=16,
            n_objects=800,
            n_queries=12,
            sample_size=200,
            schemes=(Scheme("Greedy-3", "greedy", 3), Scheme("Kmean-3", "kmeans", 3)),
            range_factors=(0.01, 0.10),
            load_balance=False,
            pns=False,
            seed=1,
        )
        result = run_experiment(cfg)
        assert len(result.schemes) == 2
        for s in result.schemes:
            assert len(s.rows) == 2
            for row in s.rows:
                assert 0.0 <= row["recall"] <= 1.0
                assert row["hops"] >= 0
                assert row["total_bytes"] > 0
            # recall should not decrease with range factor
            assert s.rows[1]["recall"] >= s.rows[0]["recall"] - 1e-9
            assert s.load_distribution.sum() == 800
        # report rendering works on real results
        assert "recall" in format_sweep(result)
        assert "load" in format_load_distribution(result)

    def test_synthetic_with_lb(self):
        cfg = ExperimentConfig(
            kind="synthetic",
            n_nodes=16,
            n_objects=600,
            n_queries=6,
            sample_size=150,
            schemes=(Scheme("Greedy-3", "greedy", 3),),
            range_factors=(0.05,),
            load_balance=True,
            lb_max_rounds=8,
            pns=False,
            seed=2,
        )
        result = run_experiment(cfg)
        s = result.schemes[0]
        assert s.lb_report is not None
        assert s.lb_report.final_max_load <= s.lb_report.initial_max_load

    def test_trec_mini(self):
        cfg = ExperimentConfig(
            kind="trec",
            n_nodes=16,
            n_queries=10,
            n_topics=5,
            sample_size=150,
            corpus_scale=0.004,
            schemes=(Scheme("Kmean-4", "kmeans", 4),),
            range_factors=(0.05, 0.20),
            load_balance=False,
            pns=False,
            seed=3,
        )
        bundle = build_bundle(cfg)
        assert bundle.boundary == "sample"
        result = run_experiment(cfg, bundle)
        rows = result.schemes[0].rows
        assert len(rows) == 2
        assert all(np.isfinite(r["recall"]) for r in rows)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_bundle(ExperimentConfig(kind="webscale"))


class TestExperimentConfigs:
    def test_named_configs(self):
        from repro.eval.experiments import (
            figure2_config,
            figure3_config,
            figure4_config,
            figure5_config,
            figure6_config,
        )

        f2 = figure2_config()
        assert not f2.load_balance
        f3 = figure3_config()
        assert f3.load_balance and f3.lb_delta == 0.0 and f3.lb_probe_level == 4
        assert figure4_config().load_balance
        f5 = figure5_config()
        assert f5.kind == "trec" and f5.sample_size == 3000
        assert figure6_config().kind == "trec"

    def test_paper_scale(self):
        from repro.eval.experiments import figure2_config

        cfg = figure2_config(scale="paper")
        assert cfg.n_nodes == 1740
        assert cfg.n_objects == 100_000
        assert cfg.n_queries == 2000

    def test_bad_scale(self):
        from repro.eval.experiments import figure2_config

        with pytest.raises(ValueError):
            figure2_config(scale="galactic")

    def test_overrides(self):
        from repro.eval.experiments import figure2_config

        cfg = figure2_config(n_nodes=8)
        assert cfg.n_nodes == 8
