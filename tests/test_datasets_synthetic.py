"""Tests for the clustered-Gaussian generator (Table 1 workload)."""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    _BLOCK_ROWS,
    ClusteredGaussianConfig,
    generate_clustered,
    paper_table1_config,
)


class TestConfig:
    def test_paper_defaults_match_table1(self):
        cfg = paper_table1_config()
        assert cfg.n_objects == 100_000
        assert cfg.dim == 100
        assert (cfg.low, cfg.high) == (0.0, 100.0)
        assert cfg.n_clusters == 10
        assert cfg.deviation == 20.0

    def test_max_distance_is_1000(self):
        # The paper: sqrt(sum of 100 * 100^2) = 1000.
        assert paper_table1_config().max_distance == pytest.approx(1000.0)

    def test_size_override(self):
        assert paper_table1_config(n_objects=500).n_objects == 500


class TestGeneration:
    CFG = ClusteredGaussianConfig(n_objects=2000, dim=8, n_clusters=4, deviation=3.0)

    def test_shapes(self):
        data, centers = generate_clustered(self.CFG, 0)
        assert data.shape == (2000, 8)
        assert centers.shape == (4, 8)

    def test_deterministic(self):
        a, ca = generate_clustered(self.CFG, 5)
        b, cb = generate_clustered(self.CFG, 5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ca, cb)

    def test_seeds_differ(self):
        a, _ = generate_clustered(self.CFG, 1)
        b, _ = generate_clustered(self.CFG, 2)
        assert not np.array_equal(a, b)

    def test_clipped_to_domain(self):
        data, _ = generate_clustered(self.CFG, 0)
        assert data.min() >= self.CFG.low
        assert data.max() <= self.CFG.high

    def test_unclipped_variant(self):
        cfg = ClusteredGaussianConfig(
            n_objects=5000, dim=2, n_clusters=1, deviation=50.0, clip=False
        )
        data, _ = generate_clustered(cfg, 0)
        assert data.min() < cfg.low or data.max() > cfg.high

    def test_data_is_clustered(self):
        """Points should sit far closer to their nearest centre than random."""
        data, centers = generate_clustered(self.CFG, 0)
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.sqrt(d2.min(axis=1))
        # Expected distance to own centre ~ deviation * sqrt(dim) = 8.5.
        assert np.median(nearest) < self.CFG.deviation * np.sqrt(self.CFG.dim)

    def test_reusing_centers_preserves_structure(self):
        data, centers = generate_clustered(self.CFG, 0)
        more, centers2 = generate_clustered(self.CFG, 99, centers=centers)
        np.testing.assert_array_equal(centers, centers2)
        d2 = ((more[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        nearest = np.sqrt(d2.min(axis=1))
        assert np.median(nearest) < self.CFG.deviation * np.sqrt(self.CFG.dim)

    def test_bad_centers_shape_rejected(self):
        with pytest.raises(ValueError):
            generate_clustered(self.CFG, 0, centers=np.zeros((3, 8)))


def _one_expression(cfg, seed=0, centers=None):
    """The generator as one expression: the centres gathered for every
    object, then the whole noise array added to them."""
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.uniform(cfg.low, cfg.high, size=(cfg.n_clusters, cfg.dim))
    assignment = rng.integers(0, cfg.n_clusters, size=cfg.n_objects)
    objects = centers[assignment] + rng.normal(0.0, cfg.deviation, size=(cfg.n_objects, cfg.dim))
    if cfg.clip:
        np.clip(objects, cfg.low, cfg.high, out=objects)
    return objects, centers


class TestInPlaceBlocks:
    """The block-wise in-place addition draws the same data set, byte for
    byte, as the one-expression formula, at every block boundary."""

    @pytest.mark.parametrize("n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 10_001])
    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize("given_centers", [False, True])
    def test_bit_identical_to_the_one_expression_formula(self, n, clip, given_centers):
        cfg = ClusteredGaussianConfig(n_objects=n, dim=5, n_clusters=7, deviation=20.0, clip=clip)
        centers = np.random.default_rng(3).uniform(0.0, 100.0, size=(7, 5)) if given_centers else None
        got, got_c = generate_clustered(cfg, 11, centers=centers)
        want, want_c = _one_expression(cfg, 11, centers=centers)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_c.tobytes() == want_c.tobytes()
