"""Synthetic clustered-Gaussian datasets (paper §4.2, Table 1).

The paper's synthetic workload: each dataset holds 1e5 objects in a
100-dimensional space, clustered into 10 clusters; data in each cluster are
normally distributed with deviation 20 around the cluster centre; every
dimension ranges over [0, 100].  "Less number of clusters and less deviation
in each cluster will generate more skewed dataset."  Query points are drawn
with the same method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import as_rng

__all__ = ["ClusteredGaussianConfig", "generate_clustered", "paper_table1_config"]

#: rows per in-place centre addition in :func:`generate_clustered` (about
#: 3 MB of gathered centres at the paper's 100 dimensions)
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ClusteredGaussianConfig:
    """Parameters for the clustered Gaussian generator (paper Table 1).

    Attributes
    ----------
    n_objects:
        Number of data objects (paper: 1e5).
    dim:
        Dimensionality (paper: 100).
    low, high:
        Range of each dimension (paper: [0, 100]).
    n_clusters:
        Number of clusters (paper: 10).
    deviation:
        Standard deviation of each cluster (paper: 20).
    clip:
        Clip samples to the [low, high] box so the domain bound holds exactly
        (the paper bounds the index space assuming it does).
    """

    n_objects: int = 100_000
    dim: int = 100
    low: float = 0.0
    high: float = 100.0
    n_clusters: int = 10
    deviation: float = 20.0
    clip: bool = True

    @property
    def max_distance(self) -> float:
        """Theoretical maximum Euclidean distance between two domain points.

        The paper: ``sqrt(sum_{i=1}^{100} (100 - 0)^2) = 1000``.  The *query
        range factor* divides the query radius by this diameter.
        """
        return float(np.sqrt(self.dim) * (self.high - self.low))


def paper_table1_config(n_objects: int = 100_000) -> ClusteredGaussianConfig:
    """The exact Table 1 parameters, with an optional size override for scaled runs."""
    return ClusteredGaussianConfig(n_objects=n_objects)


def generate_clustered(
    cfg: ClusteredGaussianConfig,
    seed: int | np.random.Generator | None = 0,
    centers: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a clustered dataset; returns ``(objects, centers)``.

    ``objects`` is ``(n_objects, dim)`` float64; ``centers`` is
    ``(n_clusters, dim)``.  Pass ``centers`` back in to draw further samples
    (e.g. the query workload) from the *same* cluster structure, as the paper
    does ("the corresponding query sets are generated with the same method").
    """
    rng = as_rng(seed)
    if centers is None:
        centers = rng.uniform(cfg.low, cfg.high, size=(cfg.n_clusters, cfg.dim))
    else:
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (cfg.n_clusters, cfg.dim):
            raise ValueError(
                f"centers shape {centers.shape} != ({cfg.n_clusters}, {cfg.dim})"
            )
    assignment = rng.integers(0, cfg.n_clusters, size=cfg.n_objects)
    # The noise array becomes the objects: each row block adds its centres
    # in place, so no second (n_objects, dim) array is ever held.  Same
    # draws in the same order, and x + c == c + x bit for bit.
    objects = rng.normal(0.0, cfg.deviation, size=(cfg.n_objects, cfg.dim))
    for start in range(0, cfg.n_objects, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        objects[block] += centers[assignment[block]]
    if cfg.clip:
        np.clip(objects, cfg.low, cfg.high, out=objects)
    return objects, centers
