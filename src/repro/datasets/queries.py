"""Query workload generation: query points, ranges and arrival processes.

The paper schedules 2000 queries on randomly chosen nodes with exponentially
distributed inter-arrival times (mean 150 s) after system stabilisation
(§4.1), and sweeps the *query range factor* — query radius divided by the
theoretical maximum distance of the data space — from 0.1% to 20% (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.util.rng import as_rng

__all__ = [
    "QueryWorkload",
    "poisson_arrivals",
    "synthetic_query_points",
    "repeat_topics",
    "PAPER_RANGE_FACTORS",
]

#: The range-factor sweep used in the paper's figures (0.1% .. 20%).
PAPER_RANGE_FACTORS = (0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20)


@dataclass
class QueryWorkload:
    """A timed sequence of similarity queries.

    Attributes
    ----------
    points:
        Query objects; indexable sequence (array rows, CSR rows, strings...).
    radii:
        Per-query search radius in the dataset's metric.
    arrival_times:
        Simulation timestamps (seconds) at which each query is issued.
    source_nodes:
        Index of the overlay node issuing each query (chosen uniformly, as in
        the paper).
    """

    points: np.ndarray | object
    radii: np.ndarray
    arrival_times: np.ndarray
    source_nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.radii)

    @classmethod
    def build(
        cls,
        points,
        radius: float,
        n_nodes: int,
        mean_interarrival: float = 150.0,
        seed: int | np.random.Generator | None = 2,
        start_time: float = 0.0,
    ) -> QueryWorkload:
        """Assemble a workload with Poisson arrivals and random source nodes."""
        rng = as_rng(seed)
        n = points.shape[0] if hasattr(points, "shape") else len(points)
        return cls(
            points=points,
            radii=np.full(n, float(radius)),
            arrival_times=poisson_arrivals(n, mean_interarrival, rng, start_time),
            source_nodes=rng.integers(0, n_nodes, size=n),
        )


def poisson_arrivals(
    n: int,
    mean_interarrival: float,
    seed: int | np.random.Generator | None = 2,
    start_time: float = 0.0,
) -> np.ndarray:
    """Arrival times with exponential inter-arrival (paper: mean 150 s)."""
    rng = as_rng(seed)
    gaps = rng.exponential(mean_interarrival, size=n)
    return start_time + np.cumsum(gaps)


def synthetic_query_points(
    cfg,
    n_queries: int,
    centers: np.ndarray,
    seed: int | np.random.Generator | None = 3,
) -> np.ndarray:
    """Query points drawn "with the same method" as the synthetic dataset.

    ``cfg`` is a :class:`repro.datasets.synthetic.ClusteredGaussianConfig`;
    ``centers`` must be the cluster centres of the dataset being queried.
    """
    from repro.datasets.synthetic import generate_clustered

    points, _ = generate_clustered(replace(cfg, n_objects=n_queries), seed,
                                   centers=centers)
    return points


def repeat_topics(topics, n_queries: int, seed: int | np.random.Generator | None = 4):
    """Repeat a small topic set to ``n_queries`` queries in random order.

    The paper uses "2000 queries in the simulation by repeating these 50
    topics on randomly selected nodes".  Returns an index array into
    ``topics`` plus the materialised query matrix (row-sliced).
    """
    rng = as_rng(seed)
    n_topics = topics.shape[0] if hasattr(topics, "shape") else len(topics)
    idx = rng.integers(0, n_topics, size=n_queries)
    return idx, topics[idx]
