"""The k-dimensional landmark index space and its boundary (paper §3.1).

The boundary of the index space is required when partitioning and mapping it
onto overlay nodes.  The paper gives two strategies:

* **by the original metric space** — a bounded metric bounds every coordinate
  by ``[0, upper_bound]``; unbounded metrics first go through ``d' = d/(1+d)``
  (:class:`repro.metric.transforms.BoundedMetric`);
* **by the landmark selection procedure** — the min/max distances between the
  landmark set and the initially sampled objects bound each dimension;
  objects falling outside "will be mapped to the boundary points", i.e.
  clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.landmarks import LandmarkSet

__all__ = ["IndexSpaceBounds", "IndexSpace", "MAX_BOUND"]

#: The largest magnitude a bound may have.  Twice it is finite, so the sum of
#: any two edges inside the bounds is too: every midpoint Algorithm 2 takes
#: is finite and between its two ends, at every depth.  ``lo + hi`` finite is
#: not enough: ``[-1.5e308, 1.5e308]`` sums to 0, yet its third halving adds
#: ``-1.5e308`` to ``-0.75e308`` and every deeper key bit of a point there
#: reads 1.
MAX_BOUND = float(np.finfo(np.float64).max) / 2


@dataclass(frozen=True)
class IndexSpaceBounds:
    """Per-dimension ``<L, H>`` bounds of the index space.

    ``lows``/``highs`` are length-``k`` float arrays.  The paper's synthetic
    experiments bound every dimension by ``[0, 1000]`` (the data-space
    diameter); the TREC experiments derive bounds from the sample.  Every
    bound is a number of magnitude at most :data:`MAX_BOUND`: with NaN, an
    infinity or an overflowing midpoint, Algorithm 2 puts every point in one
    cell of a dimension and locality is lost without an error.
    """

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lows", np.asarray(self.lows, dtype=np.float64))
        object.__setattr__(self, "highs", np.asarray(self.highs, dtype=np.float64))
        if self.lows.shape != self.highs.shape or self.lows.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(np.abs(np.concatenate([self.lows, self.highs])) <= MAX_BOUND):
            raise ValueError(f"every bound must be a number of magnitude <= {MAX_BOUND:.4g}")
        if np.any(self.highs <= self.lows):
            raise ValueError("every dimension needs high > low")

    @property
    def k(self) -> int:
        """Dimensionality of the index space."""
        return len(self.lows)

    @classmethod
    def uniform(cls, k: int, low: float, high: float) -> IndexSpaceBounds:
        """Same ``[low, high]`` bound on all ``k`` dimensions."""
        return cls(np.full(k, float(low)), np.full(k, float(high)))

    @classmethod
    def from_metric(cls, k: int, metric: Any) -> IndexSpaceBounds:
        """Boundary strategy 1: derive from a bounded metric."""
        if not metric.is_bounded:
            raise ValueError(
                f"metric {metric.name!r} is unbounded; wrap it in BoundedMetric "
                "or use from_sample()"
            )
        return cls.uniform(k, 0.0, metric.upper_bound)

    @classmethod
    def from_sample(cls, index_points: np.ndarray, pad: float = 0.0) -> IndexSpaceBounds:
        """Boundary strategy 2: min/max of the projected selection sample.

        ``pad`` expands the box by a relative margin on each side (useful to
        reduce clipping of unseen data); the paper uses the raw min/max.
        Degenerate dimensions (min == max) are widened by a tiny epsilon so
        the space retains positive volume.
        """
        pts = np.asarray(index_points, dtype=np.float64)
        lows = pts.min(axis=0)
        highs = pts.max(axis=0)
        # NaN, an infinity or an overflowing pad is left to the constructor's rule.
        with np.errstate(over="ignore", invalid="ignore"):
            margin = (highs - lows) * pad
            lows = lows - margin
            highs = highs + margin
        flat = highs <= lows
        if flat.any():
            # Widen degenerate dimensions so the box keeps positive volume.
            scale = np.maximum(np.abs(lows), 1.0)
            highs = highs.copy()
            highs[flat] = lows[flat] + 1e-9 * scale[flat]
        return cls(lows, highs)

    def clip(self, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Clip index points into the box (paper: out-of-range objects map to
        the boundary); ``out=points`` clips in place."""
        return np.clip(points, self.lows, self.highs, out=out)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the box (inclusive)."""
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lows) & (pts <= self.highs), axis=1)


class IndexSpace:
    """A landmark set plus boundary: the full object → index-point pipeline.

    This is the "space mapping" half of the architecture; hashing the points
    onto the Chord ring is :mod:`repro.core.lph`.
    """

    def __init__(self, landmark_set: LandmarkSet, bounds: IndexSpaceBounds) -> None:
        if bounds.k != landmark_set.k:
            raise ValueError(
                f"bounds dimensionality {bounds.k} != number of landmarks {landmark_set.k}"
            )
        self.landmark_set = landmark_set
        self.bounds = bounds

    @property
    def k(self) -> int:
        """Index-space dimensionality (= number of landmarks)."""
        return self.bounds.k

    @classmethod
    def build(
        cls,
        landmark_set: LandmarkSet,
        boundary: str = "metric",
        sample: Any = None,
        pad: float = 0.0,
    ) -> IndexSpace:
        """Construct with one of the paper's two boundary strategies.

        ``boundary="metric"`` requires a bounded metric; ``boundary="sample"``
        projects ``sample`` and takes min/max per dimension.
        """
        if boundary == "metric":
            bounds = IndexSpaceBounds.from_metric(landmark_set.k, landmark_set.metric)
        elif boundary == "sample":
            if sample is None:
                raise ValueError('boundary="sample" needs the selection sample')
            bounds = IndexSpaceBounds.from_sample(landmark_set.project(sample), pad=pad)
        else:
            raise ValueError(f'unknown boundary strategy {boundary!r} (use "metric"/"sample")')
        return cls(landmark_set, bounds)

    # Both clip in place: the projection has just allocated the float64
    # array, so no caller holds it and no second (n, k) array is needed.

    def project(self, objects: Any) -> np.ndarray:
        """Map objects to clipped index points (``(n, k)`` array)."""
        points = self.landmark_set.project(objects)
        return self.bounds.clip(points, out=points)

    def project_one(self, obj: Any) -> np.ndarray:
        """Map one object to its clipped index point."""
        point = self.landmark_set.project_one(obj)
        return self.bounds.clip(point, out=point)
