"""Metric transforms, notably the paper's bounding transform ``d' = d/(1+d)``.

§3.1 ("Boundary of index space"): bounded metrics can bound the index space
directly, "while unbounded metrics can be adjusted using the formula
``d' = d/(1+d)``".  ``t(d) = d/(1+d)`` is subadditive, increasing and
``t(0) = 0``, so ``t ∘ d`` is again a metric, bounded by 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.metric.base import Metric

__all__ = ["BoundedMetric", "ScaledMetric"]


class BoundedMetric(Metric):
    """Wrap an unbounded metric with ``d' = d/(1+d)`` (bounded by 1)."""

    is_bounded = True
    upper_bound = 1.0

    def __init__(self, inner: Metric) -> None:
        self.inner = inner

    def distance(self, x: Any, y: Any) -> float:
        d = self.inner.distance(x, y)
        return d / (1.0 + d)

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        d = self.inner.one_to_many(x, ys)
        return d / (1.0 + d)

    def to_inner_radius(self, r_bounded: float) -> float:
        """Invert the transform: the inner-metric radius matching ``r_bounded``.

        Useful to express a query range given in original units against the
        bounded index space: ``t`` is increasing, so a ball of radius ``r``
        under ``d`` equals a ball of radius ``t(r)`` under ``d'``.
        """
        if r_bounded >= 1.0:
            return float("inf")
        return r_bounded / (1.0 - r_bounded)

    @staticmethod
    def to_bounded_radius(r_inner: float) -> float:
        """Forward transform for radii: ``t(r) = r/(1+r)``."""
        if r_inner == float("inf"):
            return 1.0
        return r_inner / (1.0 + r_inner)

    @property
    def name(self) -> str:
        return f"bounded({self.inner.name})"


class ScaledMetric(Metric):
    """Multiply a metric by a positive constant (still a metric).

    Handy for normalising heterogeneous metrics of a multi-index platform to
    comparable index-space extents.
    """

    def __init__(self, inner: Metric, scale: float) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.inner = inner
        self.scale = float(scale)
        self.is_bounded = inner.is_bounded
        self.upper_bound = inner.upper_bound * self.scale

    def distance(self, x: Any, y: Any) -> float:
        return self.scale * self.inner.distance(x, y)

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        return self.scale * self.inner.one_to_many(x, ys)

    @property
    def name(self) -> str:
        return f"{self.scale}*{self.inner.name}"
