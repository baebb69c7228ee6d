"""The generic metric-space abstraction (paper §2, Definition 1).

The index architecture treats the distance function as a *black box*: any
data domain ``D`` together with a function ``d: D x D -> R`` satisfying
positivity, reflexivity, symmetry and the triangle inequality can be indexed.
:class:`Metric` is that black box; :class:`MetricSpace` bundles it with a
dataset.

Vector metrics override the bulk kernels (:meth:`Metric.one_to_many`,
:meth:`Metric.many_to_many`) with NumPy-vectorised implementations — landmark
projection of 1e5 objects must not run a Python loop per object (see the
hpc-parallel guide: vectorise the hot path, keep the scalar path legible).
No bulk kernel trades exactness for speed: the one distance matrix,
:meth:`Metric.many_to_many`, is column for column :meth:`Metric.one_to_many`
bit for bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = ["Metric", "MetricSpace", "MetricAxiomViolation", "check_metric_axioms"]


class Metric(ABC):
    """A black-box distance function over some data domain.

    Subclasses must implement :meth:`distance` (abstract: one without it
    cannot be instantiated).  ``is_bounded`` / ``upper_bound`` describe the metric's range and drive the paper's two
    index-space boundary strategies (§3.1): a bounded metric can bound the
    index space directly, an unbounded one is either transformed with
    ``d' = d/(1+d)`` (:class:`repro.metric.transforms.BoundedMetric`) or
    bounded empirically from the landmark-selection sample.
    """

    #: True when the metric has a finite upper bound valid for all inputs.
    is_bounded: bool = False
    #: The finite upper bound (only meaningful when ``is_bounded``).
    upper_bound: float = math.inf

    @abstractmethod
    def distance(self, x: Any, y: Any) -> float:
        """Distance between two objects of the domain. Must satisfy Definition 1."""

    # -- bulk kernels -------------------------------------------------------

    def one_to_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        """Distances from one object ``x`` to every object in ``ys``.

        The generic implementation loops in Python; vector metrics override
        it with a vectorised kernel.
        """
        return np.asarray([self.distance(x, y) for y in ys], dtype=np.float64)

    def one_to_rows_within(self, x: Any, data: np.ndarray, rows: np.ndarray,
                           radius: float) -> np.ndarray:
        """Distances from ``x`` to ``data[rows]`` of a dense 2-D dataset, where
        only those ``<= radius`` need to be exact.

        Each entry is either bit-identical to ``one_to_many(x, data[rows])``
        or ``+inf`` where that distance is ``> radius`` (or NaN), so filtering
        by ``<= radius`` keeps the same rows with the same distances.  A
        metric may override this to skip rows it can prove too far cheaply;
        this default prunes nothing.
        """
        return self.one_to_many(x, data[rows])

    def many_to_many(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """``(len(xs), len(ys))`` distance matrix, column-exact by contract.

        Column ``j`` is guaranteed bit-identical to
        ``one_to_many(ys[j], xs)`` — the contract landmark embedding relies
        on: an object projected alone must land on exactly the same index
        point as when projected in a batch (deterministic replay compares
        the two paths bit for bit).  The generic implementation runs one
        ``one_to_many`` pass per column; vector metrics override it with a
        single broadcast kernel whose equality with the column loop is
        enforced by the batch-equivalence property tests.
        """
        n_ys = ys.shape[0] if hasattr(ys, "shape") and getattr(ys, "ndim", 1) >= 2 else len(ys)
        if n_ys == 0:
            n_xs = xs.shape[0] if hasattr(xs, "shape") and getattr(xs, "ndim", 1) >= 2 else len(xs)
            return np.empty((n_xs, 0), dtype=np.float64)
        cols = [self.one_to_many(ys[j], xs) for j in range(n_ys)]
        return np.stack(cols, axis=1)

    # -- naming -------------------------------------------------------------

    @property
    def name(self) -> str:
        """Short human-readable name used in reports."""
        return type(self).__name__


@dataclass
class MetricSpace:
    """A dataset together with its black-box metric (paper Definition 1).

    ``objects`` may be any sequence the metric understands: a 2-D float array
    for vector metrics, a list of strings for edit distance, a CSR matrix
    row-view for the angular document metric, ...
    """

    objects: Any
    metric: Metric
    name: str = field(default="metric-space")

    def __len__(self) -> int:
        return len(self.objects)

    def __getitem__(self, idx: int) -> Any:
        return self.objects[idx]

    def distances_from(self, x: Any) -> np.ndarray:
        """Distances from ``x`` to the whole dataset (vectorised when possible)."""
        return self.metric.one_to_many(x, self.objects)


class MetricAxiomViolation(AssertionError):
    """Raised by :func:`check_metric_axioms` when a sampled axiom fails."""


def check_metric_axioms(
    metric: Metric,
    sample: Sequence[Any],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> None:
    """Empirically verify Definition 1 on a sample (used by the test suite).

    Checks positivity, reflexivity (``d(x, x) = 0``), symmetry and the
    triangle inequality over every triple in ``sample``.  Raises
    :class:`MetricAxiomViolation` on the first failure.  Intended for small
    samples (cost is cubic in ``len(sample)``).
    """
    n = len(sample)
    d = metric.many_to_many(sample, sample)
    if np.any(d < -atol):
        raise MetricAxiomViolation("positivity violated: negative distance found")
    diag = np.diag(d)
    if np.any(np.abs(diag) > atol):
        raise MetricAxiomViolation(f"reflexivity violated: d(x, x) = {diag.max()}")
    if not np.allclose(d, d.T, rtol=rtol, atol=atol):
        raise MetricAxiomViolation("symmetry violated")
    slack = atol + rtol * np.abs(d).max()
    for i in range(n):
        # d(x, z) <= d(x, y) + d(y, z) for all y — vectorised per (i, :).
        through = d[i, :, None] + d[:, :]  # through[y, z] = d(i, y) + d(y, z)
        best = through.min(axis=0)
        if np.any(d[i] > best + slack):
            j = int(np.argmax(d[i] - best))
            raise MetricAxiomViolation(
                f"triangle inequality violated for pair ({i}, {j}): "
                f"d = {d[i, j]}, best detour = {best[j]}"
            )
