"""Minkowski (``L_p``) metrics on dense real vectors.

The paper's footnote 1: ``L_k(x, y) = (sum |x_i - y_i|^k)^(1/k)``, where
``L_1`` is the Hamilton (Manhattan) distance and ``L_2`` the Euclidean
distance.  The synthetic evaluation (§4.2) uses the Euclidean metric on
100-dimensional points.

All bulk kernels are fully vectorised; ``one_to_many`` over 1e5 points is a
single broadcasted NumPy expression.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.metric.base import Metric

__all__ = [
    "MinkowskiMetric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
]

#: Leading coordinates :meth:`MinkowskiMetric.one_to_rows_within` reads to
#: prune a row before its full distance: 16 float64 values, two cache lines.
#: Over the 211,894 candidate rows of 128 ``sim_wide`` queries (100-d, 128
#: results), 4 / 8 / 16 / 32 leading coordinates let 128,745 / 32,166 / 594 /
#: 128 rows through.
_LEAD = 16
#: Relative slack (times p) on ``radius**p`` that no rounding of a sum can cross.
_MARGIN = 1e-9
#: Below this bound on ``radius**p`` underflowed terms could matter: no pruning.
_LIMIT_FLOOR = 2.0**-960
#: Below this many rows the leading-coordinate pass is skipped.  It costs
#: ~11 us of NumPy call overhead whatever it reads; timed on ``sim_wide``
#: candidate sets (100-d, almost all pruned) the two kernels take 20 vs 17 us
#: at 64 rows and 22 vs 24 us at 96.  ``sim_dense`` calls hold ~1 row.
_LEAD_MIN_ROWS = 80


class MinkowskiMetric(Metric):
    """``L_p`` distance on dense vectors, optionally bounded by a box domain.

    Parameters
    ----------
    p:
        The Minkowski exponent; ``p >= 1`` (otherwise the triangle
        inequality fails).  ``math.inf`` gives the Chebyshev metric.
    box:
        Optional per-dimension domain bounds ``(low, high)``.  When given,
        the metric is bounded and ``upper_bound`` is the box diameter — the
        paper uses exactly this to bound the synthetic index space at
        ``sqrt(100 * (100 - 0)^2) = 1000``.
    """

    def __init__(self, p: float, box: tuple[float, float] | None = None, dim: int | None = None) -> None:
        if p < 1:
            raise ValueError(f"Minkowski exponent must be >= 1, got {p}")
        self.p = float(p)
        self.box = box
        self.dim = dim
        if box is not None:
            if dim is None:
                raise ValueError("a bounded Minkowski metric needs an explicit dim")
            low, high = box
            side = float(high) - float(low)
            if math.isinf(self.p):
                self.upper_bound = side
            else:
                self.upper_bound = side * dim ** (1.0 / self.p)
            self.is_bounded = True

    # -- scalar path --------------------------------------------------------

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        diff = np.abs(x - y)
        if math.isinf(self.p):
            return float(diff.max(initial=0.0))
        if self.p == 2.0:
            return float(np.sqrt(np.dot(diff, diff)))
        if self.p == 1.0:
            return float(diff.sum())
        return float((diff**self.p).sum() ** (1.0 / self.p))

    # -- vectorised kernels -------------------------------------------------

    def one_to_many(self, x: np.ndarray, ys: Sequence[np.ndarray]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        Y = np.asarray(ys, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[None, :]
        return self._root(self._power_sums(Y - x[None, :]))

    def one_to_rows_within(self, x: np.ndarray, data: np.ndarray, rows: np.ndarray,
                           radius: float) -> np.ndarray:
        # Exactness.  Both stages compute the same elementwise |y_i - x_i|**p
        # terms, all >= 0, so a computed sum of n of them is within ~n ulp of
        # their exact sum (no cancellation), and the exact full sum is at
        # least the exact leading sum.  A row whose leading sum exceeds
        # radius**p by the margin therefore has a full sum, and a distance as
        # one_to_many computes it, > radius: the range filter drops it
        # anyway.  The margin scales with p so that its p-th root stays far
        # above an ulp.  A NaN partial sum compares false and is never
        # pruned; an infinite one is pruned (its full distance is inf or
        # NaN).  Above _LIMIT_FLOOR an underflowed term's error (< 2**-1074)
        # is negligible; below it, and at radius = inf, nothing is pruned.
        # For p = inf the partial max is exact, so it needs no margin.
        x = np.asarray(x, dtype=np.float64)
        rows = np.asarray(rows)
        if len(rows) >= _LEAD_MIN_ROWS and data.shape[1] > _LEAD:
            if math.isinf(self.p):
                limit = float(radius)
            else:
                limit = float(radius) ** self.p * (1.0 + _MARGIN * self.p)
            if _LIMIT_FLOOR <= limit < math.inf:
                partial = self._power_sums(data[rows, :_LEAD] - x[:_LEAD])
                live = np.flatnonzero(~(partial > limit))
                if len(live) < len(rows):
                    out = np.full(len(rows), np.inf)
                    out[live] = self._rows(x, data, rows[live])
                    return out
        return self._rows(x, data, rows)

    def _rows(self, x: np.ndarray, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``one_to_many(x, data[rows])``, subtracting into the fresh gather."""
        Y = np.asarray(data[rows], dtype=np.float64)
        return self._root(self._power_sums(np.subtract(Y, x, out=Y)))

    def _power_sums(self, diff: np.ndarray) -> np.ndarray:
        """Sums of ``|diff|**p`` over the last axis (maxima of ``|diff|`` for
        p = inf); overwrites ``diff``.  Each vector is reduced on its own, so
        its sum does not depend on which others are in the batch."""
        if self.p == 2.0:
            # (-a)**2 == a**2 bit for bit: no abs; einsum avoids a diff**2 temporary
            return np.einsum("...j,...j->...", diff, diff)
        np.abs(diff, out=diff)
        if math.isinf(self.p):
            return diff.max(axis=-1)
        if self.p != 1.0:
            np.power(diff, self.p, out=diff)
        return diff.sum(axis=-1)

    def _root(self, sums: np.ndarray) -> np.ndarray:
        if self.p == 2.0:
            return np.sqrt(sums)
        if self.p == 1.0 or math.isinf(self.p):
            return sums
        return sums ** (1.0 / self.p)

    def many_to_many(self, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
        # One broadcast kernel instead of one one_to_many pass per column.
        # Row blocks are chunked so the (chunk, n_ys, dim) difference tensor
        # stays cache-sized; every arithmetic step operates row-wise, so the
        # result is bit-identical to the column-loop contract of the base
        # class (enforced by tests/test_batch_equivalence.py).
        X = np.asarray(xs, dtype=np.float64)
        Y = np.asarray(ys, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if Y.ndim == 1:
            Y = Y[None, :]
        n, d = X.shape
        k = Y.shape[0]
        out = np.empty((n, k), dtype=np.float64)
        # L1/L2-cache-sized chunks (the sweep in docs/performance.md puts the
        # knee at ~512 KiB for the difference tensor) and one preallocated
        # scratch buffer reused across chunks; each arithmetic step is
        # row-wise, preserving the bit-exact column-loop contract.
        chunk = max(1, (512 << 10) // max(1, k * d * 8))
        buf = np.empty((min(chunk, n), k, d), dtype=np.float64)
        for s in range(0, n, chunk):
            rows = min(chunk, n - s)
            diff = np.subtract(X[s : s + rows, None, :], Y[None, :, :], out=buf[:rows])
            out[s : s + rows] = self._root(self._power_sums(diff))
        return out

    @property
    def name(self) -> str:
        if math.isinf(self.p):
            return "L_inf"
        if self.p == int(self.p):
            return f"L{int(self.p)}"
        return f"L{self.p}"


class EuclideanMetric(MinkowskiMetric):
    """``L_2`` (Euclidean) distance — the paper's synthetic-dataset metric."""

    def __init__(self, box: tuple[float, float] | None = None, dim: int | None = None) -> None:
        super().__init__(2.0, box=box, dim=dim)


class ManhattanMetric(MinkowskiMetric):
    """``L_1`` (Hamilton / Manhattan) distance."""

    def __init__(self, box: tuple[float, float] | None = None, dim: int | None = None) -> None:
        super().__init__(1.0, box=box, dim=dim)


class ChebyshevMetric(MinkowskiMetric):
    """``L_inf`` (Chebyshev) distance."""

    def __init__(self, box: tuple[float, float] | None = None, dim: int | None = None) -> None:
        super().__init__(math.inf, box=box, dim=dim)
