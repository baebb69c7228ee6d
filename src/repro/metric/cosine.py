"""Angular (arccos-cosine) distance on dense and sparse term vectors.

The paper's document experiments (§4.3) measure dissimilarity as the *angle*
between TF/IDF term vectors::

    d(X, Y) = arccos( X . Y / (|X| |Y|) )

The angle is a true metric on the unit sphere (the geodesic distance), unlike
``1 - cos`` which violates the triangle inequality.  For non-negative vectors
(term weights) the angle lies in ``[0, pi/2]``, which is why the paper notes
that "a large amount of vectors have maximum distance (pi/2)" to a sparse
document vector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.metric.base import Metric
from repro.util.arrays import issparse

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["AngularMetric", "SparseAngularMetric"]


def _safe_arccos(c: np.ndarray) -> np.ndarray:
    return np.arccos(np.clip(c, -1.0, 1.0))


class AngularMetric(Metric):
    """Angle between dense vectors; bounded by ``pi`` (``pi/2`` if non-negative).

    Parameters
    ----------
    nonnegative:
        Declare that all domain vectors have non-negative components, which
        tightens ``upper_bound`` to ``pi/2`` (true for TF/IDF weights).
    """

    is_bounded = True

    def __init__(self, nonnegative: bool = False) -> None:
        self.nonnegative = nonnegative
        self.upper_bound = math.pi / 2 if nonnegative else math.pi

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            # A zero vector has undefined direction; treat as maximally far
            # (matches how an empty document relates to any query).
            return self.upper_bound
        return float(_safe_arccos(np.array(np.dot(x, y) / (nx * ny))))

    def one_to_many(self, x: np.ndarray, ys: Sequence[np.ndarray]) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        Y = np.asarray(ys, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[None, :]
        nx = np.linalg.norm(x)
        ny = np.sqrt(np.einsum("ij,ij->i", Y, Y))
        out = np.full(Y.shape[0], self.upper_bound)
        if nx == 0.0:
            return out
        ok = ny > 0.0
        # einsum, not ``Y @ x``: BLAS gemv picks different kernels for
        # different row counts, so the matvec is not batch-size invariant at
        # the last ulp; einsum reduces each row identically regardless of
        # batch shape, which project()/project_one() equivalence relies on.
        cos = np.einsum("ij,j->i", Y[ok], x) / (ny[ok] * nx)
        out[ok] = _safe_arccos(cos)
        return out

    @property
    def name(self) -> str:
        return "angular"


class SparseAngularMetric(Metric):
    """Angle between rows of a SciPy CSR matrix (TF/IDF document vectors).

    Objects of this domain are 1-row sparse matrices (as returned by
    ``csr[i]``) or 1-D dense arrays.  The bulk kernels accept a full CSR
    matrix for ``ys`` and compute all angles with one sparse mat-vec.
    TF/IDF weights are non-negative, so the metric is bounded by ``pi/2``.
    """

    is_bounded = True
    upper_bound = math.pi / 2

    @staticmethod
    def _as_csr(x: Any) -> sparse.csr_matrix:
        """``x`` as a CSR matrix; a 1-D dense vector becomes one row."""
        if issparse(x):
            return x.tocsr()
        from scipy import sparse

        arr = np.asarray(x, dtype=np.float64)
        return sparse.csr_matrix(arr[None, :] if arr.ndim == 1 else arr)

    def distance(self, x: Any, y: Any) -> float:
        xr = self._as_csr(x)
        yr = self._as_csr(y)
        nx = math.sqrt(xr.multiply(xr).sum())
        ny = math.sqrt(yr.multiply(yr).sum())
        if nx == 0.0 or ny == 0.0:
            return self.upper_bound
        dot = float(xr.multiply(yr).sum())
        return float(_safe_arccos(np.array(dot / (nx * ny))))

    def one_to_many(self, x: Any, ys: Any) -> np.ndarray:
        xr = self._as_csr(x)
        Y = self._as_csr(ys)
        nx = math.sqrt(xr.multiply(xr).sum())
        ny = np.sqrt(np.asarray(Y.multiply(Y).sum(axis=1)).ravel())
        out = np.full(Y.shape[0], self.upper_bound)
        if nx == 0.0:
            return out
        dots = np.asarray((Y @ xr.T).todense()).ravel()
        ok = ny > 0.0
        out[ok] = _safe_arccos(dots[ok] / (ny[ok] * nx))
        return out

    @property
    def name(self) -> str:
        return "sparse-angular"
