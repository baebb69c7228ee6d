"""Exact (centralised) similarity search for recall ground truth.

The paper's recall metric (§4.1): "the k-nearest data objects obtained by
searching the whole dataset are considered as the theoretical results", with
``k = 10``.  Distance evaluation is vectorised and chunked so 2000 queries
against 1e5 100-d objects stay within memory.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.platform import take
from repro.metric.base import Metric

__all__ = ["exact_top_k", "exact_range", "batch_exact_top_k"]


def exact_top_k(dataset: Any, metric: Metric, query_obj: Any, k: int = 10) -> np.ndarray:
    """Indices of the ``k`` nearest dataset objects to ``query_obj``."""
    d = metric.one_to_many(query_obj, dataset)
    k = min(k, len(d))
    idx = np.argpartition(d, k - 1)[:k]
    return idx[np.argsort(d[idx], kind="stable")]


def exact_range(dataset: Any, metric: Metric, query_obj: Any, radius: float) -> np.ndarray:
    """Indices of all dataset objects within ``radius`` of ``query_obj``."""
    d = metric.one_to_many(query_obj, dataset)
    return np.flatnonzero(d <= radius)


def batch_exact_top_k(
    dataset: Any,
    metric: Metric,
    queries: Any,
    k: int = 10,
    radius: float | None = None,
    chunk: int = 256,
) -> list[np.ndarray]:
    """Exact top-k ids for many queries, chunked over the query axis.

    With ``radius`` given, candidates farther than ``radius`` are excluded
    *before* the top-k cut — the ground truth for a range-limited
    near-neighbour query (matching what the distributed system can return).

    Distances go through :meth:`repro.metric.base.Metric.many_to_many`
    (column-exact with ``one_to_many``), so the batch ground truth agrees
    bit for bit with per-query :func:`exact_top_k`.
    """
    n_q = queries.shape[0] if hasattr(queries, "shape") else len(queries)
    out: list[np.ndarray] = []
    for start in range(0, n_q, chunk):
        stop = min(start + chunk, n_q)
        block = take(queries, np.arange(start, stop))
        # rows must be one_to_many(query, dataset); many_to_many computes
        # columns that way, hence the transposed call.
        d = metric.many_to_many(dataset, block).T
        for row in d:
            if radius is not None:
                eligible = np.flatnonzero(row <= radius)
            else:
                eligible = np.arange(len(row))
            if len(eligible) == 0:
                out.append(np.empty(0, dtype=np.int64))
                continue
            kk = min(k, len(eligible))
            sub = row[eligible]
            top = np.argpartition(sub, kk - 1)[:kk]
            out.append(eligible[top[np.argsort(sub[top], kind="stable")]])
    return out
