"""Automatic query expansion (paper §6, future work).

The paper names query expansion [15] as a planned extension: enrich a short
topic query with terms from its top-ranked results to improve recall and
precision.  We implement classic pseudo-relevance feedback on the document
workload: run the query, take the top ``n_feedback`` results, add their
``n_terms`` highest-TF/IDF terms (Rocchio-style weights), and re-run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["expand_query"]


def expand_query(
    query_row: sparse.csr_matrix,
    feedback_docs: sparse.csr_matrix,
    n_terms: int = 10,
    alpha: float = 1.0,
    beta: float = 0.5,
) -> sparse.csr_matrix:
    """Rocchio pseudo-relevance-feedback expansion of a sparse query vector.

    ``query' = alpha * query + beta * centroid(feedback)`` restricted to the
    original terms plus the ``n_terms`` heaviest centroid terms.
    """
    from scipy import sparse

    if feedback_docs.shape[0] == 0:
        return query_row.copy()
    centroid = np.asarray(feedback_docs.mean(axis=0)).ravel()
    q = np.asarray(query_row.todense()).ravel()
    # Keep original query terms and the strongest centroid terms only.
    candidate = centroid.copy()
    candidate[q > 0] = 0.0
    if n_terms <= 0:
        # no expansion terms requested: keep the original terms only
        candidate[:] = 0.0
    elif n_terms < np.count_nonzero(candidate):
        cutoff = np.partition(candidate, -n_terms)[-n_terms]
        candidate[candidate < cutoff] = 0.0
    keep_centroid = np.where((q > 0) | (candidate > 0), centroid, 0.0)
    expanded = alpha * q + beta * keep_centroid
    return sparse.csr_matrix(expanded)
