"""Result-quality and load metrics (paper §4.1).

Recall: for each query, the 10 nearest objects found by exact search over
the whole dataset form the theoretical result ``X``; the system's merged
top-10 is ``Y``; ``recall = |X ∩ Y| / |X|``.  Index nodes each return their
10 nearest local results and the querier merges them, exactly as the paper
describes.
"""

from __future__ import annotations

import numpy as np

# load-vector statistics live with the per-node gauges in repro.obs.load
# (obs is below eval in layers.toml); re-exported here for report code
from repro.obs.load import gini_coefficient, load_summary
from repro.sim.messages import merge_entries

__all__ = [
    "merge_top_k",
    "recall_at_k",
    "workload_recall",
    "gini_coefficient",
    "load_summary",
]


def merge_top_k(entries, k: int = 10) -> np.ndarray:
    """Merge per-node result entries into the querier's global top-k.

    Deduplicates by object id (keeping the best distance) and returns object
    ids sorted by ascending distance, at most ``k``.
    """
    return np.asarray(
        [e.object_id for e in merge_entries(entries)[:k]], dtype=np.int64)


def recall_at_k(true_ids: np.ndarray, retrieved_ids: np.ndarray) -> float:
    """``|X ∩ Y| / |X|`` — the paper's recall for one query."""
    truth = set(int(i) for i in true_ids)
    if not truth:
        return 1.0
    got = set(int(i) for i in retrieved_ids)
    return len(truth & got) / len(truth)


def workload_recall(stats, ground_truth: list[np.ndarray], k: int = 10) -> tuple[float, np.ndarray]:
    """Mean recall over a workload (and the per-query vector).

    ``stats`` is the :class:`repro.sim.stats.StatsCollector` of the run;
    query ``qid`` must equal the position in ``ground_truth``.
    """
    per_query = np.zeros(len(ground_truth))
    for qid, truth in enumerate(ground_truth):
        qs = stats.queries.get(qid)
        retrieved = merge_top_k(qs.entries, k) if qs is not None else np.empty(0, np.int64)
        per_query[qid] = recall_at_k(truth, retrieved)
    return float(per_query.mean()) if len(per_query) else 0.0, per_query


