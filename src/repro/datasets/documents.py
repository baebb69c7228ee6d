"""Synthetic TREC-like newswire corpus (paper §4.3, Table 2).

The paper evaluates on TREC-1,2 AP: 157,021 documents as TF/IDF term vectors
over 233,640 distinct terms, with a 571-word SMART stop list removed and the
vector-size distribution of Table 2 (min 1 / 5th 50 / median 146 / 95th
293 / max 676 / mean 155.4 unique terms per document).  Queries come from 50
TREC-3 ad-hoc topics (~3.5 unique terms each) repeated to 2000 queries.

The AP corpus ships on proprietary TREC CDs, so this module synthesises the
closest statistical equivalent (see DESIGN.md substitution table):

* a Zipfian vocabulary of ``vocab_size`` terms; the top ``n_stopwords`` ranks
  *are* the stop list and never appear in vectors (matching "remove the stop
  words from the document vectors");
* per-document unique-term counts drawn from a mixture calibrated to Table 2
  (a lognormal bulk plus a short-document component);
* term frequencies ``1 + Poisson`` and IDF computed from the realised corpus,
  i.e. genuine TF/IDF weights (§4.3's weighting scheme);
* topic queries with ``~3.5`` unique mid-rank terms.

What matters for the paper's TREC findings is (a) extreme sparse
high-dimensional geometry under the angular metric — most pairs of short
documents are orthogonal (distance ``pi/2``) — and (b) the resulting collapse
of greedily-chosen landmarks; both are functions of the vector-size and
vocabulary statistics reproduced here, not of AP's actual prose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.rng import as_rng

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "SyntheticCorpusConfig",
    "DocumentCorpus",
    "generate_corpus",
    "generate_topics",
    "vector_size_stats",
    "PAPER_TABLE2",
]

#: Table 2 of the paper: the distribution of AP document-vector sizes.
PAPER_TABLE2 = {
    "minimum": 1,
    "5th": 50,
    "50th": 146,
    "95th": 293,
    "maximum": 676,
    "mean": 155.4,
}


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Parameters of the synthetic newswire corpus.

    Defaults reproduce the paper's AP statistics.  Use :meth:`scaled` for
    cheaper runs that keep the shape (vocabulary scales with the corpus so
    sparsity — and hence the pi/2-orthogonality pathology — is preserved).
    """

    n_docs: int = 157_021
    vocab_size: int = 233_640
    n_stopwords: int = 571
    zipf_s: float = 1.05
    #: lognormal bulk of the unique-term-count distribution
    log_median: float = 157.0
    log_sigma: float = 0.39
    #: short-document mixture component (uniform on [1, short_max])
    short_weight: float = 0.092
    short_max: int = 100
    min_terms: int = 1
    max_terms: int = 676
    #: mean TF above 1 (term frequencies are 1 + Poisson(tf_excess))
    tf_excess: float = 0.7

    def scaled(self, factor: float) -> SyntheticCorpusConfig:
        """A corpus shrunk by ``factor`` with proportional vocabulary.

        Unique-term counts per document are kept (they set the angular
        geometry); only corpus and vocabulary size shrink.
        """
        return SyntheticCorpusConfig(
            n_docs=max(100, int(self.n_docs * factor)),
            vocab_size=max(2_000, int(self.vocab_size * factor)),
            n_stopwords=self.n_stopwords,
            zipf_s=self.zipf_s,
            log_median=self.log_median,
            log_sigma=self.log_sigma,
            short_weight=self.short_weight,
            short_max=self.short_max,
            min_terms=self.min_terms,
            max_terms=self.max_terms,
            tf_excess=self.tf_excess,
        )


@dataclass
class DocumentCorpus:
    """A generated corpus: TF/IDF vectors plus bookkeeping.

    Attributes
    ----------
    tfidf:
        ``(n_docs, vocab_size)`` CSR matrix of TF/IDF weights (stop words are
        all-zero columns by construction).
    doc_sizes:
        Unique-term count of every document (the Table 2 variable).
    idf:
        Per-term inverse document frequency actually realised.
    config:
        The generating configuration.
    """

    tfidf: sparse.csr_matrix
    doc_sizes: np.ndarray
    idf: np.ndarray
    config: SyntheticCorpusConfig

    @property
    def n_docs(self) -> int:
        return self.tfidf.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.tfidf.shape[1]

    @property
    def n_distinct_terms(self) -> int:
        """Number of terms that occur in at least one document."""
        return int(np.count_nonzero(np.diff(self.tfidf.tocsc().indptr)))


def _zipf_cdf(cfg: SyntheticCorpusConfig) -> np.ndarray:
    """Cumulative Zipf weights over the non-stop vocabulary ranks."""
    ranks = np.arange(cfg.n_stopwords + 1, cfg.vocab_size + 1, dtype=np.float64)
    w = ranks ** (-cfg.zipf_s)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return cdf


def _draw_doc_sizes(cfg: SyntheticCorpusConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Unique-term counts calibrated to Table 2 (lognormal bulk + short tail)."""
    is_short = rng.random(n) < cfg.short_weight
    sizes = np.empty(n, dtype=np.int64)
    n_short = int(is_short.sum())
    sizes[is_short] = rng.integers(1, cfg.short_max + 1, size=n_short)
    bulk = rng.lognormal(np.log(cfg.log_median), cfg.log_sigma, size=n - n_short)
    sizes[~is_short] = np.round(bulk).astype(np.int64)
    np.clip(sizes, cfg.min_terms, cfg.max_terms, out=sizes)
    return sizes


def _sample_distinct_terms(
    sizes: np.ndarray,
    cdf: np.ndarray,
    first_rank: int,
    rng: np.random.Generator,
    rounds: int = 4,
    oversample: float = 1.35,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``sizes[i]`` distinct Zipf-distributed term ids per document ``i``.

    Returns flat ``(doc_ids, term_ids)`` arrays in CSR order.  Sampling is
    with replacement followed by per-document deduplication, topped up over a
    few vectorised rounds; after the final round any still-missing terms are
    dropped (affects only the heaviest documents marginally).
    """
    n = len(sizes)
    got_docs: list[np.ndarray] = []
    got_terms: list[np.ndarray] = []
    have = np.zeros(n, dtype=np.int64)
    need = sizes.copy()
    for _ in range(rounds):
        active = need > 0
        if not active.any():
            break
        draw_counts = np.ceil(need[active] * oversample).astype(np.int64)
        total = int(draw_counts.sum())
        u = rng.random(total)
        terms = first_rank + np.searchsorted(cdf, u, side="left")
        docs = np.repeat(np.flatnonzero(active), draw_counts)
        # Dedup per (doc, term) within this round *and* against prior rounds:
        # encode pairs as a single int64 and unique them globally.
        if got_docs:
            all_docs = np.concatenate(got_docs + [docs])
            all_terms = np.concatenate(got_terms + [terms])
        else:
            all_docs, all_terms = docs, terms
        code = all_docs.astype(np.int64) * np.int64(2**32) + all_terms.astype(np.int64)
        code = np.unique(code)
        all_docs = (code // np.int64(2**32)).astype(np.int64)
        all_terms = (code % np.int64(2**32)).astype(np.int64)
        # Keep at most sizes[i] terms per doc (drop the surplus, which is
        # uniform over the doc's drawn terms because unique() sorts by term).
        counts = np.bincount(all_docs, minlength=n)
        starts = np.concatenate(([0], np.cumsum(counts)))
        offsets = np.arange(len(all_docs)) - starts[all_docs]
        keep = offsets < sizes[all_docs]
        all_docs = all_docs[keep]
        all_terms = all_terms[keep]
        got_docs = [all_docs]
        got_terms = [all_terms]
        have = np.bincount(all_docs, minlength=n)
        need = sizes - have
    return got_docs[0], got_terms[0]


def generate_corpus(
    cfg: SyntheticCorpusConfig,
    seed: int | np.random.Generator | None = 0,
) -> DocumentCorpus:
    """Generate the synthetic corpus as a TF/IDF CSR matrix."""
    from scipy import sparse

    rng = as_rng(seed)
    sizes = _draw_doc_sizes(cfg, cfg.n_docs, rng)
    cdf = _zipf_cdf(cfg)
    docs, terms = _sample_distinct_terms(sizes, cdf, cfg.n_stopwords, rng)
    tf = 1.0 + rng.poisson(cfg.tf_excess, size=len(terms))
    mat = sparse.csr_matrix(
        (tf.astype(np.float64), (docs, terms)), shape=(cfg.n_docs, cfg.vocab_size)
    )
    mat.sum_duplicates()
    # IDF from the realised corpus: log(N / df); unseen terms get 0 (they
    # never appear, so the value is irrelevant but must be finite).
    df = np.diff(mat.tocsc().indptr).astype(np.float64)
    idf = np.zeros(cfg.vocab_size)
    seen = df > 0
    idf[seen] = np.log(cfg.n_docs / df[seen])
    mat = (mat @ sparse.diags(idf)).tocsr()
    real_sizes = np.diff(mat.indptr).astype(np.int64)
    return DocumentCorpus(tfidf=mat, doc_sizes=real_sizes, idf=idf, config=cfg)


def generate_topics(
    corpus: DocumentCorpus,
    n_topics: int = 50,
    mean_terms: float = 3.5,
    seed: int | np.random.Generator | None = 1,
) -> sparse.csr_matrix:
    """Synthesise short topic queries (paper: 50 topics, ~3.5 unique terms).

    Query terms are drawn from the corpus's mid-rank vocabulary (informative
    terms — real topic titles avoid both stop words and hapaxes); weights are
    TF(=1) x IDF.
    """
    from scipy import sparse

    rng = as_rng(seed)
    cfg = corpus.config
    sizes = np.maximum(1, rng.poisson(mean_terms - 1.0, size=n_topics) + 1)
    cdf = _zipf_cdf(cfg)
    docs, terms = _sample_distinct_terms(sizes, cdf, cfg.n_stopwords, rng)
    weights = corpus.idf[terms]
    # Terms with zero idf never occur in the corpus; give them unit weight so
    # queries stay well-formed.
    weights = np.where(weights > 0, weights, 1.0)
    return sparse.csr_matrix(
        (weights, (docs, terms)), shape=(n_topics, cfg.vocab_size)
    )


def vector_size_stats(doc_sizes: np.ndarray) -> dict[str, float]:
    """The Table 2 statistics of a vector-size sample."""
    s = np.asarray(doc_sizes)
    return {
        "minimum": float(s.min()),
        "5th": float(np.percentile(s, 5)),
        "50th": float(np.percentile(s, 50)),
        "95th": float(np.percentile(s, 95)),
        "maximum": float(s.max()),
        "mean": float(s.mean()),
    }
