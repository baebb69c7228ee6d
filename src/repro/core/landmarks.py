"""Landmark selection and projection (paper §3.1, Algorithm 1).

The landmark-based index space maps every object ``x`` of a metric space
``(D, d)`` to the vector ``(d(x, l1), ..., d(x, lk))`` over a pre-selected
landmark set ``L``.  The triangle inequality makes the mapping contractive —
``max_i |d(x, l_i) - d(y, l_i)| <= d(x, y)`` — which is what lets a
near-neighbour query ``(q, r)`` be answered from the hypercube of side ``2r``
around the query's image (no false negatives).

Two selection schemes from the paper:

* **greedy** (Algorithm 1): start from a random sample element, repeatedly
  add the sample object farthest from the chosen set (max-min distance);
* **k-means**: cluster the sample and use the cluster *centroids* — this
  needs vector structure, so for black-box metrics we fall back to
  **k-medoids** (the cluster member closest to the centroid role), which the
  platform exposes as ``"kmedoids"``.

A well-known node performs selection once at system initiation on a random
sample of the network's data (§3.1); new nodes fetch the set from any member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.metric.base import Metric
from repro.util.arrays import issparse, take
from repro.util.rng import as_rng

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "LandmarkSet",
    "greedy_selection",
    "kmeans_selection",
    "kmedoids_selection",
    "select_landmarks",
    "SELECTION_SCHEMES",
]


@dataclass
class LandmarkSet:
    """A chosen set of landmarks bound to its metric.

    ``landmarks`` is a sequence of domain objects (rows of an array, strings,
    sparse rows...).  :meth:`project` computes index-space points for a batch
    of objects with one vectorised ``one_to_many`` pass per landmark.
    """

    landmarks: Any
    metric: Metric
    scheme: str = field(default="greedy")

    @property
    def k(self) -> int:
        """Number of landmarks == dimensionality of the index space."""
        if hasattr(self.landmarks, "shape") and getattr(self.landmarks, "ndim", 1) >= 2:
            return int(self.landmarks.shape[0])
        return len(self.landmarks)

    def _landmark(self, i: int) -> Any:
        return self.landmarks[i]

    def project(self, objects: Any) -> np.ndarray:
        """Map ``objects`` to the k-dimensional index space.

        Returns an ``(n_objects, k)`` float64 array whose column ``i`` holds
        ``d(x, l_i)``, computed as one ``many_to_many`` distance matrix.
        The metric's column-exactness contract (column ``i`` bit-identical
        to ``one_to_many(l_i, objects)``) is what keeps single-object and
        batch projection on the same floating-point path.
        """
        return self.metric.many_to_many(objects, self.landmarks)

    def project_one(self, obj: Any) -> np.ndarray:
        """Map a single object to its index-space point (k-vector).

        Delegates to the batch kernel with a singleton batch so the
        floating-point path is bit-identical to :meth:`project` — a
        zero-radius query for an indexed object must land exactly on its
        stored index point.
        """
        if isinstance(obj, np.ndarray) and obj.ndim == 1:
            batch: Any = obj[None, :]
        elif issparse(obj):
            batch = obj
        else:
            batch = [obj]
        return self.project(batch)[0]


def greedy_selection(
    sample: Any,
    metric: Metric,
    k: int,
    seed: int | np.random.Generator | None = 0,
) -> LandmarkSet:
    """Algorithm 1 (GreedySelection): max-min farthest-point traversal.

    Starts from a random sample object; each round adds the object whose
    minimum distance to the current landmark set is maximal, keeping the
    landmarks dispersed in the original space.
    """
    rng = as_rng(seed)
    n = sample.shape[0] if hasattr(sample, "shape") else len(sample)
    if k > n:
        raise ValueError(f"cannot select {k} landmarks from a sample of {n}")
    chosen = [int(rng.integers(0, n))]
    # min distance from every sample object to the chosen set, updated
    # incrementally — one one_to_many pass per selected landmark.
    min_dist = metric.one_to_many(take(sample, chosen[0]), sample)
    while len(chosen) < k:
        min_dist[chosen] = -np.inf  # never re-pick a landmark
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        np.minimum(min_dist, metric.one_to_many(take(sample, nxt), sample), out=min_dist)
    return LandmarkSet(landmarks=take(sample, chosen), metric=metric, scheme="greedy")


def _lloyd(
    X: np.ndarray,
    k: int,
    rng: np.random.Generator,
    iters: int,
    spherical: bool,
) -> np.ndarray:
    """Lloyd's k-means on dense rows; spherical variant normalises rows/centroids.

    Initialisation is k-means++ style (distance-weighted seeding).
    """
    n = X.shape[0]
    if spherical:
        norms = np.linalg.norm(X, axis=1)
        norms[norms == 0] = 1.0
        X = X / norms[:, None]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = X[first]
    d2 = np.full(n, np.inf)
    for c in range(1, k):
        diff = X - centers[c - 1]
        np.minimum(d2, np.einsum("ij,ij->i", diff, diff), out=d2)
        total = d2.sum()
        if total <= 0:
            centers[c:] = X[rng.integers(0, n, size=k - c)]
            break
        centers[c] = X[int(rng.choice(n, p=d2 / total))]
    for _ in range(iters):
        # assignment: nearest centre (squared-Euclidean expansion trick)
        sq = (
            np.einsum("ij,ij->i", X, X)[:, None]
            - 2.0 * (X @ centers.T)
            + np.einsum("ij,ij->i", centers, centers)[None, :]
        )
        assign = np.argmin(sq, axis=1)
        new_centers = np.zeros_like(centers)
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        np.add.at(new_centers, assign, X)
        empty = counts == 0
        counts[empty] = 1.0
        new_centers /= counts[:, None]
        if empty.any():  # re-seed empty clusters at far points
            far = np.argsort(-np.min(sq, axis=1))[: int(empty.sum())]
            new_centers[empty] = X[far]
        if spherical:
            cn = np.linalg.norm(new_centers, axis=1)
            cn[cn == 0] = 1.0
            new_centers /= cn[:, None]
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    return centers


def _spherical_lloyd_sparse(
    X: sparse.csr_matrix,
    k: int,
    rng: np.random.Generator,
    iters: int,
) -> np.ndarray:
    """Spherical k-means on CSR rows without densifying the sample.

    Rows are L2-normalised; assignment maximises cosine similarity; centroids
    are the (re-normalised) mean of assigned rows, accumulated with one
    sparse indicator product per iteration.  Returns dense ``(k, dim)``
    centroids — for k ~ 10 this is small even at a 233k-term vocabulary.
    """
    from scipy import sparse

    n = X.shape[0]
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    Xn = sparse.diags(1.0 / norms) @ X
    seeds = rng.choice(n, size=k, replace=False)
    centers = np.asarray(Xn[seeds].todense(), dtype=np.float64)
    for _ in range(iters):
        sim = np.asarray((Xn @ centers.T))  # (n, k) dense similarities
        assign = np.argmax(sim, axis=1)
        indicator = sparse.csr_matrix(
            (np.ones(n), (assign, np.arange(n))), shape=(k, n)
        )
        sums = np.asarray((indicator @ Xn).todense(), dtype=np.float64)
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        empty = counts == 0
        if empty.any():  # re-seed empty clusters at poorly-fit rows
            worst = np.argsort(sim[np.arange(n), assign])[: int(empty.sum())]
            sums[empty] = np.asarray(Xn[worst].todense(), dtype=np.float64)
            counts[empty] = 1.0
        cn = np.linalg.norm(sums, axis=1)
        cn[cn == 0] = 1.0
        new_centers = sums / cn[:, None]
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    return centers


def kmeans_selection(
    sample: Any,
    metric: Metric,
    k: int,
    seed: int | np.random.Generator | None = 0,
    iters: int = 25,
) -> LandmarkSet:
    """K-means clustering selection: landmarks are cluster *centroids*.

    Requires vector structure.  Dense arrays use plain Lloyd's; sparse
    matrices (document vectors) use the spherical variant — centroids of
    normalised vectors — which matches clustering under the angular metric
    and yields dense landmark vectors with "more terms", the property the
    paper credits for k-means beating greedy on TREC (§4.3).
    """
    rng = as_rng(seed)
    if issparse(sample):
        centers = _spherical_lloyd_sparse(sample.tocsr(), k, rng, iters)
        return LandmarkSet(landmarks=centers, metric=metric, scheme="kmeans")
    try:
        X = np.asarray(sample, dtype=np.float64)
    except (TypeError, ValueError):
        X = None
    if X is None or X.ndim != 2:
        raise TypeError(
            "k-means landmark selection needs vector data; "
            "use scheme='kmedoids' for black-box metric domains"
        )
    centers = _lloyd(X, k, rng, iters, spherical=False)
    return LandmarkSet(landmarks=centers, metric=metric, scheme="kmeans")


#: largest sample whose whole distance matrix k-medoids computes up front
_FULL_MATRIX_MAX = 3000


def _self_distances(metric: Metric, objs: Any) -> np.ndarray:
    """``metric.many_to_many(objs, objs)`` at half the distance calls: a
    metric is symmetric with ``d(x, x) = 0``, so each unordered pair is
    computed once (column ``j`` above the diagonal, as ``many_to_many``
    computes it) and mirrored."""
    n = objs.shape[0] if hasattr(objs, "shape") else len(objs)
    upper = np.zeros((n, n))
    for j in range(1, n):
        upper[:j, j] = metric.one_to_many(take(objs, j), objs[:j])
    return upper + upper.T


def kmedoids_selection(
    sample: Any,
    metric: Metric,
    k: int,
    seed: int | np.random.Generator | None = 0,
    iters: int = 10,
) -> LandmarkSet:
    """K-medoids (PAM-style) selection for black-box metric domains.

    Plays the role of k-means when centroids cannot be formed (strings,
    point sets): medoids are actual sample objects minimising the summed
    distance of their cluster.
    """
    rng = as_rng(seed)
    n = sample.shape[0] if hasattr(sample, "shape") else len(sample)
    if k > n:
        raise ValueError(f"cannot select {k} medoids from a sample of {n}")
    medoid_idx = list(rng.choice(n, size=k, replace=False))
    D = None
    if n <= _FULL_MATRIX_MAX:
        D = _self_distances(metric, sample)
    for _ in range(iters):
        if D is not None:
            dist_to_medoids = D[:, medoid_idx]
        else:
            dist_to_medoids = np.stack(
                [metric.one_to_many(take(sample, mi), sample) for mi in medoid_idx], axis=1
            )
        assign = np.argmin(dist_to_medoids, axis=1)
        new_medoids = []
        for c in range(k):
            members = np.flatnonzero(assign == c)
            if len(members) == 0:
                new_medoids.append(medoid_idx[c])
                continue
            if D is not None:
                sub = D[np.ix_(members, members)]
            else:
                sub = _self_distances(metric, take(sample, members))
            new_medoids.append(int(members[np.argmin(sub.sum(axis=1))]))
        if new_medoids == medoid_idx:
            break
        medoid_idx = new_medoids
    return LandmarkSet(landmarks=take(sample, medoid_idx), metric=metric, scheme="kmedoids")


#: Registry used by the platform's ``selection=`` parameter.
SELECTION_SCHEMES = {
    "greedy": greedy_selection,
    "kmeans": kmeans_selection,
    "kmedoids": kmedoids_selection,
}


def select_landmarks(
    scheme: str,
    sample: Any,
    metric: Metric,
    k: int,
    seed: int | np.random.Generator | None = 0,
) -> LandmarkSet:
    """Dispatch to a selection scheme by name (``greedy``/``kmeans``/``kmedoids``)."""
    try:
        fn = SELECTION_SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown landmark selection scheme {scheme!r}; "
            f"expected one of {sorted(SELECTION_SCHEMES)}"
        ) from None
    return fn(sample, metric, k, seed)
