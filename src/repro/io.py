"""Index persistence: save/load a landmark index's state to ``.npz``.

A downstream adopter building a long-lived deployment needs the expensive
parts of index construction — landmark selection, projection, hashing — to
survive restarts.  :func:`save_index` captures the landmark set (for vector
domains), the bounds, per-entry keys/points/object-ids and the index
configuration; :func:`load_index` restores it onto a (possibly different)
ring and redistributes.

Only array-backed landmark domains round-trip the landmarks themselves;
black-box domains (strings, point sets) save everything *except* the
landmark objects, which the caller must re-supply (they are application
data).
"""

from __future__ import annotations

import numpy as np

from repro.core.index_space import IndexSpace, IndexSpaceBounds
from repro.core.landmarks import LandmarkSet
from repro.core.platform import LandmarkIndex

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 1


def save_index(index: LandmarkIndex, path: str) -> None:
    """Serialise an index's state to ``path`` (.npz).

    Raises ``TypeError`` for landmark sets that are not dense arrays —
    black-box landmark objects cannot be serialised generically.
    """
    landmarks = index.space.landmark_set.landmarks
    if not isinstance(landmarks, np.ndarray):
        raise TypeError(
            "only array-backed landmark sets can be saved generically; "
            "persist black-box landmarks alongside your application data"
        )
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        name=np.bytes_(index.name.encode("utf-8")),
        scheme=np.bytes_(index.space.landmark_set.scheme.encode("utf-8")),
        landmarks=landmarks,
        bounds_lows=index.bounds.lows,
        bounds_highs=index.bounds.highs,
        rotation=np.uint64(index.rotation),
        replication=np.int64(index.replication),
        m=np.int64(index.m),
        keys=index._keys,
        points=index._points,
        object_ids=index._object_ids,
    )


def load_index(path: str, ring, dataset, metric) -> LandmarkIndex:
    """Restore an index saved with :func:`save_index` onto ``ring``.

    ``dataset`` and ``metric`` are re-supplied by the caller (objects are
    application data; the metric is code).  The ring may differ from the one
    the index was saved from — entries are redistributed to the current
    owners; only ``m`` must match the saved identifier width.  A file from
    before index-space refinement was retired loads when its
    ``refine_mode`` says ``"true"``, and is refused when it says
    ``"index"``.
    """
    with np.load(path) as z:
        version = int(z["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported index format version {version}")
        if "refine_mode" in z.files:
            mode = z["refine_mode"].item().decode("utf-8")
            if mode != "true":
                raise ValueError(
                    f"refine_mode {mode!r} is retired: index nodes refine by "
                    "true distance only")
        m = int(z["m"])
        if ring.m != m:
            raise ValueError(f"ring identifier width {ring.m} != saved {m}")
        landmark_set = LandmarkSet(
            landmarks=z["landmarks"],
            metric=metric,
            scheme=z["scheme"].item().decode("utf-8"),
        )
        bounds = IndexSpaceBounds(z["bounds_lows"], z["bounds_highs"])
        space = IndexSpace(landmark_set, bounds)
        index = LandmarkIndex(
            z["name"].item().decode("utf-8"),
            space,
            ring,
            dataset,
            rotation=int(z["rotation"]),
            replication=int(z["replication"]),
        )
        index._keys = z["keys"].astype(np.uint64)
        index._points = z["points"]
        index._object_ids = z["object_ids"].astype(np.int64)
    index.distribute()
    return index
