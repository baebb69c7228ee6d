"""The paper's primary contribution: the landmark-based index architecture.

Sub-modules map one-to-one onto §3 of the paper:

* :mod:`repro.core.landmarks` — landmark selection (Algorithm 1, k-means)
  and projection into the index space (§3.1);
* :mod:`repro.core.index_space` — index-space boundaries (§3.1);
* :mod:`repro.core.lph` — locality-preserving hashing (Algorithm 2, §3.2);
* :mod:`repro.core.query` — range queries and QuerySplit (Algorithm 4);
* :mod:`repro.core.routing` — QueryRouting and SurrogateRefine
  (Algorithms 3 & 5, §3.3);
* :mod:`repro.core.lifecycle` — per-query state machines, completion
  detection, deadlines/retries and futures;
* :mod:`repro.core.loadbalance` — static rotation + dynamic migration (§3.4);
* :mod:`repro.core.platform` — the multi-index platform facade;
* :mod:`repro.core.naive` — the naive per-cuboid baseline of §3.3.
"""

from repro.core.index_space import IndexSpace, IndexSpaceBounds
from repro.core.landmarks import (
    LandmarkSet,
    greedy_selection,
    kmeans_selection,
    kmedoids_selection,
    select_landmarks,
)
from repro.core.loadbalance import (
    LoadBalanceReport,
    dynamic_load_migration,
    hotspot_overlap,
    probe_neighbourhood,
)
from repro.core.lph import (
    key_to_cuboid,
    lp_hash,
    lp_hash_batch,
    prefix_to_cuboid,
    smallest_enclosing_prefix,
)
from repro.core.knn import KnnResult, knn_search
from repro.core.lifecycle import (
    LifecycleEngine,
    QueryFuture,
    QueryTimeout,
    RetryPolicy,
)
from repro.core.naive import NaiveProtocol, decompose_to_owner_cuboids
from repro.core.platform import IndexPlatform, LandmarkIndex, QueryPayload, take
from repro.core.query import QidAllocator, RangeQuery, Rect, query_split
from repro.core.routing import QueryProtocol
from repro.core.scale import ScaleConfig, ScaleReport, ScaleSimulation
from repro.core.storage import Shard, ShardStore
from repro.core.updates import UpdateProtocol, UpdateStats, entry_message_size

__all__ = [
    "LandmarkSet",
    "greedy_selection",
    "kmeans_selection",
    "kmedoids_selection",
    "select_landmarks",
    "IndexSpace",
    "IndexSpaceBounds",
    "lp_hash",
    "lp_hash_batch",
    "key_to_cuboid",
    "prefix_to_cuboid",
    "smallest_enclosing_prefix",
    "RangeQuery",
    "Rect",
    "QidAllocator",
    "query_split",
    "QueryProtocol",
    "LifecycleEngine",
    "QueryFuture",
    "QueryTimeout",
    "RetryPolicy",
    "NaiveProtocol",
    "decompose_to_owner_cuboids",
    "IndexPlatform",
    "LandmarkIndex",
    "QueryPayload",
    "take",
    "Shard",
    "ShardStore",
    "ScaleConfig",
    "ScaleReport",
    "ScaleSimulation",
    "LoadBalanceReport",
    "dynamic_load_migration",
    "hotspot_overlap",
    "probe_neighbourhood",
    "KnnResult",
    "knn_search",
    "UpdateProtocol",
    "UpdateStats",
    "entry_message_size",
]
