"""Load balancing mechanisms (paper §3.4).

**Static — space-mapping rotation.**  Each index gets a random rotation
offset ``φ = hash(index name)``; its keys map to ``[φ .. φ + 2^m - 1]`` so
hotspots of different indexes land on *different* arcs of the ring instead of
piling onto the same nodes.  Rotation is applied at index creation
(``IndexPlatform.create_index(rotation=True)``); this module provides the
analysis helper :func:`hotspot_overlap` used by the rotation ablation.

**Dynamic — load migration.**  A node ``N`` periodically probes the load of
its neighbours (and neighbours-of-neighbours up to probing level ``P_l``).
``N`` is *heavily loaded* when ``L_N > avg * (1 + δ_N)`` over the probed set.
A heavy node finds a lightly loaded node and asks it to leave and rejoin
with a chosen identifier — the split point dividing the heavy node's key
range so its load halves.  The paper notes the trade-off: migration skews
node identifiers away from uniform, deepening the embedded search tree and
hurting query routing, controlled by ``δ`` and ``P_l`` (the Figure 3
experiments push it to the max with ``δ = 0``, ``P_l = 4``).

The simulation applies migration as converging rounds between workload
phases, matching the paper's setup of measuring queries after
stabilisation.  Probe traffic is accounted in the returned report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import Any

from repro.dht.idspace import rotate_keys
from repro.util.rng import as_rng

__all__ = ["LoadBalanceReport", "probe_neighbourhood", "dynamic_load_migration", "hotspot_overlap"]


@dataclass
class LoadBalanceReport:
    """What a dynamic load-balancing run did."""

    rounds: int = 0
    moves: int = 0
    probes: int = 0
    entries_migrated: int = 0
    initial_max_load: int = 0
    final_max_load: int = 0
    initial_imbalance: float = 0.0
    final_imbalance: float = 0.0
    history: list[int] = field(default_factory=list)


def probe_neighbourhood(node: Any, level: int) -> list[Any]:
    """Nodes reachable within ``level`` routing-table hops (excluding ``node``).

    Level 1 is the node's own routing table (fingers + successor list);
    higher levels follow neighbours' tables — the paper's ``P_l``.
    """
    seen = {node.id: node}
    frontier = [node]
    for _ in range(level):
        nxt = []
        for cur in frontier:
            for nb in cur.routing_table():
                if nb.id not in seen:
                    seen[nb.id] = nb
                    nxt.append(nb)
        frontier = nxt
        if not frontier:
            break
    del seen[node.id]
    return list(seen.values())


def _imbalance(loads: np.ndarray) -> float:
    """Max/mean load ratio (1.0 = perfectly even)."""
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 0.0


def _split_point(platform: Any, node: Any) -> int | None:
    """The identifier halving ``node``'s load: the median ring key it stores.

    A light node rejoining at this identifier takes over the lower half of
    the heavy node's entries.
    """
    keys = []
    for index in platform.indexes.values():
        shard = index.shards.get(node)
        if shard is not None and len(shard):
            keys.append(rotate_keys(shard.keys, index.rotation, index.m))
    if not keys:
        return None
    # Keys within (predecessor, node] may wrap zero; unwrap relative to the
    # interval start so the median is meaningful on the circle.
    pred = node.predecessor["id"] if node.predecessor is not None else node.id
    two_m = 1 << platform.ring.m
    rel = sorted((int(kv) - pred) % two_m for kv in np.concatenate(keys))
    median_rel = rel[len(rel) // 2]
    split = (pred + median_rel) % two_m
    if split == node.id or split in platform.ring.nodes_by_id:
        return None
    return split


def dynamic_load_migration(
    platform: Any,
    delta: float = 0.0,
    probe_level: int = 4,
    max_rounds: int = 40,
    seed: int | np.random.Generator | None = 0,
    min_load: int = 4,
) -> LoadBalanceReport:
    """Run dynamic load migration until convergence (paper §3.4).

    Each round visits nodes in random order; a node whose load exceeds the
    probed-neighbourhood average by factor ``(1 + delta)`` recruits the
    lightest probed node (if it is strictly lighter) to leave and rejoin at
    the heavy node's split point.  Rounds repeat until a round makes no
    moves or ``max_rounds`` is reached.  ``min_load`` stops the churn of
    splitting nodes that hold almost nothing.
    """
    rng = as_rng(seed)
    ring = platform.ring
    report = LoadBalanceReport()
    loads0 = platform.load_distribution()
    report.initial_max_load = int(loads0.max()) if len(loads0) else 0
    report.initial_imbalance = _imbalance(loads0)
    for round_no in range(max_rounds):
        nodes = ring.nodes()
        order = rng.permutation(len(nodes))
        moves_this_round = 0
        moved_ids: set[int] = set()
        for pos in order:
            node = nodes[pos]
            if node.id in moved_ids or node.id not in ring.nodes_by_id:
                continue
            my_load = platform.node_load(node)
            if my_load < min_load:
                continue
            neighbours = probe_neighbourhood(node, probe_level)
            report.probes += len(neighbours)
            if not neighbours:
                continue
            n_loads = np.asarray([platform.node_load(nb) for nb in neighbours], dtype=np.float64)
            avg = n_loads.mean()
            if my_load <= avg * (1.0 + delta):
                continue
            light = neighbours[int(np.argmin(n_loads))]
            if platform.node_load(light) >= my_load // 2 or light.id in moved_ids:
                continue
            split = _split_point(platform, node)
            if split is None:
                continue
            moved_ids.add(light.id)
            moved_ids.add(node.id)
            ring.move_node(light, split)
            for index in platform.indexes.values():
                report.entries_migrated += index.distribute()
            moves_this_round += 1
            report.moves += 1
        report.rounds = round_no + 1
        loads = platform.load_distribution()
        report.history.append(int(loads.max()) if len(loads) else 0)
        if moves_this_round == 0:
            break
    loads1 = platform.load_distribution()
    report.final_max_load = int(loads1.max()) if len(loads1) else 0
    report.final_imbalance = _imbalance(loads1)
    return report


def hotspot_overlap(platform: Any, top_fraction: float = 0.05) -> float:
    """How much the hottest nodes of different indexes coincide.

    For each index, take the ``top_fraction`` most loaded nodes; return the
    mean pairwise Jaccard overlap of these hot sets across indexes.  Without
    rotation, indexes with similarly skewed key distributions produce
    overlapping hot sets (≈1); rotation drives the overlap toward the random
    baseline (≈``top_fraction``).  Used by the rotation ablation bench.
    """
    hot_sets = []
    for index in platform.indexes.values():
        loads = index.load_distribution()
        n_top = max(1, int(round(top_fraction * len(loads))))
        top_pos = np.argsort(-loads)[:n_top]
        hot_sets.append(set(int(p) for p in top_pos))
    if len(hot_sets) < 2:
        return 1.0
    overlaps = []
    for i in range(len(hot_sets)):
        for j in range(i + 1, len(hot_sets)):
            inter = len(hot_sets[i] & hot_sets[j])
            union = len(hot_sets[i] | hot_sets[j])
            overlaps.append(inter / union if union else 0.0)
    return float(np.mean(overlaps))
