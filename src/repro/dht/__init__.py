"""Chord DHT substrate (Stoica et al. [20]) with proximity neighbour selection.

The index architecture sits on top of Chord and exploits the trees embedded
in its finger structure for query delivery; this package provides identifier
arithmetic, consistent hashing, nodes/rings with finger + successor-list
routing state, PNS finger selection [9], and greedy lookups.
"""

from repro.dht.compact import CompactChordRing
from repro.dht.hashing import hash_to_id, node_id, random_ids, rotation_offset
from repro.dht.idspace import (
    cw_distance,
    in_interval_closed_open,
    in_interval_open,
    in_interval_open_closed,
)
from repro.dht.node import ChordNode
from repro.dht.ring import ChordRing
from repro.dht.stabilize import MaintenanceConfig, MaintenanceStats, StabilizationProtocol

__all__ = [
    "ChordNode",
    "ChordRing",
    "CompactChordRing",
    "StabilizationProtocol",
    "MaintenanceConfig",
    "MaintenanceStats",
    "hash_to_id",
    "node_id",
    "rotation_offset",
    "random_ids",
    "cw_distance",
    "in_interval_open",
    "in_interval_open_closed",
    "in_interval_closed_open",
]
